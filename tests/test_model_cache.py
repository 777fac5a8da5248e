"""The content-addressed model cache and typed persistence errors."""

import json
import os

import pytest

from repro.cli import main
from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.persist import (
    FORMAT_VERSION,
    ModelCache,
    ModelLoadError,
    config_fingerprint,
    load_model,
    log_fingerprint,
    model_cache_key,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.core.signatures.application import SignatureConfig
from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, FlowRemoved, PacketIn
from repro.openflow.serialize import read_log, save_log


def small_log(shift=0.0):
    log = ControllerLog()
    for i, (src, dst) in enumerate((("a", "b"), ("b", "c"), ("a", "b"))):
        key = FlowKey(src, dst, 1000 + i, 80)
        pin = PacketIn(
            timestamp=1.0 + i + shift, dpid="sw1", flow=key, in_port=1, buffer_id=i
        )
        log.append(pin)
        log.append(
            FlowMod(
                timestamp=1.001 + i + shift,
                dpid="sw1",
                match=Match.exact(key),
                out_port=2,
                in_reply_to=i,
            )
        )
    log.append(
        FlowRemoved(
            timestamp=8.0 + shift,
            dpid="sw1",
            match=Match.exact(FlowKey("a", "b", 1000, 80)),
            duration=2.0,
            byte_count=1200,
            packet_count=9,
        )
    )
    return log


class TestFingerprints:
    def test_log_fingerprint_is_content_addressed(self):
        assert log_fingerprint(small_log()) == log_fingerprint(small_log())
        assert log_fingerprint(small_log()) != log_fingerprint(small_log(shift=0.5))

    def test_log_fingerprint_invalidated_by_growth(self):
        log = small_log()
        before = log_fingerprint(log)
        log.append(
            PacketIn(
                timestamp=9.0,
                dpid="sw2",
                flow=FlowKey("x", "y", 1, 2),
                in_port=1,
                buffer_id=99,
            )
        )
        assert log_fingerprint(log) != before

    def test_read_log_caches_file_digest(self, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        save_log(small_log(), path)
        log = read_log(path)
        assert log.cached_content_digest() is not None
        assert log_fingerprint(log) == log.cached_content_digest()

    def test_config_fingerprint_ignores_execution_knobs(self):
        base = FlowDiffConfig()
        assert config_fingerprint(base) == config_fingerprint(
            FlowDiffConfig(jobs=8, cache_dir="/somewhere")
        )
        changed = FlowDiffConfig(signature=SignatureConfig(occurrence_gap=2.0))
        assert config_fingerprint(base) != config_fingerprint(changed)

    def test_cache_key_components(self):
        log = small_log()
        cfg = FlowDiffConfig()
        key = model_cache_key(log, cfg, (0.0, 1.0), True)
        assert key != model_cache_key(log, cfg, (0.0, 2.0), True)
        assert key != model_cache_key(log, cfg, (0.0, 1.0), False)
        assert key != model_cache_key(small_log(shift=0.1), cfg, (0.0, 1.0), True)


class TestModelCache:
    def test_hit_returns_identical_model(self, tmp_path):
        metrics = MetricsRegistry()
        fd = FlowDiff(
            FlowDiffConfig(cache_dir=str(tmp_path)), metrics=metrics
        )
        log = small_log()
        first = fd.model(log)
        second = fd.model(log)
        assert model_to_dict(first) == model_to_dict(second)

    def test_config_change_misses(self, tmp_path):
        log = small_log()
        FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path))).model(log)
        FlowDiff(
            FlowDiffConfig(
                cache_dir=str(tmp_path),
                signature=SignatureConfig(occurrence_gap=2.0),
            )
        ).model(log)
        assert len(list(tmp_path.glob("*.model.json"))) == 2

    def test_window_change_misses(self, tmp_path):
        log = small_log()
        fd = FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path)))
        fd.model(log)
        fd.model(log, window=(1.0, 6.0))
        assert len(list(tmp_path.glob("*.model.json"))) == 2

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        log = small_log()
        fd = FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path)))
        fresh = fd.model(log)
        (entry,) = tmp_path.glob("*.model.json")
        entry.write_text("not json at all", encoding="utf-8")
        with pytest.warns(UserWarning, match="unreadable cached model"):
            rebuilt = fd.model(log)
        assert model_to_dict(rebuilt) == model_to_dict(fresh)

    def test_version_skew_is_a_miss(self, tmp_path):
        log = small_log()
        fd = FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path)))
        fd.model(log)
        (entry,) = tmp_path.glob("*.model.json")
        data = json.loads(entry.read_text(encoding="utf-8"))
        data["version"] = FORMAT_VERSION + 1
        entry.write_text(json.dumps(data), encoding="utf-8")
        with pytest.warns(UserWarning, match="unreadable cached model"):
            fd.model(log)

    def test_records_bypass_cache(self, tmp_path):
        from repro.core.events import extract_flow_records

        log = small_log()
        fd = FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path)))
        records = extract_flow_records(log, 1.0)
        fd.model(log, records=records)
        assert not list(tmp_path.glob("*.model.json"))

    def test_cache_metrics(self, tmp_path):
        metrics = MetricsRegistry()
        cache = ModelCache(str(tmp_path), metrics=metrics)
        fd = FlowDiff(FlowDiffConfig(cache_dir=str(tmp_path)), metrics=metrics)
        log = small_log()
        fd.model(log)
        fd.model(log)
        snapshot = metrics.snapshot()
        assert any("flowdiff_cache_total" in name for name in snapshot)
        assert cache.entry(log, fd.config, log.time_span, True).load() is not None


class TestModelLoadError:
    def test_truncated_json_names_path(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1, "window"', encoding="utf-8")
        with pytest.raises(ModelLoadError, match="invalid JSON") as err:
            load_model(str(path))
        assert err.value.path == str(path)
        assert str(path) in str(err.value)

    def test_version_skew(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(
            json.dumps(
                {
                    "version": 99,
                    "window": [0, 1],
                    "app_signatures": {},
                    "infrastructure": {},
                }
            ),
            encoding="utf-8",
        )
        with pytest.raises(ModelLoadError, match="version"):
            load_model(str(path))

    def test_missing_section(self):
        with pytest.raises(ModelLoadError, match="infrastructure"):
            model_from_dict(
                {"version": FORMAT_VERSION, "window": [0, 1], "app_signatures": {}}
            )

    def test_wrong_payload_type(self):
        with pytest.raises(ModelLoadError, match="JSON object"):
            model_from_dict([1, 2, 3])

    def test_truncated_signature_payload(self, tmp_path):
        log = small_log()
        model = FlowDiff(FlowDiffConfig()).model(log)
        data = model_to_dict(model)
        for sig in data["app_signatures"].values():
            del sig["fs"]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ModelLoadError, match="truncated or corrupt"):
            load_model(str(path))

    def test_is_a_value_error(self):
        # Callers that caught the old ValueError keep working.
        assert issubclass(ModelLoadError, ValueError)


class TestCliFlags:
    @pytest.fixture()
    def captures(self, tmp_path):
        from repro.scenarios import three_tier_lab

        baseline = str(tmp_path / "baseline.jsonl")
        current = str(tmp_path / "current.jsonl")
        log = three_tier_lab(seed=3).run(stop=10.0)
        save_log(log, baseline)
        save_log(log.window(*log.time_span), current)
        return baseline, current

    @pytest.mark.slow
    def test_warm_diff_skips_remodeling(self, tmp_path, captures, capsys, monkeypatch):
        baseline, current = captures
        cache_dir = str(tmp_path / "cache")
        code = main(["diff", baseline, current, "--cache-dir", cache_dir])
        capsys.readouterr()
        assert code == 0
        assert list(os.listdir(cache_dir))
        # Warm run: the modeling pipeline must not execute at all.
        import repro.core.flowdiff as flowdiff_mod

        def boom(*args, **kwargs):  # pragma: no cover - only on failure
            raise AssertionError("remodeled despite warm cache")

        monkeypatch.setattr(
            flowdiff_mod, "extract_flow_records", boom, raising=True
        )
        monkeypatch.setattr(
            flowdiff_mod, "build_application_signatures", boom, raising=True
        )
        code = main(["diff", baseline, current, "--cache-dir", cache_dir])
        capsys.readouterr()
        assert code == 0


class TestNonAsciiRoundTrip:
    def test_unicode_host_names_round_trip(self, tmp_path):
        key = FlowKey("ホストα", "दब-β", 4242, 443)
        log = ControllerLog()
        pin = PacketIn(timestamp=1.0, dpid="スイッチ1", flow=key, in_port=1, buffer_id=5)
        log.append(pin)
        log.append(
            FlowMod(
                timestamp=1.001,
                dpid="スイッチ1",
                match=Match.exact(key),
                out_port=2,
                in_reply_to=5,
            )
        )
        path = str(tmp_path / "unicode.jsonl")
        save_log(log, path)
        reloaded = read_log(path)
        assert [m.dpid for m in reloaded] == [m.dpid for m in log]
        assert reloaded.packet_ins()[0].flow == key

        model = FlowDiff(FlowDiffConfig()).model(reloaded, assess=False)
        model_path = str(tmp_path / "unicode.model.json")
        save_model(model, model_path)
        assert model_to_dict(load_model(model_path)) == model_to_dict(model)
