"""Tests for behavior-model persistence."""

import json

import pytest

from repro import FlowDiff
from repro.core.flowdiff import FlowDiffConfig
from repro.core.persist import (
    FORMAT_VERSION,
    ModelLoadError,
    config_fingerprint,
    load_model,
    load_model_object,
    model_digest,
    model_from_dict,
    model_object_path,
    model_to_dict,
    save_model,
    store_model_object,
)
from repro.core.signatures.application import SignatureConfig
from repro.core.signatures.delay import DelayDistribution
from repro.faults import LoggingMisconfig
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, PacketIn
from repro.openflow.serialize import read_log, save_log
from repro.scenarios import three_tier_lab

DURATION = 25.0


def capture(fault=None, seed=3):
    scenario = three_tier_lab(seed=seed)
    if fault is not None:
        scenario.inject(fault, at=0.0)
    return scenario.run(0.5, DURATION)


@pytest.fixture(scope="module")
def fd():
    return FlowDiff()


@pytest.fixture(scope="module")
def model(fd):
    return fd.model(capture())


class TestRoundTrip:
    def test_dict_round_trip_structure(self, model):
        data = model_to_dict(model)
        restored = model_from_dict(data)
        assert set(restored.app_signatures) == set(model.app_signatures)
        assert restored.window == model.window
        assert restored.stability == model.stability
        for key in model.app_signatures:
            orig = model.app_signatures[key]
            back = restored.app_signatures[key]
            assert back.group.members == orig.group.members
            assert back.cg.edges == orig.cg.edges
            assert back.fs.byte_mean == pytest.approx(orig.fs.byte_mean)
            assert back.ci.counts == orig.ci.counts
            assert back.pc.correlations == orig.pc.correlations
        assert (
            restored.infrastructure.pt.switch_links
            == model.infrastructure.pt.switch_links
        )
        assert restored.infrastructure.crt.mean == pytest.approx(
            model.infrastructure.crt.mean
        )

    def test_json_serializable(self, model):
        json.dumps(model_to_dict(model))  # no exotic types sneak through

    def test_file_round_trip(self, model, tmp_path):
        path = str(tmp_path / "baseline.model.json")
        save_model(model, path)
        restored = load_model(path)
        assert set(restored.app_signatures) == set(model.app_signatures)

    def test_version_check(self, model):
        data = model_to_dict(model)
        data["version"] = 99
        with pytest.raises(ValueError, match="version"):
            model_from_dict(data)

    def test_dd_summaries_preserved(self, model):
        restored = model_from_dict(model_to_dict(model))
        key = next(iter(model.app_signatures))
        orig_dd = model.app_signatures[key].dd
        back_dd = restored.app_signatures[key].dd
        for pair in orig_dd.pairs():
            assert back_dd.dominant_peak(pair) == pytest.approx(
                orig_dd.dominant_peak(pair)
            )
            assert back_dd.mean_delay(pair) == pytest.approx(
                orig_dd.mean_delay(pair)
            )

    def test_raw_samples_not_available_after_reload(self, model):
        """Nor before it: a signature holds summaries only, so the
        reloaded DD is the built one, not a look-alike subclass."""
        restored = model_from_dict(model_to_dict(model))
        key = next(iter(model.app_signatures))
        dd = restored.app_signatures[key].dd
        assert dd.pairs()
        assert dd == model.app_signatures[key].dd
        assert type(dd) is DelayDistribution
        assert not hasattr(dd, "delay_cdf")


class TestDiffEquivalence:
    def test_reloaded_baseline_diffs_identically(self, fd, model):
        """The headline guarantee: diff(reloaded, X) == diff(original, X)."""
        restored = model_from_dict(model_to_dict(model))
        current = fd.model(
            capture(fault=LoggingMisconfig("S3", 0.05)), assess=False
        )
        original_report = fd.diff(model, current)
        reloaded_report = fd.diff(restored, current)
        assert [c.brief() for c in reloaded_report.unknown_changes] == [
            c.brief() for c in original_report.unknown_changes
        ]
        assert [p.problem for p in reloaded_report.problems] == [
            p.problem for p in original_report.problems
        ]
        assert reloaded_report.component_ranking == original_report.component_ranking

    def test_reloaded_baseline_healthy_against_healthy(self, fd, model):
        restored = model_from_dict(model_to_dict(model))
        current = fd.model(capture(seed=17), assess=False)
        assert fd.diff(restored, current).healthy


class TestPortEventsPersistence:
    def test_port_events_round_trip(self, fd):
        from repro.faults import SwitchFailure

        scenario = three_tier_lab(seed=3)
        scenario.inject(SwitchFailure("ofs5"), at=5.0)
        log = scenario.run(0.5, DURATION)
        model = fd.model(log, assess=False)
        assert model.infrastructure.port_down_events
        restored = model_from_dict(model_to_dict(model))
        assert (
            restored.infrastructure.port_down_events
            == model.infrastructure.port_down_events
        )
        assert "ofs5" in restored.infrastructure.corroborated_dead_switches()


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

    def test_truncated_signature_payload(self, model, tmp_path):
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


def test_config_fingerprint_ignores_execution_knobs():
    base = FlowDiffConfig()
    assert config_fingerprint(base) == config_fingerprint(FlowDiffConfig(jobs=8))
    changed = FlowDiffConfig(signature=SignatureConfig(occurrence_gap=2.0))
    assert config_fingerprint(base) != config_fingerprint(changed)


class TestModelObjects:
    """Baselines stored under their own digest, as checkpoints name them."""

    def test_store_then_load_round_trips(self, model, tmp_path):
        root = str(tmp_path / "ckpt")  # created on first store
        digest = store_model_object(root, model)
        assert digest == model_digest(model)
        assert [p.name for p in (tmp_path / "ckpt").iterdir()] == [
            f"{digest}.model.json"
        ]
        restored = load_model_object(root, digest)
        assert model_to_dict(restored) == model_to_dict(model)
        # Content-addressed: the reloaded model stores onto the same object.
        assert store_model_object(root, restored) == digest

    def test_absent_object_is_none(self, tmp_path):
        assert load_model_object(str(tmp_path), "0" * 64) is None

    def test_corrupt_object_is_none_with_a_warning(self, model, tmp_path):
        root = str(tmp_path)
        digest = store_model_object(root, model)
        with open(model_object_path(root, digest), "w", encoding="utf-8") as fh:
            fh.write("not json at all")
        with pytest.warns(UserWarning, match="unreadable stored model"):
            assert load_model_object(root, digest) is None
