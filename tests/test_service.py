"""Tests for the streaming FlowDiff service (:mod:`repro.service`).

The load-bearing property is *equivalence*: a window the daemon buffered
and closed must produce a diagnosis report dict-identical to the batch
:class:`SlidingDiagnoser` modeling the same window of the capture,
whether the window arrived clean (status ``merged``) or not
(``fallback``). Everything else — checkpoint
resume, tenant isolation, backpressure accounting, the HTTP surface —
rides on top of that.
"""

import glob
import json
import os
import shutil
import threading
import time
import types
import urllib.error
import urllib.request
from urllib.parse import parse_qs

import pytest

from repro.cli import main
from repro.core import flowdiff
from repro.core.events import extract_flow_records
from repro.core.flowdiff import FlowDiffConfig
from repro.core.groups import extract_groups
from repro.core.monitor import SlidingDiagnoser
from repro.core.persist import model_digest
from repro.core.signatures.application import SignatureConfig
from repro.faults import LinkLoss
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import EchoRequest, FlowMod, FlowRemoved, PacketIn
from repro.scenarios import three_tier_lab
from repro.service import (
    STATUS_FALLBACK,
    STATUS_MERGED,
    FileTailSource,
    IncrementalWindow,
    ServiceState,
    StreamService,
    TenantPipeline,
    create_server,
    replay_messages,
)
from repro.openflow.serialize import save_log

pytestmark = pytest.mark.slow

WINDOW = 10.0
#: Long enough that the lab's healthy traffic models as stable; a 10s
#: baseline still flags its own noise as congestion.
BASELINE = 15.0


def lab_log(fault_at=None, total=40.0):
    scenario = three_tier_lab(seed=3)
    if fault_at is not None:
        scenario.inject(LinkLoss([("ofs1", "ofs5")], loss_rate=0.3), at=fault_at)
    return scenario.run(0.5, total, drain=5.0)


@pytest.fixture(scope="module")
def healthy_log():
    return lab_log()


@pytest.fixture(scope="module")
def faulty_log():
    # Loss on the core link turns on at t=20: windows past it degrade.
    return lab_log(fault_at=20.0)


def batch_reference(log, window=WINDOW, baseline=BASELINE):
    """The batch monitor's window reports over the same capture."""
    diagnoser = SlidingDiagnoser(window=window)
    t_first, _ = log.time_span
    diagnoser.set_baseline(log, t_first, t_first + baseline)
    diagnoser.advance(log)
    return diagnoser.history


def stream_through(log, batch_size=500, **kwargs):
    """Feed the capture through a fresh tenant pipeline in small batches."""
    registry = kwargs.pop("metrics", MetricsRegistry())
    kwargs.setdefault("baseline_span", BASELINE)
    tenant = TenantPipeline(
        "t1", window=WINDOW, metrics=registry, **kwargs
    )
    messages = list(log)
    for start in range(0, len(messages), batch_size):
        tenant.ingest(messages[start : start + batch_size])
    return tenant, registry


def assert_histories_identical(streamed, reference):
    """Every streamed window must be dict-identical to the batch one."""
    assert streamed, "the service must close at least one window"
    assert len(streamed) <= len(reference)
    for svc, ref in zip(streamed, reference):
        assert (svc.t_start, svc.t_end) == (ref.t_start, ref.t_end)
        assert svc.report.to_dict() == ref.report.to_dict()


def run_for_at_most(seconds, fn, *args):
    """Run ``fn`` in a daemon thread; fail if it has not returned in time."""
    worker = threading.Thread(target=fn, args=args, daemon=True)
    worker.start()
    worker.join(timeout=seconds)
    assert not worker.is_alive(), f"{fn.__qualname__} never returned"


class TestIncrementalEquivalence:
    def test_healthy_capture_matches_batch(self, healthy_log):
        tenant, registry = stream_through(healthy_log)
        assert_histories_identical(tenant.history, batch_reference(healthy_log))
        # Every window arrived clean.
        assert tenant.status_counts == {STATUS_MERGED: tenant.windows_total}
        assert registry.value(
            "service_window_merge_total", tenant="t1", status=STATUS_MERGED
        ) == tenant.windows_total
        assert all(entry.healthy for entry in tenant.history)

    def test_faulted_capture_matches_batch(self, faulty_log):
        tenant, _ = stream_through(faulty_log)
        reference = batch_reference(faulty_log)
        assert_histories_identical(tenant.history, reference)
        assert tenant.status_counts == {STATUS_MERGED: tenant.windows_total}
        # The link-loss onset is visible to both paths identically.
        assert any(not entry.healthy for entry in tenant.history)

    def test_out_of_order_window_falls_back_identically(self, healthy_log):
        messages = list(healthy_log)
        # Swap two strictly-ordered messages inside one post-baseline
        # window so exactly that window goes dirty; equivalence must
        # still hold because closing a window sorts its buffer.
        t_first, _ = healthy_log.time_span
        lo = t_first + BASELINE + 2.0
        idx = next(
            i for i, msg in enumerate(messages) if msg.timestamp > lo
        )
        jdx = next(
            j
            for j in range(idx + 1, len(messages))
            if lo < messages[j].timestamp < lo + WINDOW / 2
            and messages[j].timestamp > messages[idx].timestamp
        )
        messages[idx], messages[jdx] = messages[jdx], messages[idx]
        registry = MetricsRegistry()
        tenant = TenantPipeline(
            "t1", window=WINDOW, baseline_span=BASELINE, metrics=registry
        )
        tenant.ingest(messages)
        assert tenant.status_counts.get(STATUS_FALLBACK, 0) >= 1
        assert_histories_identical(tenant.history, batch_reference(healthy_log))

    def test_regrouping_windows_match_batch(self):
        """A group appears, joins another and splits off again, one window
        each: a window whose grouping differs from its predecessor's used
        to take a close path of its own (status ``rebuilt``) that no test
        drove; there is one close path now and it must equal batch."""
        edges_by_window = [
            (("a", "b"),),  # baseline span [1, 5)
            (("a", "b"),),
            (("a", "b"), ("c", "d")),  # a second group appears
            (("a", "b"), ("b", "c"), ("c", "d")),  # the two become one
            (("a", "b"), ("c", "d")),  # and split again
            (("a", "b"),),  # only here to close the window before it
        ]
        messages = []
        for w, edges in enumerate(edges_by_window):
            for step in range(8):
                src, dst = edges[step % len(edges)]
                i = len(messages) // 2
                key = FlowKey(src, dst, 1000 + i, 80)
                ts = 1.0 + 4.0 * w + 0.5 * step
                messages.append(
                    PacketIn(timestamp=ts, dpid="sw1", flow=key, in_port=1, buffer_id=i)
                )
                messages.append(
                    FlowMod(
                        timestamp=ts + 0.001,
                        dpid="sw1",
                        match=Match.exact(key),
                        out_port=2,
                        in_reply_to=i,
                    )
                )
        log = ControllerLog(messages)
        groupings = [
            [
                group.key
                for group in extract_groups(
                    [r.arrival for r in extract_flow_records(log.window(lo, lo + 4.0))]
                )
            ]
            for lo in (5.0, 9.0, 13.0, 17.0)
        ]
        assert groupings == [["a|b"], ["a|b", "c|d"], ["a|b|c|d"], ["a|b", "c|d"]]

        tenant = TenantPipeline("t1", window=4.0, baseline_span=4.0)
        tenant.ingest(messages)
        assert tenant.status_counts == {STATUS_MERGED: 4}
        reference = batch_reference(log, window=4.0, baseline=4.0)
        assert len(reference) == 4
        assert_histories_identical(tenant.history, reference)

    def test_late_flowmod_reply_window_is_merged_and_matches_batch(self):
        """A ``FlowMod`` answering a ``PacketIn`` 4 s later, in timestamp
        order: the window used to go ``fallback`` (``late_flowmod_reply``,
        which only protected the slice fold). It arrived clean, so it is
        ``merged`` now, and still equal to batch."""
        messages = []
        for i in range(42):
            src, dst = (("a", "b"), ("b", "c"))[i % 2]
            key = FlowKey(src, dst, 1000 + i, 80)
            ts = 1.0 + i
            # Buffer 21 (t=22) sits in the window [21, 31).
            reply_at = ts + (4.0 if i == 21 else 0.001)
            messages.append(
                PacketIn(timestamp=ts, dpid="sw1", flow=key, in_port=1, buffer_id=i)
            )
            messages.append(
                FlowMod(
                    timestamp=reply_at,
                    dpid="sw1",
                    match=Match.exact(key),
                    out_port=2,
                    in_reply_to=i,
                )
            )
        messages.sort(key=lambda msg: msg.timestamp)
        log = ControllerLog(messages)
        tenant = TenantPipeline("t1", window=WINDOW, baseline_span=WINDOW)
        tenant.ingest(messages)
        assert tenant.status_counts == {STATUS_MERGED: 3}
        reference = batch_reference(log, window=WINDOW, baseline=WINDOW)
        assert len(reference) == 3
        assert_histories_identical(tenant.history, reference)

    def test_out_of_order_window_closes_as_fallback(self):
        """``close()`` models a dirty window too (it used to return
        ``None`` and leave the remodel to the tenant)."""
        key = FlowKey("a", "b", 1000, 80)
        early = PacketIn(timestamp=1.0, dpid="sw1", flow=key, in_port=1, buffer_id=1)
        late = PacketIn(timestamp=2.0, dpid="sw2", flow=key, in_port=1, buffer_id=2)
        dirty = IncrementalWindow(0.0, 10.0, SignatureConfig())
        clean = IncrementalWindow(0.0, 10.0, SignatureConfig())
        for msg in (late, early):
            dirty.add(msg)
        for msg in (early, late):
            clean.add(msg)
        assert dirty.dirty == "out_of_order" and clean.dirty is None
        got, want = dirty.close(), clean.close()
        assert (got.status, want.status) == (STATUS_FALLBACK, STATUS_MERGED)
        assert got.model == want.model
        assert list(got.log) == [early, late]

    def test_far_future_message_is_one_empty_window(self, healthy_log):
        """One message 1e4 s after the capture used to make ingest close
        and diagnose ~1,000 empty windows. The first empty window is still
        diagnosed; the rest are skipped and counted, as in batch."""
        t_first, last = healthy_log.time_span
        far = EchoRequest(timestamp=t_first + 1e4, dpid="s1")
        messages = list(healthy_log) + [far]
        registry = MetricsRegistry()
        tenant = TenantPipeline(
            "t1", window=WINDOW, baseline_span=BASELINE, metrics=registry
        )
        run_for_at_most(60.0, tenant.ingest, messages)
        reference = batch_reference(ControllerLog(messages))
        assert len(tenant.history) == len(reference)
        assert_histories_identical(tenant.history, reference)
        quiet = tenant.history[-1]
        assert quiet.t_start - WINDOW <= last < quiet.t_start
        skipped = registry.value("monitor_windows_skipped_total", tenant="t1")
        assert skipped == (far.timestamp - quiet.t_end) // WINDOW > 900
        cursor = tenant.view.summary["cursor"]
        assert cursor == quiet.t_end + skipped * WINDOW
        assert cursor <= far.timestamp < cursor + WINDOW

    def test_both_loops_count_every_model(self, healthy_log):
        """The daemon's window models went uncounted (a metric-less
        ``FlowDiff`` built them): batch read 4 here, the tenant 1."""
        batch = MetricsRegistry()
        diagnoser = SlidingDiagnoser(window=WINDOW, metrics=batch)
        t_first, _ = healthy_log.time_span
        diagnoser.set_baseline(healthy_log, t_first, t_first + BASELINE)
        diagnoser.advance(healthy_log)
        tenant, streamed = stream_through(healthy_log)
        assert len(tenant.history) == len(diagnoser.history) >= 2
        models = batch.value("flowdiff_models_total")
        assert models == len(diagnoser.history) + 1
        assert streamed.value("flowdiff_models_total", tenant="t1") == models

    def test_single_batch_and_tiny_batches_agree(self, healthy_log):
        one, _ = stream_through(healthy_log, batch_size=10 ** 9)
        tiny, _ = stream_through(healthy_log, batch_size=7)
        assert len(one.history) == len(tiny.history)
        for a, b in zip(one.history, tiny.history):
            assert a.report.to_dict() == b.report.to_dict()


class TestUnplaceableTimestamps:
    """A line at ``ts = 1e18``, where ``t + 10 == t`` in floats, wedged
    ``repro monitor``. Now it is one counted drop in either loop and the
    history is that of the capture without it."""

    def test_batch_drops_it_once(self, healthy_log):
        t_first, _ = healthy_log.time_span
        clean = batch_reference(healthy_log)
        metrics = MetricsRegistry()
        diagnoser = SlidingDiagnoser(window=WINDOW, metrics=metrics)
        diagnoser.set_baseline(healthy_log, t_first, t_first + BASELINE)
        log = ControllerLog(list(healthy_log) + [EchoRequest(timestamp=1e18, dpid="s1")])
        run_for_at_most(60.0, diagnoser.advance, log)
        assert_histories_identical(diagnoser.history, clean)
        assert len(diagnoser.history) == len(clean)

        def dropped():
            return metrics.value("monitor_dropped_total", reason="ts_precision")

        assert dropped() == diagnoser.dropped == 1
        # Advancing again over a grown log counts only what is new.
        diagnoser.advance(log)
        assert dropped() == 1
        log.append(EchoRequest(timestamp=1e17, dpid="s1"))
        diagnoser.advance(log)
        assert dropped() == 2

    def test_tenant_drops_it_once(self, healthy_log):
        clean, _ = stream_through(healthy_log)
        registry = MetricsRegistry()
        tenant = TenantPipeline(
            "t1", window=WINDOW, baseline_span=BASELINE, metrics=registry
        )
        messages = list(healthy_log) + [EchoRequest(timestamp=1e18, dpid="s1")]
        run_for_at_most(60.0, tenant.ingest, messages)
        assert tenant.windows_total == clean.windows_total
        assert tenant.status_counts == clean.status_counts
        assert_histories_identical(tenant.history, clean.history)
        assert registry.value(
            "service_dropped_total", tenant="t1", reason="ts_precision"
        ) == 1
        assert tenant.view.summary["cursor"] == clean.view.summary["cursor"]

    def test_tenant_never_learns_a_baseline_from_it(self, healthy_log):
        registry = MetricsRegistry()
        tenant = TenantPipeline(
            "t1", window=WINDOW, baseline_span=BASELINE, metrics=registry
        )
        far = EchoRequest(timestamp=1e18, dpid="s1")
        tenant.ingest([far] + list(healthy_log))
        clean, _ = stream_through(healthy_log)
        assert_histories_identical(tenant.history, clean.history)
        assert registry.value(
            "service_dropped_total", tenant="t1", reason="ts_precision"
        ) == 1


class TestCheckpointRestore:
    def test_restart_resumes_and_reports_match(self, faulty_log, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        uninterrupted, _ = stream_through(faulty_log)
        messages = list(faulty_log)
        # Kill mid-stream, after at least one window has closed and
        # while another is open.
        t_first, _ = faulty_log.time_span
        cut = t_first + BASELINE + 1.5 * WINDOW
        split = next(
            i for i, msg in enumerate(messages) if msg.timestamp >= cut
        )
        registry = MetricsRegistry()
        first = TenantPipeline(
            "t1",
            window=WINDOW,
            baseline_span=BASELINE,
            metrics=registry,
            checkpoint_dir=ckpt,
        )
        first.ingest(messages[:split])
        assert first.windows_total >= 1
        assert registry.value("service_checkpoints_total", tenant="t1") >= 1

        # A new pipeline on the same directory resumes at the cursor; the
        # full stream is replayed from the start, as a restarted tail
        # would, and already-diagnosed spans are skipped.
        second = TenantPipeline(
            "t1",
            window=WINDOW,
            baseline_span=BASELINE,
            metrics=registry,
            checkpoint_dir=ckpt,
        )
        assert second.resumed
        assert second.phase == "streaming"
        second.ingest(messages)
        assert registry.value("service_resume_skipped_total", tenant="t1") > 0

        combined = first.history + second.history
        assert len(combined) == len(uninterrupted.history)
        for resumed, straight in zip(combined, uninterrupted.history):
            assert (resumed.t_start, resumed.t_end) == (
                straight.t_start,
                straight.t_end,
            )
            assert resumed.report.to_dict() == straight.report.to_dict()

    @staticmethod
    def _checkpointed(log, ckpt):
        """Run a pipeline over ``log`` so ``ckpt`` holds its checkpoint;
        returns the checkpoint path and its decoded state."""
        first = TenantPipeline(
            "t1", window=WINDOW, baseline_span=BASELINE, checkpoint_dir=ckpt
        )
        first.ingest(list(log))
        assert first.windows_total >= 1
        with open(first.checkpoint_path, encoding="utf-8") as fh:
            return first.checkpoint_path, json.load(fh)

    @staticmethod
    def _assert_cold_start_matches_fresh(log, ckpt, config=None):
        """A pipeline over ``ckpt`` must ignore it, relearn the baseline
        and close the same windows a checkpoint-less pipeline does."""
        cold = TenantPipeline(
            "t1",
            config,
            window=WINDOW,
            baseline_span=BASELINE,
            checkpoint_dir=ckpt,
        )
        assert cold.resumed is False
        assert cold.phase == "baseline"
        cold.ingest(list(log))
        fresh, _ = stream_through(log, config=config)
        assert len(cold.history) == len(fresh.history)
        assert_histories_identical(cold.history, fresh.history)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("cursor", None),
            ("cursor", float("inf")),
            ("baseline_digest", "0" * 64),
        ],
        ids=["garbled-cursor", "infinite-cursor", "missing-baseline-object"],
    )
    def test_unusable_checkpoint_field_cold_starts(
        self, healthy_log, tmp_path, field, value
    ):
        ckpt = str(tmp_path / "ckpt")
        path, state = self._checkpointed(healthy_log, ckpt)
        state[field] = value
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(state, fh)
        self._assert_cold_start_matches_fresh(healthy_log, ckpt)

    def test_changed_special_nodes_cold_starts(self, healthy_log, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        self._checkpointed(healthy_log, ckpt)
        config = FlowDiffConfig(
            signature=SignatureConfig(special_nodes=("S1",))
        )
        self._assert_cold_start_matches_fresh(healthy_log, ckpt, config)
        # An unchanged config over the (now rewritten) checkpoint resumes.
        again = TenantPipeline(
            "t1",
            config,
            window=WINDOW,
            baseline_span=BASELINE,
            checkpoint_dir=ckpt,
        )
        assert again.resumed

    def test_restart_after_reanchor_resumes_against_the_live_baseline(
        self, healthy_log, tmp_path
    ):
        """A checkpoint names the baseline the stream diffs against *now*
        (it used to name the first one learned, for ever), and the object
        a re-anchor supersedes does not stay behind."""
        ckpt = str(tmp_path / "ckpt")
        settings = dict(window=WINDOW, baseline_span=BASELINE, rebaseline_after=1)
        uninterrupted = TenantPipeline("t1", **settings)
        messages = list(healthy_log)
        uninterrupted.ingest(messages)
        assert uninterrupted.stream.rebaseline_count >= 2

        t_first, _ = healthy_log.time_span
        cut = t_first + BASELINE + 1.5 * WINDOW
        split = next(i for i, msg in enumerate(messages) if msg.timestamp >= cut)
        first = TenantPipeline("t1", checkpoint_dir=ckpt, **settings)
        first.ingest(messages[:split])
        assert first.stream.rebaseline_count == 1

        second = TenantPipeline("t1", checkpoint_dir=ckpt, **settings)
        assert second.resumed
        live = model_digest(first.stream.baseline)
        assert model_digest(second.stream.baseline) == live
        assert [os.path.basename(p) for p in glob.glob(f"{ckpt}/*.model.json")] == [
            f"{live}.model.json"
        ]
        second.ingest(messages)
        assert model_digest(second.stream.baseline) == model_digest(
            uninterrupted.stream.baseline
        )
        combined = first.history + second.history
        assert len(combined) == len(uninterrupted.history)
        assert_histories_identical(combined, uninterrupted.history)
        assert len(glob.glob(f"{ckpt}/*.model.json")) == 1

    def test_checkpoint_written_by_the_parent_commit_resumes(self, tmp_path):
        """``tests/data/parent_checkpoint`` was written by commit e78009f,
        whose tenant stored its baseline through a cache class that is
        gone (window 4 s, baseline 4 s, the stream below up to t=14): same
        file names, same envelope, so it must still resume."""
        ckpt = str(tmp_path / "ckpt")
        shutil.copytree(
            os.path.join(os.path.dirname(__file__), "data", "parent_checkpoint"), ckpt
        )
        with open(os.path.join(ckpt, "checkpoint-t1.json"), encoding="utf-8") as fh:
            state = json.load(fh)
        messages = []
        for i in range(24):
            src, dst = (("a", "b"), ("b", "c"))[i % 2]
            key = FlowKey(src, dst, 1000 + i, 80)
            ts = 1.0 + i
            messages.append(
                PacketIn(timestamp=ts, dpid="sw1", flow=key, in_port=1, buffer_id=i)
            )
            messages.append(
                FlowMod(
                    timestamp=ts + 0.001,
                    dpid="sw1",
                    match=Match.exact(key),
                    out_port=2,
                    in_reply_to=i,
                )
            )
        uninterrupted = TenantPipeline("t1", window=4.0, baseline_span=4.0)
        uninterrupted.ingest(messages)

        resumed = TenantPipeline(
            "t1", window=4.0, baseline_span=4.0, checkpoint_dir=ckpt
        )
        assert resumed.resumed is True
        assert resumed.view.summary["cursor"] == state["cursor"] == 13.0
        assert model_digest(resumed.stream.baseline) == state["baseline_digest"]
        assert model_digest(uninterrupted.stream.baseline) == state["baseline_digest"]
        resumed.ingest(messages)
        assert resumed.windows_total == uninterrupted.windows_total == 4
        assert_histories_identical(
            resumed.history, uninterrupted.history[state["windows_total"] :]
        )

    def test_cold_start_when_no_checkpoint_exists(self, tmp_path):
        tenant = TenantPipeline(
            "fresh", window=WINDOW, checkpoint_dir=str(tmp_path / "empty")
        )
        assert not tenant.resumed
        assert tenant.phase == "baseline"

    def test_resume_can_be_disabled(self, healthy_log, tmp_path):
        ckpt = str(tmp_path / "ckpt")
        first = TenantPipeline("t1", window=WINDOW, checkpoint_dir=ckpt)
        first.ingest(list(healthy_log))
        again = TenantPipeline(
            "t1", window=WINDOW, checkpoint_dir=ckpt, resume=False
        )
        assert not again.resumed
        assert again.phase == "baseline"


class TestTenantIsolation:
    def test_tenants_diagnose_independently(self, healthy_log, faulty_log):
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("steady")
        service.add_tenant("broken")
        with service:
            replay_messages(service, "steady", list(healthy_log))
            replay_messages(service, "broken", list(faulty_log))
            service.drain()
        steady = service.tenants["steady"]
        broken = service.tenants["broken"]
        assert all(entry.healthy for entry in steady.history)
        assert any(not entry.healthy for entry in broken.history)
        assert steady.view.summary["worst_severity"] is None
        assert broken.view.summary["worst_severity"] == "critical"
        # Shared registry, tenant-labeled instruments: both visible.
        assert service.metrics.value(
            "service_windows_total", tenant="steady"
        ) == steady.windows_total
        assert service.metrics.value(
            "service_windows_total", tenant="broken"
        ) == broken.windows_total

    def test_every_tenant_series_carries_its_tenant(self, healthy_log, faulty_log):
        """Two tenants on one registry used to add into one unlabelled
        ``flowdiff_models_total`` and one set of ``monitor_*`` series."""
        registry = MetricsRegistry()
        tenants = {
            name: TenantPipeline(
                name, window=WINDOW, baseline_span=BASELINE, metrics=registry
            )
            for name in ("steady", "broken")
        }
        tenants["steady"].ingest(list(healthy_log))
        tenants["broken"].ingest(list(faulty_log))
        models = [registry.value("flowdiff_models_total", tenant=name) for name in tenants]
        assert all(models) and sum(models) == registry.total("flowdiff_models_total")
        for name, tenant in tenants.items():
            assert tenant.windows_total >= 1
            assert (
                registry.value("monitor_windows_total", tenant=name)
                == registry.value("service_windows_total", tenant=name)
                == tenant.windows_total
            )
        unlabelled = [m.name for m in registry if "tenant" not in dict(m.labels)]
        assert unlabelled == []

    def test_tenant_alerts_reach_prometheus(self, faulty_log):
        """``add_tenant`` used to build each alert engine without a
        registry, so no ``alerts_*`` series reached ``/metrics``."""
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("X")
        with service:
            replay_messages(service, "X", list(faulty_log))
            service.drain()
        fired = len(service.tenants["X"].alert_engine.alerts)
        assert fired >= 1
        counts = [
            float(line.split()[-1])
            for line in render_prometheus(service.metrics).splitlines()
            if line.startswith("alerts_total{") and 'tenant="X"' in line
        ]
        assert counts and sum(counts) == fired

    def test_duplicate_tenant_is_rejected(self):
        service = StreamService()
        service.add_tenant("a")
        with pytest.raises(ValueError):
            service.add_tenant("a")

    def test_unknown_tenant_feed_raises(self, healthy_log):
        service = StreamService()
        with pytest.raises(KeyError):
            service.feed("ghost", list(healthy_log)[:5])


    def test_null_match_expiry_does_not_wedge_the_tenant(self, healthy_log):
        """A ``flow_removed`` with ``"match": null`` on an on-path switch
        made the close of its window raise before the next window opened,
        so every later batch raised again and no window closed."""
        messages = list(healthy_log)
        t_first, _ = healthy_log.time_span
        # Late in the first diagnosed window: the flows before it expire
        # only in the next window, so its switch's wildcard scan reads it.
        at = t_first + BASELINE + WINDOW - 0.5
        cut = next(i for i, msg in enumerate(messages) if msg.timestamp > at)
        flowless = FlowRemoved(
            timestamp=at, dpid="ofs1", match=None, duration=1.0, byte_count=500, packet_count=1
        )

        def serve(capture):
            service = StreamService(window=WINDOW, baseline_span=BASELINE)
            service.add_tenant("t1")
            with service:
                replay_messages(service, "t1", capture)
                service.drain()
            return service

        want = serve(messages)
        got = serve(messages[:cut] + [flowless] + messages[cut:])
        assert got.metrics.value("service_ingest_errors_total", tenant="t1") == 0
        assert got.errors == []
        tenant, clean = got.tenants["t1"], want.tenants["t1"]
        assert tenant.windows_total == clean.windows_total >= 2
        assert tenant.status_counts == clean.status_counts
        assert_histories_identical(tenant.history, clean.history)


    def test_a_close_that_raises_drops_only_its_window(self, healthy_log, monkeypatch):
        """A window whose close raised used to stay open: every later batch
        closed it again and raised again, so no later window closed. Now
        the window is dropped, counted, and the tenant moves on."""
        messages = list(healthy_log)

        def serve():
            service = StreamService(window=WINDOW / 2, baseline_span=BASELINE)
            service.add_tenant("t1")
            with service:
                replay_messages(service, "t1", messages, batch_size=500)
                service.drain()
            return service

        clean = serve().tenants["t1"]
        assert len(clean.history) >= 3
        dropped = clean.history[1]
        marker = next(m for m in messages if m.timestamp >= dropped.t_start)
        extract = flowdiff.extract_flow_records

        def failing_extract(log, occurrence_gap):
            if any(m is marker for m in log):
                raise RuntimeError("injected close failure")
            return extract(log, occurrence_gap)

        monkeypatch.setattr(flowdiff, "extract_flow_records", failing_extract)
        got = serve()
        tenant = got.tenants["t1"]
        kept = [entry for entry in clean.history if entry is not dropped]
        assert [(e.t_start, e.t_end) for e in tenant.history] == [
            (e.t_start, e.t_end) for e in kept
        ]
        assert_histories_identical(tenant.history, kept)
        assert tenant.windows_total == clean.windows_total - 1
        assert sum(tenant.status_counts.values()) == tenant.windows_total
        in_window = sum(
            1 for m in messages if dropped.t_start <= m.timestamp < dropped.t_end
        )
        assert got.metrics.value(
            "service_dropped_total", tenant="t1", reason="close_error"
        ) == in_window
        assert got.metrics.value("service_ingest_errors_total", tenant="t1") == 0
        assert got.errors == []

    def test_a_baseline_learn_that_raises_is_dropped_and_relearned(self, healthy_log):
        """A ``packet_in`` with a null dpid, fed in-process (so no decoder
        rejects it) inside the baseline span, made the learn raise on every
        later batch: no window ever closed and the tenant stayed in
        ``baseline``. Now the span is dropped, counted, and the tenant
        learns afresh from the next message."""
        messages = list(healthy_log)
        t_first, _ = healthy_log.time_span
        at = next(
            i for i, m in enumerate(messages) if isinstance(m, PacketIn) and m.flow is not None
        )
        poisoned = PacketIn(
            timestamp=messages[at].timestamp, dpid=None, flow=messages[at].flow, buffer_id=-1
        )
        relearn = next(
            i for i, m in enumerate(messages) if m.timestamp >= t_first + BASELINE
        )

        def serve(capture):
            service = StreamService(window=WINDOW / 2, baseline_span=BASELINE)
            service.add_tenant("t1")
            with service:
                replay_messages(service, "t1", capture, batch_size=200)
                service.drain()
            return service

        got = serve(messages[: at + 1] + [poisoned] + messages[at + 1 :])
        want = serve(messages[relearn:]).tenants["t1"]
        tenant = got.tenants["t1"]
        assert got.metrics.value("service_ingest_errors_total", tenant="t1") == 0
        assert got.errors == []
        assert got.metrics.value(
            "service_dropped_total", tenant="t1", reason="close_error"
        ) == relearn + 1
        assert tenant.phase == "streaming"
        assert tenant.windows_total == want.windows_total >= 2
        assert tenant.status_counts == want.status_counts
        assert_histories_identical(tenant.history, want.history)


class TestPublishedView:
    def test_every_view_describes_one_moment(self, faulty_log):
        """What HTTP reads is one published view: its summary, its rows
        and its alerts agree with each other after every batch."""
        tenant = TenantPipeline(
            "t1",
            window=WINDOW,
            baseline_span=BASELINE,
            alert_engine=AlertEngine(default_rules()),
        )
        views = [tenant.view]
        messages = list(faulty_log)
        for start in range(0, len(messages), 300):
            tenant.ingest(messages[start : start + 300])
            views.append(tenant.view)
        assert views[-1].history and views[-1].alerts
        for view in views:
            summary, rows = view.summary, view.history
            assert isinstance(rows, tuple) and isinstance(view.alerts, tuple)
            assert summary["windows"] == len(rows)
            assert summary["alerts"] == len(view.alerts)
            if rows:
                assert summary["phase"] == "streaming"
                assert summary["last_window"] == [rows[-1]["t_start"], rows[-1]["t_end"]]
            else:
                assert summary["last_window"] is None
        assert [row["t_end"] for row in views[-1].history] == [
            entry.t_end for entry in tenant.history
        ]
        assert len(views[-1].trace) == len(tenant.trace_ring)

    def test_view_keeps_the_newest_rows(self, faulty_log):
        """``history`` and ``alerts`` are capped at ``history_limit``;
        the summary still counts every window and alert."""
        engine = AlertEngine(default_rules())
        tenant, _ = stream_through(faulty_log, history_limit=1, alert_engine=engine)
        view = tenant.view
        assert tenant.windows_total > 1 and len(engine.alerts) > 1
        assert [row["t_end"] for row in view.history] == [
            entry.t_end for entry in tenant.history
        ]
        (last,) = view.history
        assert view.summary["windows"] == tenant.windows_total
        assert view.summary["last_window"] == [last["t_start"], last["t_end"]]
        assert list(view.alerts) == [{**engine.alerts[-1].to_dict(), "tenant": "t1"}]
        assert view.summary["alerts"] == len(engine.alerts)
        assert view.summary["worst_severity"] == str(engine.worst_severity())


class TestBackpressure:
    def test_nonblocking_feed_drops_with_accounting(self, healthy_log):
        # The drain thread is never started, so the queue fills and the
        # overflow batch must be dropped — counted, not buffered.
        service = StreamService(window=WINDOW, max_pending=2)
        service.add_tenant("t1")
        batch = list(healthy_log)[:100]
        accepted = []
        for _ in range(4):
            accepted.append(service.feed("t1", batch, block=False))
        assert accepted[:2] == [100, 100]
        assert accepted[2:] == [0, 0]
        assert (
            service.metrics.value(
                "service_dropped_total", tenant="t1", reason="backpressure"
            )
            == 200
        )
        assert service.metrics.value("service_queue_depth") == 200

    def test_blocking_feed_waits_for_room(self, healthy_log):
        service = StreamService(window=WINDOW, max_pending=1)
        service.add_tenant("t1")
        batch = list(healthy_log)[:50]
        service.feed("t1", batch)  # fills the queue
        done = threading.Event()

        def second_feed():
            service.feed("t1", batch)  # must block until the drain runs
            done.set()

        feeder = threading.Thread(target=second_feed, daemon=True)
        feeder.start()
        assert not done.wait(0.2), "feed should block while the queue is full"
        service.start()
        assert done.wait(5.0), "feed should complete once draining starts"
        service.stop()
        assert service.metrics.total("service_dropped_total") == 0


class TestLifecycle:
    def test_stop_that_times_out_keeps_the_drain_thread(self, healthy_log):
        """``stop()`` used to forget a drain thread its join timed out on,
        so the next ``start()`` ran a second one beside it: two threads
        owning the same tenants. A stop asked twice of a stuck thread must
        not stop the thread started after it either."""
        service = StreamService(window=WINDOW)
        tenant = service.add_tenant("t1")
        entered, release = threading.Event(), threading.Event()

        def stuck_ingest(batch):
            entered.set()
            release.wait(30.0)
            return []

        real_ingest, tenant.ingest = tenant.ingest, stuck_ingest
        service.start()
        drain = service._thread
        real_join = drain.join
        drain.join = lambda timeout=None: real_join(0.05)
        try:
            service.feed("t1", list(healthy_log)[:10])
            assert entered.wait(5.0)
            for _ in range(2):
                with pytest.raises(RuntimeError, match="still running"):
                    service.stop(drain=False)
            running = [t for t in threading.enumerate() if t.name == drain.name]
            service.start()
            assert service._thread is drain
            assert [t for t in threading.enumerate() if t.name == drain.name] == running
        finally:
            release.set()
            real_join(5.0)
        assert not drain.is_alive()
        service.stop()
        assert service._thread is None
        tenant.ingest = real_ingest
        service.start()
        service.feed("t1", list(healthy_log)[:10])
        run_for_at_most(5.0, service.drain)
        assert service._thread.is_alive()
        assert service.metrics.value("service_queue_depth") == 0
        service.stop()


    def test_stop_with_a_full_queue_under_a_stuck_thread_raises(self, healthy_log):
        """``stop(drain=False)`` used to put its stop request with no
        timeout: with the queue full and the drain thread stuck, it
        blocked forever before its bounded join."""
        service = StreamService(window=WINDOW, max_pending=1)
        tenant = service.add_tenant("t1")
        entered, release = threading.Event(), threading.Event()

        def stuck_ingest(batch):
            entered.set()
            release.wait(30.0)
            return []

        real_ingest, tenant.ingest = tenant.ingest, stuck_ingest
        service.start()
        drain = service._thread
        real_put, timeouts = service._queue.put, []

        def short_put(item, block=True, timeout=None):
            timeouts.append(timeout)
            return real_put(item, block, None if timeout is None else 0.05)

        batch = list(healthy_log)[:10]
        raised = []

        def stop():
            try:
                service.stop(drain=False)
            except RuntimeError as exc:
                raised.append(exc)

        try:
            service.feed("t1", batch)
            assert entered.wait(5.0)
            service.feed("t1", batch)  # the queue is full now
            service._queue.put = short_put
            run_for_at_most(5.0, stop)
            assert timeouts == [30.0]
            assert len(raised) == 1 and "not queued" in str(raised[0])
            assert service._thread is drain
        finally:
            service._queue.put = real_put
            release.set()
        tenant.ingest = real_ingest
        run_for_at_most(5.0, service.stop)
        assert not drain.is_alive() and service._thread is None
        assert service.metrics.value("service_queue_depth") == 0


class TestDaemonSources:
    def test_file_tail_drives_diagnosis(self, faulty_log, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        save_log(faulty_log, path)
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("t1")
        with service:
            source = FileTailSource(service, "t1", path)
            source.start()
            source.join(timeout=60.0)
            service.drain()
        tenant = service.tenants["t1"]
        assert tenant.windows_total >= 2
        assert tenant.status_counts.get(STATUS_MERGED, 0) >= 2
        assert tenant.view.summary["worst_severity"] == "critical"

    def test_undecodable_lines_are_counted_not_fatal(self, healthy_log, tmp_path):
        """Bad lines in the *middle* of a capture are counted and skipped:
        every message after them still arrives (valid JSON that is not an
        object used to kill the tail thread)."""
        path = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, path)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        bad = [
            b"this is not json\n",
            b'{"type": "unknown_kind"}\n',
            b"42\n",
            b"null\n",
            b'"x"\n',
            b"[]\n",
            b'{"type": "packet_in", "ts": 1.0, "dpid": "sw1", "flow": 7}\n',
            b'{"type": "flow_mod", "ts": 1.0, "dpid": "sw1", "match": [7]}\n',
            lines[0].rstrip(b"\n") + b" trailing\n",
            # Not UTF-8 (used to kill the tail thread: 0 windows, 0 counted).
            lines[0][:20] + b"\xff\xfe" + lines[0][20:],
        ]
        with open(path, "wb") as fh:
            fh.writelines(lines[:10] + bad + [b"\n"] + lines[10:])
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("t1")
        with service:
            source = FileTailSource(service, "t1", path)
            source.start()
            source.join(timeout=60.0)
            assert not source._thread.is_alive()
            service.drain()
        assert (
            service.metrics.value(
                "service_dropped_total", tenant="t1", reason="decode"
            )
            == len(bad)
        )
        assert (
            service.metrics.value("service_ingest_messages_total", tenant="t1")
            == len(lines)
        )
        assert service.tenants["t1"].windows_total >= 1

    def test_non_finite_ts_line_is_one_decode_drop(self, healthy_log, tmp_path):
        """A ``"ts": Infinity`` line after the baseline used to decode,
        and the tenant then closed empty windows for ever."""

        class Recorder:  # the two things a tail asks of its service
            def __init__(self):
                self.metrics = MetricsRegistry()
                self.batches = []

            def feed(self, tenant, batch):
                self.batches.append(batch)

        clean = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, clean)
        with open(clean, "rb") as fh:
            lines = fh.readlines()
        t_first, _ = healthy_log.time_span
        cut = next(
            i for i, msg in enumerate(healthy_log) if msg.timestamp >= t_first + BASELINE
        )
        spliced = str(tmp_path / "spliced.jsonl")
        with open(spliced, "wb") as fh:
            fh.writelines(
                lines[:cut] + [b'{"type": "echo", "ts": Infinity, "dpid": "s1"}\n'] + lines[cut:]
            )

        def serve(path):
            recorder = Recorder()
            FileTailSource(recorder, "t1", path).run()
            tenant = TenantPipeline("t1", window=WINDOW, baseline_span=BASELINE)
            worker = threading.Thread(
                target=lambda: [tenant.ingest(batch) for batch in recorder.batches],
                daemon=True,
            )
            worker.start()
            worker.join(timeout=60.0)
            assert not worker.is_alive(), "ingest never returned"
            drops = recorder.metrics.value("service_dropped_total", tenant="t1", reason="decode")
            return tenant, drops

        want, clean_drops = serve(clean)
        got, drops = serve(spliced)
        assert (clean_drops, drops) == (0, 1)
        assert got.windows_total == want.windows_total >= 1
        assert got.status_counts == want.status_counts
        assert_histories_identical(got.history, want.history)

    def test_field_types_modeling_cannot_take_are_decode_drops(self, healthy_log, tmp_path):
        """A non-string ``dpid``, an array/object reply id or a non-numeric
        expiry counter used to reach the tenant, where modeling raised
        ``TypeError``."""

        class Recorder:  # the two things a tail asks of its service
            def __init__(self):
                self.metrics = MetricsRegistry()
                self.batches = []

            def feed(self, tenant, batch):
                self.batches.append(batch)

        path = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, path)
        with open(path, "rb") as fh:
            lines = fh.readlines()
        pin = b'{"type": "packet_in", "ts": 1.0, "dpid": %s, "flow": null, "buffer_id": %s}\n'
        bad = [
            pin % (b"null", b"1"),
            pin % (b"7", b"1"),
            pin % (b'["ofs1"]', b"1"),
            pin % (b'"ofs1"', b"[1]"),
            b'{"type": "flow_mod", "ts": 1.0, "dpid": "ofs1", "match": null,'
            b' "in_reply_to": {"id": 1}}\n',
            b'{"type": "flow_removed", "ts": 1.0, "dpid": "ofs1", "match": null, "bytes": "x"}\n',
        ]
        with open(path, "wb") as fh:
            fh.writelines(lines[:10] + bad + lines[10:])
        recorder = Recorder()
        FileTailSource(recorder, "t1", path).run()
        assert recorder.metrics.value(
            "service_dropped_total", tenant="t1", reason="decode"
        ) == len(bad)
        assert sum(len(batch) for batch in recorder.batches) == len(lines)

    def test_flow_fields_modeling_cannot_take_lose_no_window(self, healthy_log, tmp_path):
        """A ``packet_in`` whose ``flow.src`` is a number used to decode, and
        the close of its window raised ``TypeError`` sorting the flows: the
        whole window was a ``close_error``. So could a ``"corr": [1]``."""
        clean = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, clean)
        with open(clean, encoding="utf-8") as fh:
            lines = fh.readlines()
        t_first, _ = healthy_log.time_span
        cut = next(
            i for i, msg in enumerate(healthy_log) if msg.timestamp > t_first + BASELINE + 2.0
        )
        record = json.loads(next(text for text in lines[cut:] if '"packet_in"' in text))
        numbered = json.loads(json.dumps(record))
        numbered["flow"]["src"] = 5
        listed = dict(record, corr=[1])
        spliced = str(tmp_path / "spliced.jsonl")
        with open(spliced, "w", encoding="utf-8") as fh:
            fh.writelines(
                lines[:cut] + [json.dumps(numbered) + "\n", json.dumps(listed) + "\n"] + lines[cut:]
            )

        def serve(path):
            service = StreamService(window=WINDOW, baseline_span=BASELINE)
            service.add_tenant("t1")
            with service:
                source = FileTailSource(service, "t1", path)
                source.start()
                source.join(timeout=60.0)
                assert not source._thread.is_alive()
                service.drain()
            return service

        want, got = serve(clean), serve(spliced)
        assert got.metrics.value("service_dropped_total", tenant="t1", reason="decode") == 2
        assert not got.metrics.value("service_dropped_total", tenant="t1", reason="close_error")
        tenant, reference = got.tenants["t1"], want.tenants["t1"]
        assert tenant.windows_total == reference.windows_total >= 2
        assert tenant.status_counts == reference.status_counts
        assert_histories_identical(tenant.history, reference.history)

    def test_tail_shares_five_tuples_per_batch_and_keeps_none(self, healthy_log, tmp_path):
        """The follow-mode leak guard, by count: the decoder's table never
        outgrows one batch and is empty after the last hand-off."""
        path = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, path)
        batch_size = 64

        class Recorder:  # the two things a tail asks of its service
            def __init__(self):
                self.metrics = MetricsRegistry()
                self.batches = []
                self.shared = []

            def feed(self, tenant, batch):
                self.batches.append(batch)
                self.shared.append(len(source._decoder))

        recorder = Recorder()
        source = FileTailSource(recorder, "t1", path, batch_size=batch_size)
        source.run()
        assert sum(len(batch) for batch in recorder.batches) == len(healthy_log)
        assert len(source._decoder) == 0
        assert 0 < max(recorder.shared) <= batch_size
        for batch in recorder.batches:
            keys = [m.flow for m in batch if hasattr(m, "flow")]
            keys += [m.match for m in batch if hasattr(m, "match")]
            assert len({id(key) for key in keys}) == len(set(keys))
        distinct = {m.flow for batch in recorder.batches for m in batch if hasattr(m, "flow")}
        assert len(distinct) > batch_size  # a table that never forgot would show

    def test_follow_carries_a_half_written_line(self, healthy_log, tmp_path):
        """A record the producer is still writing reaches the tenant
        whole once its newline lands — neither half is decoded alone."""
        path = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()[:10]
        torn = lines[5]
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:5])
            fh.write(torn[: len(torn) // 2])
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("t1")
        ingested = service.metrics.counter(
            "service_ingest_messages_total", tenant="t1"
        )

        def wait_for(count):
            deadline = time.monotonic() + 30.0
            while ingested.value < count and time.monotonic() < deadline:
                time.sleep(0.01)
            service.drain()
            return ingested.value

        with service:
            source = FileTailSource(
                service, "t1", path, follow=True, poll_interval=0.01
            )
            source.start()
            assert wait_for(5) == 5  # the fragment is held back, not fed
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(torn[len(torn) // 2 :])
                fh.writelines(lines[6:])
            assert wait_for(10) == 10
            source.stop()
            source.join(timeout=10.0)
            assert not source._thread.is_alive()
        assert service.metrics.total("service_dropped_total") == 0

    def test_unterminated_last_line_is_read_at_eof(self, healthy_log, tmp_path):
        path = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, path)
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()[:3]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(lines).rstrip("\n"))
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("t1")
        with service:
            FileTailSource(service, "t1", path).run()
            service.drain()
        assert (
            service.metrics.value("service_ingest_messages_total", tenant="t1")
            == 3
        )
        assert service.metrics.total("service_dropped_total") == 0


class TestServeCommand:
    @pytest.mark.parametrize("follow", [[], ["--follow"]], ids=["replay", "follow"])
    def test_unopenable_capture_exits_2_naming_tenant_and_path(
        self, tmp_path, capsys, follow
    ):
        """It used to print a tail-thread traceback, report "0 windows"
        and exit 0."""
        missing = str(tmp_path / "missing.jsonl")
        code = main(["serve", "--tenants", f"prod={missing}", "--serve-for", "0"] + follow)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""  # nothing was started: no endpoint banner
        (line,) = captured.err.splitlines()
        assert "'prod'" in line and missing in line and "No such file" in line


    def test_tails_are_joined_before_the_service_stops(
        self, healthy_log, tmp_path, monkeypatch
    ):
        """A tail hands off its last partial batch as it exits. ``repro
        serve`` used to stop the service without joining its tails, so
        that batch could land after the drain thread had stopped: lost,
        uncounted, with ``service_queue_depth`` stuck above 0."""
        import repro.service

        capture = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, capture)
        last = list(healthy_log)[:25]
        services, tails = [], []

        class Recorded(StreamService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        class LateTail(FileTailSource):
            def run(self):
                tails.append(self)
                self._stop.wait(30.0)
                time.sleep(0.3)  # still handing off when stop() returns
                self._hand_off(list(last))

        monkeypatch.setattr(repro.service, "StreamService", Recorded)
        monkeypatch.setattr(repro.service, "FileTailSource", LateTail)
        argv = ["serve", "--tenants", f"prod={capture}", "--follow"]
        assert main(argv + ["--serve-for", "0", "--listen", "127.0.0.1:0"]) == 0
        for tail in tails:
            tail.join(5.0)
            assert not tail._thread.is_alive()
        (service,) = services
        assert service.metrics.value("service_queue_depth") == 0
        assert service.metrics.value(
            "service_ingest_messages_total", tenant="prod"
        ) == len(last)

    def test_tail_still_running_after_its_join_is_reported(
        self, healthy_log, tmp_path, monkeypatch, capsys
    ):
        """A tail that outlived its bounded join used to have the service
        stopped under it, so its last batch could still be lost. Now
        ``repro serve`` names the tail, leaves the service running and
        exits 1."""
        import repro.service

        capture = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, capture)
        last = list(healthy_log)[:25]
        services, tails = [], []
        release = threading.Event()

        class Recorded(StreamService):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                services.append(self)

        class StuckTail(FileTailSource):
            def run(self):
                tails.append(self)
                release.wait(30.0)
                self._hand_off(list(last))

            def join(self, timeout=None):
                return super().join(None if timeout is None else 0.05)

        monkeypatch.setattr(repro.service, "StreamService", Recorded)
        monkeypatch.setattr(repro.service, "FileTailSource", StuckTail)
        argv = ["serve", "--tenants", f"prod={capture}", "--follow"]
        try:
            assert main(argv + ["--serve-for", "0", "--listen", "127.0.0.1:0"]) == 1
            assert "tail(s) prod still running" in capsys.readouterr().err
            (service,) = services
            assert service._thread is not None and service._thread.is_alive()
        finally:
            release.set()
        (tail,) = tails
        assert tail.join(5.0)
        run_for_at_most(5.0, service.drain)
        service.stop()
        assert service.metrics.value("service_queue_depth") == 0
        assert service.metrics.value(
            "service_ingest_messages_total", tenant="prod"
        ) == len(last)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--tenants", "prod={capture}", "--window", "0"],
            ["serve", "--tenants", "prod={capture}", "--baseline", "-3"],
            ["monitor", "{capture}", "--window", "0"],
            ["monitor", "{capture}", "--baseline", "-3"],
        ],
        ids=["serve-window", "serve-baseline", "monitor-window", "monitor-baseline"],
    )
    def test_non_positive_span_exits_2_in_one_line(
        self, healthy_log, tmp_path, capsys, argv
    ):
        """A zero window used to be a ``ValueError`` traceback (exit 1);
        a negative baseline was accepted, learned an empty model and
        alarmed ``critical`` on every window."""
        capture = str(tmp_path / "capture.jsonl")
        save_log(healthy_log, capture)
        with pytest.raises(SystemExit) as refused:
            main([arg.format(capture=capture) for arg in argv])
        captured = capsys.readouterr()
        assert refused.value.code == 2
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {argv[0]}: {argv[-2]} must be positive")


def _get(url):
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _get_error(url):
    try:
        urllib.request.urlopen(url)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode("utf-8"))
    raise AssertionError(f"expected an HTTP error from {url}")


class TestHTTPSurface:
    @pytest.fixture(scope="class")
    def served(self, faulty_log):
        service = StreamService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("prod")
        service.add_tenant("idle")
        with service:
            replay_messages(service, "prod", list(faulty_log))
            service.drain()
        server = create_server(service)
        server.start()
        yield service, server
        server.stop()

    def test_healthz_carries_tenant_rows(self, served):
        _, server = served
        payload = _get(server.url("/healthz"))
        assert payload["status"] == "ok"
        assert payload["tenants"]["prod"]["windows"] >= 2
        assert payload["tenants"]["idle"]["phase"] == "baseline"

    def test_tenants_page_lists_everyone(self, served):
        _, server = served
        payload = _get(server.url("/tenants"))
        names = {row["tenant"] for row in payload["tenants"]}
        assert names == {"prod", "idle"}

    def test_diff_returns_recent_reports(self, served):
        service, server = served
        payload = _get(server.url("/diff?tenant=prod&n=2"))
        assert payload["tenant"] == "prod"
        assert len(payload["windows"]) == 2
        live = service.tenants["prod"].history[-2:]
        assert payload["windows"][0]["report"] == live[0].report.to_dict()
        assert payload["windows"][-1]["healthy"] == live[-1].healthy

    def test_diff_requires_tenant_when_ambiguous(self, served):
        _, server = served
        code, payload = _get_error(server.url("/diff"))
        assert code == 400
        assert payload["tenants"] == ["idle", "prod"]

    def test_unknown_tenant_is_404(self, served):
        _, server = served
        code, _ = _get_error(server.url("/diff?tenant=nope"))
        assert code == 404

    def test_routes_read_views_only(self, served):
        """Every page is built from ``views()``, ``metrics``, ``errors``
        and ``config`` alone: over a stand-in with nothing else, a route
        that reached a tenant pipeline would raise."""
        service, _ = served
        views = service.views()
        stand_in = types.SimpleNamespace(
            views=lambda: views,
            metrics=service.metrics,
            errors=service.errors,
            config=service.config,
        )
        real, narrow = ServiceState(service), ServiceState(stand_in)
        for page in (
            "/tenants",
            "/healthz",
            "/alerts",
            "/diff?tenant=prod&n=2",
            "/traces?tenant=prod&limit=3",
        ):
            path, _, query = page.partition("?")
            want = real.routes[path](parse_qs(query))
            assert narrow.routes[path](parse_qs(query)) == want
            assert want[0] == 200 and want[1]

    def test_alerts_are_tenant_labeled_and_ordered(self, served):
        _, server = served
        alerts = _get(server.url("/alerts"))
        assert alerts, "the faulted tenant must have fired alerts"
        assert {row["tenant"] for row in alerts} == {"prod"}
        stamps = [row["timestamp"] or 0.0 for row in alerts]
        assert stamps == sorted(stamps)

    def test_traces_reconstruct_from_the_ring(self, served):
        _, server = served
        payload = _get(server.url("/traces?tenant=prod&limit=5"))
        assert payload["chains"] > 0
        assert len(payload["timelines"]) == 5

    def test_traces_build_only_the_chains_they_return(self, served, monkeypatch):
        """One chain for ``corr=``, at most ``limit`` for a listing (with or
        without ``flow=``) — the ring's other chains are counted, not built."""
        from repro.obs import flightrec

        built = []
        real = flightrec._build_timeline
        monkeypatch.setattr(
            flightrec,
            "_build_timeline",
            lambda corr_id, *rest: built.append(corr_id) or real(corr_id, *rest),
        )
        _, server = served
        listing = _get(server.url("/traces?tenant=prod&limit=2"))
        assert listing["chains"] > 2 and len(listing["timelines"]) == 2
        assert len(built) == 2
        corr_id = listing["timelines"][1]["corr_id"]
        flow = listing["timelines"][1]["flow"]
        del built[:]
        one = _get(server.url(f"/traces?tenant=prod&corr={corr_id}"))
        assert [t["corr_id"] for t in one["timelines"]] == [corr_id]
        assert one["timelines"][0] == listing["timelines"][1]
        assert built == [corr_id]
        del built[:]
        host = flow.split(":")[0]
        by_flow = _get(server.url(f"/traces?tenant=prod&flow={host}&limit=1"))
        assert by_flow["chains"] >= 1 and len(by_flow["timelines"]) == 1
        assert host in by_flow["timelines"][0]["flow"]
        assert len(built) == 1
        mismatch = _get(server.url(f"/traces?tenant=prod&corr={corr_id}&flow=nobody"))
        assert mismatch["chains"] == 0

    def test_metrics_exports_service_family(self, served):
        _, server = served
        with urllib.request.urlopen(server.url("/metrics")) as resp:
            text = resp.read().decode("utf-8")
        assert 'service_windows_total{tenant="prod"}' in text
        assert "service_queue_depth" in text
