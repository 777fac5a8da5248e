"""Tests for the sliding-window diagnoser and JSON report export."""

import json

import pytest

from repro.core.monitor import SlidingDiagnoser
from repro.faults import LoggingMisconfig
from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.messages import EchoRequest
from repro.scenarios import three_tier_lab

pytestmark = pytest.mark.slow


def long_run_log(fault_at=None, total=90.0):
    scenario = three_tier_lab(seed=3)
    if fault_at is not None:
        scenario.inject(LoggingMisconfig("S3", overhead=0.05), at=fault_at)
    return scenario.run(0.5, total, drain=10.0)


@pytest.fixture(scope="module")
def healthy_log():
    return long_run_log()


@pytest.fixture(scope="module")
def faulty_log():
    # Fault turns on at t=60: windows after that should flag DD shifts.
    return long_run_log(fault_at=60.0)


class TestSlidingDiagnoser:
    def test_requires_baseline(self, healthy_log):
        diagnoser = SlidingDiagnoser(window=20.0)
        with pytest.raises(RuntimeError):
            diagnoser.advance(healthy_log)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            SlidingDiagnoser(window=0.0)

    def test_healthy_log_stays_healthy(self, healthy_log):
        diagnoser = SlidingDiagnoser(window=20.0)
        diagnoser.set_baseline(healthy_log, 0.0, 30.0)
        reports = diagnoser.advance(healthy_log)
        assert reports  # at least [30, 50) and [50, 70)
        assert all(r.healthy for r in reports)
        assert diagnoser.healthy_streak() == len(reports)
        assert diagnoser.first_unhealthy() is None

    def test_detects_onset_window(self, faulty_log):
        diagnoser = SlidingDiagnoser(window=15.0)
        diagnoser.set_baseline(faulty_log, 0.0, 30.0)
        diagnoser.advance(faulty_log)
        first_bad = diagnoser.first_unhealthy()
        assert first_bad is not None
        # The fault starts at t=60; the first unhealthy window must cover
        # or follow it, and pre-fault windows must stay clean.
        assert first_bad.t_end > 60.0
        for entry in diagnoser.history:
            if entry.t_end <= 60.0:
                assert entry.healthy, f"false alarm in window [{entry.t_start}, {entry.t_end})"

    def test_problem_onset_lookup(self, faulty_log):
        diagnoser = SlidingDiagnoser(window=15.0)
        diagnoser.set_baseline(faulty_log, 0.0, 30.0)
        diagnoser.advance(faulty_log)
        onset = diagnoser.problem_onset("application_performance")
        fallback = diagnoser.problem_onset("host_or_app_problem")
        assert (onset is not None and onset >= 45.0) or (
            fallback is not None and fallback >= 45.0
        )
        assert diagnoser.problem_onset("switch_failure") is None

    def test_advance_is_incremental(self, healthy_log):
        diagnoser = SlidingDiagnoser(window=20.0)
        diagnoser.set_baseline(healthy_log, 0.0, 30.0)
        first = diagnoser.advance(healthy_log)
        again = diagnoser.advance(healthy_log)
        assert first
        assert again == []  # no new complete windows


class TestQuietRuns:
    """A run of empty windows is diagnosed once: its first window closes as
    usual, then the cursor jumps to the window holding the next message."""

    def diagnose(self, log):
        metrics = MetricsRegistry()
        diagnoser = SlidingDiagnoser(window=20.0, metrics=metrics)
        diagnoser.set_baseline(log, 0.0, 30.0)
        diagnoser.advance(log)
        spans = [(e.t_start, e.t_end) for e in diagnoser.history]
        assert spans[0][0] == 30.0
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        return diagnoser, metrics

    def test_far_future_message_is_one_empty_window(self, healthy_log):
        """One message 1e4 s on used to cost ~500 diagnosed empty windows."""
        _, last = healthy_log.time_span
        far = EchoRequest(timestamp=1e4, dpid="s1")
        log = ControllerLog(list(healthy_log) + [far])
        diagnoser, metrics = self.diagnose(log)
        quiet = diagnoser.history[-1]
        assert quiet.t_start - 20.0 <= last < quiet.t_start
        skipped = metrics.value("monitor_windows_skipped_total")
        assert skipped == (far.timestamp - quiet.t_end) // 20.0 > 400
        assert metrics.value("monitor_windows_total") == len(diagnoser.history)
        # The cursor sits on the window that holds ``far``.
        start = quiet.t_end + skipped * 20.0
        log.append(EchoRequest(timestamp=start + 25.0, dpid="s1"))
        (held,) = diagnoser.advance(log)
        assert (held.t_start, held.t_end) == (start, start + 20.0)
        assert held.t_start <= far.timestamp < held.t_end

    def test_one_empty_window_is_diagnosed_as_before(self, healthy_log):
        _, last = healthy_log.time_span
        cell = 30.0 + 20.0 * ((last - 30.0) // 20.0)  # the window holding ``last``
        log = ControllerLog(
            list(healthy_log) + [EchoRequest(timestamp=cell + 45.0, dpid="s1")]
        )
        diagnoser, metrics = self.diagnose(log)
        assert diagnoser.history[-1].t_start == cell + 20.0
        assert metrics.value("monitor_windows_skipped_total") == 0


class TestReportJSON:
    def test_json_round_trip(self, faulty_log):
        from repro import FlowDiff

        fd = FlowDiff()
        baseline = fd.model(faulty_log.window(0.0, 30.0))
        current = fd.model(faulty_log.window(65.0, 95.0), assess=False)
        report = fd.diff(baseline, current)
        data = json.loads(report.to_json())
        assert data["healthy"] is False
        assert data["unknown_changes"]
        assert data["unknown_changes"][0]["kind"] == "DD"
        assert any(
            item["component"] == "S3" for item in data["component_ranking"]
        )
        assert len(data["dependency"]) == 5  # app-kind rows

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.cli import main
        from repro.openflow.serialize import save_log

        baseline = str(tmp_path / "l1.jsonl")
        save_log(long_run_log(total=20.0), baseline)
        assert main(["diff", baseline, baseline, "--json"]) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["healthy"] is True


class TestAutoRebaseline:
    def test_rebaseline_fires_after_streak(self, healthy_log):
        diagnoser = SlidingDiagnoser(window=15.0, rebaseline_after=2)
        diagnoser.set_baseline(healthy_log, 0.0, 30.0)
        diagnoser.advance(healthy_log)
        assert diagnoser.rebaseline_count >= 1
        # Still healthy after re-anchoring.
        assert all(r.healthy for r in diagnoser.history)

    def test_disabled_by_default(self, healthy_log):
        diagnoser = SlidingDiagnoser(window=15.0)
        diagnoser.set_baseline(healthy_log, 0.0, 30.0)
        diagnoser.advance(healthy_log)
        assert diagnoser.rebaseline_count == 0

    def test_unhealthy_window_blocks_rebaseline(self, faulty_log):
        diagnoser = SlidingDiagnoser(window=15.0, rebaseline_after=1)
        diagnoser.set_baseline(faulty_log, 0.0, 30.0)
        diagnoser.advance(faulty_log)
        # Windows after the fault are unhealthy and must never become the
        # baseline: the last report must remain unhealthy.
        assert not diagnoser.history[-1].healthy
