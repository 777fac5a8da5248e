"""Tests for the streaming alert engine (``repro.obs.alerts``)."""

import io
import json
from types import SimpleNamespace

import pytest

from repro.core.monitor import SlidingDiagnoser
from repro.faults.network import LinkFailure
from repro.faults.unauthorized import UnauthorizedAccess
from repro.obs.alerts import (
    AlertEngine,
    ProblemClassRule,
    Severity,
    UnhealthyWindowsRule,
    default_rules,
)
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.scenarios import three_tier_lab


def _window(t0, t1, healthy, problems=()):
    """A minimal WindowReport stand-in (duck-typed by the rules)."""
    report = SimpleNamespace(
        unknown_changes=() if healthy else ("change",),
        problems=tuple(SimpleNamespace(problem=p, score=1.0) for p in problems),
        component_ranking=(),
    )
    return SimpleNamespace(t_start=t0, t_end=t1, report=report, healthy=healthy)


class TestUnhealthyWindowsRule:
    def test_streak_resets_on_healthy(self):
        rule = UnhealthyWindowsRule(consecutive=2)
        assert rule.observe_window(_window(0, 30, healthy=False)) == []
        assert rule.observe_window(_window(30, 60, healthy=True)) == []
        assert rule.observe_window(_window(60, 90, healthy=False)) == []
        fired = rule.observe_window(_window(90, 120, healthy=False))
        assert len(fired) == 1
        assert fired[0].timestamp == 120  # the window end

    def test_invalid_consecutive(self):
        with pytest.raises(ValueError, match="consecutive"):
            UnhealthyWindowsRule(consecutive=0)


class TestEngineDedupAndExport:
    def test_cooldown_suppresses_repeats(self):
        engine = AlertEngine([ProblemClassRule(cooldown=10.0)])
        assert engine.observe_window(_window(0, 10, False, ["p"]))
        assert engine.observe_window(_window(10, 15, False, ["p"])) == []  # within cooldown
        assert engine.suppressed == 1
        assert engine.observe_window(_window(15, 20, False, ["p"]))  # cooldown elapsed
        assert len(engine.alerts) == 2

    def test_distinct_labels_not_deduped(self):
        engine = AlertEngine([ProblemClassRule(cooldown=100.0)])
        assert len(engine.observe_window(_window(0, 10, False, ["a", "b"]))) == 2
        assert len(engine.alerts) == 2 and engine.suppressed == 0

    def test_alert_counters_reach_prometheus(self):
        metrics = MetricsRegistry()
        engine = AlertEngine([ProblemClassRule()], metrics=metrics)
        engine.observe_window(_window(0, 3, False, ["p"]))
        engine.observe_window(_window(3, 4, False, ["p"]))
        text = render_prometheus(metrics)
        assert 'alerts_total{rule="problem-class",severity="critical"} 2' in text
        assert "alerts_last_fired_timestamp 4" in text

    def test_severity_queries(self):
        engine = AlertEngine(
            [
                UnhealthyWindowsRule(1, severity=Severity.WARNING),
                UnhealthyWindowsRule(2, severity=Severity.CRITICAL),
            ]
        )
        assert engine.worst_severity() is None and engine.first_alert_at() is None
        engine.observe_window(_window(0, 7, False))
        engine.observe_window(_window(7, 14, False))
        assert [a.severity for a in engine.alerts] == [
            Severity.WARNING, Severity.WARNING, Severity.CRITICAL,
        ]
        assert engine.worst_severity() == Severity.CRITICAL
        assert engine.first_alert_at() == 7.0

    def test_jsonl_round_trip(self):
        engine = AlertEngine([ProblemClassRule()])
        engine.observe_window(_window(0, 1.5, False, ["p"]))
        buf = io.StringIO()
        assert engine.write_jsonl(buf) == 1
        back = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert back == [a.to_dict() for a in engine.alerts]
        assert back[0]["timestamp"] == 1.5 and back[0]["labels"] == {"problem": "p"}


@pytest.fixture(scope="module")
def healthy_log():
    return three_tier_lab(seed=3).run(0.5, 120.0)


def _monitor(log, rules=None, window=30.0):
    engine = AlertEngine(rules if rules is not None else default_rules())
    diagnoser = SlidingDiagnoser(window=window, alert_engine=engine)
    t0, _ = log.time_span
    diagnoser.set_baseline(log, t0, t0 + window)
    diagnoser.advance(log)
    return diagnoser, engine


@pytest.mark.slow
class TestDiagnoserIntegration:
    def test_healthy_run_never_alerts(self, healthy_log):
        diagnoser, engine = _monitor(healthy_log)
        assert len(diagnoser.history) >= 2
        assert engine.alerts == []
        assert diagnoser.alerts == []

    def test_link_failure_alerts_within_one_window(self):
        """Acceptance: an alert inside the first window after the fault."""
        fault_at = 70.0
        scenario = three_tier_lab(seed=3)
        scenario.inject(LinkFailure("ofs1", "ofs3"), at=fault_at)
        log = scenario.run(0.5, 130.0)
        _, engine = _monitor(log, window=30.0)
        assert engine.alerts
        first = engine.first_alert_at()
        assert fault_at <= first <= fault_at + 30.0
        assert engine.worst_severity() == Severity.CRITICAL

    def test_unauthorized_flow_alerts_within_one_window(self):
        """Acceptance: the intruder trips an alert in its own window."""
        fault_at = 70.0
        scenario = three_tier_lab(seed=3)
        scenario.inject(
            UnauthorizedAccess("S22", ["S8"], dst_port=22), at=fault_at
        )
        log = scenario.run(0.5, 130.0)
        _, engine = _monitor(log, window=30.0)
        assert engine.alerts
        first = engine.first_alert_at()
        assert fault_at <= first <= fault_at + 30.0
        problems = {
            dict(a.labels).get("problem")
            for a in engine.alerts
            if a.rule == "problem-class"
        }
        assert "unauthorized_access" in problems

    def test_problem_class_rule_filters(self):
        fault_at = 70.0
        scenario = three_tier_lab(seed=3)
        scenario.inject(LinkFailure("ofs1", "ofs3"), at=fault_at)
        log = scenario.run(0.5, 130.0)
        _, engine = _monitor(
            log, rules=[ProblemClassRule(problems=["unauthorized_access"])]
        )
        assert engine.alerts == []  # a link failure is not an intrusion
