"""Streaming alerts over closed diagnosis windows.

Every window a :class:`~repro.core.monitor.DiagnosisStream` closes (in
``repro monitor`` and ``repro serve`` alike) is handed to an
:class:`AlertEngine`, which runs it through its rules the moment the
verdict exists instead of waiting for someone to read a report. A rule
sees one input, the closed :class:`WindowReport`, and overrides one hook,
:meth:`AlertRule.observe_window`. The stock rules:

* :class:`UnhealthyWindowsRule` — ``n`` consecutive diagnoser windows
  reported unexplained changes (the paper's "compare against a stable,
  correct behavior" loop, alarmed);
* :class:`ProblemClassRule` — a specific inferred problem class (e.g.
  ``network_disconnectivity``, ``unauthorized_access``) appeared.

The engine adds the operational layer: severity levels, per-(rule, labels)
dedup with a cooldown so a sustained fault does not page once per window,
JSONL export for pipelines, and counters in a
:class:`~repro.obs.metrics.MetricsRegistry` so alert volume itself is
scrape-able via the Prometheus renderer.

Alert timestamps are *stream* timestamps (the window end in
simulation/capture time), never wall clock, so alerts align with the log
they were derived from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    TextIO,
    Tuple,
    Union,
)

from repro.obs.export import write_rows
from repro.obs.metrics import NOOP_REGISTRY, Counter, MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (monitor imports obs)
    from repro.core.monitor import WindowReport


class Severity(enum.IntEnum):
    """Alert severity; comparable (CRITICAL > WARNING > INFO)."""

    INFO = 0
    WARNING = 1
    CRITICAL = 2

    def __str__(self) -> str:
        return self.name.lower()


@dataclass(frozen=True)
class Alert:
    """One fired alert.

    Attributes:
        rule: name of the rule that fired.
        severity: alert severity.
        timestamp: stream time (the window end), not wall clock.
        message: operator-facing description.
        value: the observation that tripped the rule.
        labels: extra dimensions (streak, problem class, ...).
    """

    rule: str
    severity: Severity
    timestamp: float
    message: str
    value: float = 0.0
    labels: Tuple[Tuple[str, str], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "alert",
            "rule": self.rule,
            "severity": str(self.severity),
            "timestamp": self.timestamp,
            "message": self.message,
            "value": self.value,
            "labels": dict(self.labels),
        }


class AlertRule:
    """Base rule: subclasses override :meth:`observe_window`.

    Attributes:
        name: rule identity (used for dedup).
        severity: severity of alerts this rule emits.
        cooldown: seconds of stream time after a firing during which the
            same (rule, labels) pair stays silent. 0 disables dedup.
    """

    def __init__(
        self, name: str, severity: Severity = Severity.WARNING, cooldown: float = 0.0
    ) -> None:
        self.name = name
        self.severity = severity
        self.cooldown = cooldown

    def observe_window(self, report: "WindowReport") -> List[Alert]:
        """React to one diagnoser window; return alerts to fire."""
        return []

    def _alert(
        self,
        at: float,
        message: str,
        value: float = 0.0,
        **labels: str,
    ) -> Alert:
        return Alert(
            rule=self.name,
            severity=self.severity,
            timestamp=at,
            message=message,
            value=value,
            labels=tuple(sorted((k, str(v)) for k, v in labels.items())),
        )


class UnhealthyWindowsRule(AlertRule):
    """Fire after ``n`` consecutive unhealthy diagnoser windows."""

    def __init__(
        self,
        consecutive: int = 1,
        severity: Severity = Severity.WARNING,
        cooldown: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if consecutive < 1:
            raise ValueError(f"consecutive must be >= 1, got {consecutive}")
        super().__init__(
            name or f"unhealthy-windows:{consecutive}", severity, cooldown
        )
        self.consecutive = consecutive
        self._streak = 0

    def observe_window(self, report: "WindowReport") -> List[Alert]:
        if report.healthy:
            self._streak = 0
            return []
        self._streak += 1
        if self._streak < self.consecutive:
            return []
        changes = len(report.report.unknown_changes)
        return [
            self._alert(
                report.t_end,
                f"{self._streak} consecutive unhealthy window(s); "
                f"{changes} unexplained change(s) in "
                f"[{report.t_start:g}, {report.t_end:g})s",
                value=float(changes),
                streak=str(self._streak),
            )
        ]


class ProblemClassRule(AlertRule):
    """Fire when the diagnoser infers a specific problem class.

    Args:
        problems: classes that alert; None means any inferred problem.
    """

    def __init__(
        self,
        problems: Optional[Iterable[str]] = None,
        severity: Severity = Severity.CRITICAL,
        cooldown: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or "problem-class", severity, cooldown)
        self.problems = frozenset(problems) if problems is not None else None

    def observe_window(self, report: "WindowReport") -> List[Alert]:
        fired = []
        for inference in report.report.problems:
            if self.problems is not None and inference.problem not in self.problems:
                continue
            suspects = ", ".join(
                c for c, _ in report.report.component_ranking[:3]
            )
            fired.append(
                self._alert(
                    report.t_end,
                    f"inferred {inference.problem} "
                    f"(score {inference.score:.2f}; suspects: {suspects or 'n/a'})",
                    value=inference.score,
                    problem=inference.problem,
                )
            )
        return fired


def default_rules(
    consecutive_critical: int = 3, cooldown: float = 0.0
) -> List[AlertRule]:
    """The stock rule set ``repro monitor`` uses.

    One WARNING on any unhealthy window, an escalation to CRITICAL when
    the condition persists, and a CRITICAL per inferred problem class.
    """
    return [
        UnhealthyWindowsRule(1, severity=Severity.WARNING, cooldown=cooldown),
        UnhealthyWindowsRule(
            consecutive_critical, severity=Severity.CRITICAL, cooldown=cooldown
        ),
        ProblemClassRule(cooldown=cooldown),
    ]


class AlertEngine:
    """Evaluate rules over the stream of closed windows, with dedup and export.

    Args:
        rules: the rule set (may be extended later via :meth:`add_rule`).
        metrics: registry receiving ``alerts_total{rule=,severity=}``
            counters and the ``alerts_last_fired_timestamp`` gauge, so
            alert volume rides the normal Prometheus/JSONL export path.
    """

    def __init__(
        self,
        rules: Optional[Iterable[AlertRule]] = None,
        metrics: MetricsRegistry = NOOP_REGISTRY,
    ) -> None:
        self.rules: List[AlertRule] = list(rules or [])
        self.alerts: List[Alert] = []
        self.suppressed = 0
        self.metrics = metrics
        self._m_last = metrics.gauge("alerts_last_fired_timestamp")
        self._m_by_rule: Dict[Tuple[str, str], Counter] = {}
        self._last_fired: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}

    def add_rule(self, rule: AlertRule) -> None:
        self.rules.append(rule)

    # -- stream inputs --------------------------------------------------

    def observe_window(self, report: "WindowReport") -> List[Alert]:
        """Feed one diagnoser window through every rule."""
        fired: List[Alert] = []
        for rule in self.rules:
            for alert in rule.observe_window(report):
                fired.extend(self._admit(rule, alert))
        return fired

    # -- dedup / bookkeeping --------------------------------------------

    def _admit(self, rule: AlertRule, alert: Alert) -> List[Alert]:
        key = (alert.rule, alert.labels)
        if rule.cooldown > 0:
            last = self._last_fired.get(key)
            if last is not None and alert.timestamp - last < rule.cooldown:
                self.suppressed += 1
                return []
        self._last_fired[key] = alert.timestamp
        self.alerts.append(alert)
        counter_key = (alert.rule, str(alert.severity))
        counter = self._m_by_rule.get(counter_key)
        if counter is None:
            counter = self.metrics.counter(
                "alerts_total", rule=alert.rule, severity=str(alert.severity)
            )
            self._m_by_rule[counter_key] = counter
        counter.inc()
        self._m_last.set(alert.timestamp)
        return [alert]

    # -- introspection / export -----------------------------------------

    def worst_severity(self) -> Optional[Severity]:
        return max((a.severity for a in self.alerts), default=None)

    def first_alert_at(self) -> Optional[float]:
        """Earliest alert timestamp — detection-delay measurements."""
        return min((a.timestamp for a in self.alerts), default=None)

    def write_jsonl(self, destination: Union[str, TextIO]) -> int:
        """Append-friendly JSONL export of every fired alert."""
        return write_rows(destination, (a.to_dict() for a in self.alerts))
