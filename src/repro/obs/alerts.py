"""Streaming alerts over sliding-diagnoser windows and metric series.

The :class:`~repro.core.monitor.SlidingDiagnoser` turns a live capture
into a stream of :class:`WindowReport`-shaped verdicts; this module turns
that stream (plus any metric time series) into operator alerts the moment
the diagnoser goes unhealthy, instead of waiting for someone to read a
report. Rules are deliberately simple and composable:

* :class:`ThresholdRule` — a metric crossed a fixed bound;
* :class:`EwmaDriftRule` — a metric drifted more than ``k`` sigmas from
  its exponentially-weighted mean (catches slow degradations a fixed
  threshold misses);
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

Alert timestamps are *stream* timestamps (simulation/capture time — the
window end or the metric sample time), never wall clock, so alerts align
with the log they were derived from.
"""

from __future__ import annotations

import enum
import json
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

from repro.obs.metrics import NOOP_REGISTRY, Counter, Gauge, MetricsRegistry

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
        timestamp: stream time (window end / sample time), not wall clock.
        message: operator-facing description.
        value: the observation that tripped the rule.
        labels: extra dimensions (metric name, problem class, ...).
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


def metric_matches(watched: str, sample_name: str) -> bool:
    """Whether the sample stream ``sample_name`` falls under ``watched``.

    Exact match, or — when ``watched`` carries no label set of its own —
    any labeled variant ``watched{k=v,...}``. This is what lets one rule
    watch a whole labeled family (every switch's table misses) while a
    labeled rule pins a single component.
    """
    return sample_name == watched or (
        "{" not in watched and sample_name.startswith(watched + "{")
    )


class AlertRule:
    """Base rule: subclasses override one (or both) observe hooks.

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

    def observe_metric(self, name: str, value: float, at: float) -> List[Alert]:
        """React to one metric sample; return alerts to fire."""
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


class ThresholdRule(AlertRule):
    """Fire when a named metric crosses a fixed bound.

    Args:
        metric: metric name to watch (as fed to the engine). A bare name
            also matches every labeled variant of itself — the engine
            feeds registry samples as ``name{k=v,...}``, so
            ``flowtable_misses_total`` watches *all* switches while
            ``flowtable_misses_total{dpid=ofs1}`` pins one.
        threshold: the bound.
        op: ``">"``, ``">="``, ``"<"``, or ``"<="``.
    """

    _OPS = {
        ">": lambda v, t: v > t,
        ">=": lambda v, t: v >= t,
        "<": lambda v, t: v < t,
        "<=": lambda v, t: v <= t,
    }

    def __init__(
        self,
        metric: str,
        threshold: float,
        op: str = ">",
        severity: Severity = Severity.WARNING,
        cooldown: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if op not in self._OPS:
            raise ValueError(f"unknown op {op!r}; choices: {sorted(self._OPS)}")
        super().__init__(
            name or f"threshold:{metric}{op}{threshold:g}", severity, cooldown
        )
        self.metric = metric
        self.threshold = threshold
        self.op = op

    def observe_metric(self, name: str, value: float, at: float) -> List[Alert]:
        if not metric_matches(self.metric, name) or not self._OPS[self.op](
            value, self.threshold
        ):
            return []
        return [
            self._alert(
                at,
                f"{name} = {value:g} ({self.op} {self.threshold:g})",
                value=value,
                metric=name,
            )
        ]


class EwmaDriftRule(AlertRule):
    """Fire when a metric drifts ``k`` sigmas from its EWMA.

    Maintains an exponentially weighted mean and variance per metric
    sample stream — each labeled variant (``name{dpid=...}``) gets
    its own independent baseline, so one rule can watch a labeled
    family without cross-contaminating per-component statistics. After
    ``warmup`` samples, a value further than ``k * sqrt(var)`` (and at
    least ``min_delta``) from the stream's mean alerts. The tripping
    sample still updates the EWMA, so a new steady state eventually stops
    alerting — drift detection, not threshold pinning.
    """

    def __init__(
        self,
        metric: str,
        alpha: float = 0.3,
        k: float = 3.0,
        warmup: int = 3,
        min_delta: float = 0.0,
        severity: Severity = Severity.WARNING,
        cooldown: float = 0.0,
        name: Optional[str] = None,
    ) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        super().__init__(name or f"ewma-drift:{metric}", severity, cooldown)
        self.metric = metric
        self.alpha = alpha
        self.k = k
        self.warmup = max(1, warmup)
        self.min_delta = min_delta
        #: Per-sample-stream [mean, var, n] state.
        self._state: Dict[str, List[float]] = {}

    def observe_metric(self, name: str, value: float, at: float) -> List[Alert]:
        if not metric_matches(self.metric, name):
            return []
        fired: List[Alert] = []
        state = self._state.get(name)
        if state is None:
            self._state[name] = [value, 0.0, 1.0]
            return fired
        mean, var, n = state
        delta = value - mean
        sigma = var ** 0.5
        if n >= self.warmup and abs(delta) > max(self.k * sigma, self.min_delta):
            fired.append(
                self._alert(
                    at,
                    f"{name} drifted to {value:g} "
                    f"(ewma {mean:g}, sigma {sigma:g})",
                    value=value,
                    metric=name,
                    direction="up" if delta > 0 else "down",
                )
            )
        # Standard EWM mean/variance update (West 1979 form).
        incr = self.alpha * delta
        state[0] = mean + incr
        state[1] = (1.0 - self.alpha) * (var + delta * incr)
        state[2] = n + 1.0
        return fired


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
    """Evaluate rules over window/metric streams with dedup and export.

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
        self._m_by_rule: Dict[Tuple[str, str], Union[Counter, Gauge]] = {}
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

    def observe_metric(self, name: str, value: float, at: float) -> List[Alert]:
        """Feed one metric sample through every rule."""
        fired: List[Alert] = []
        for rule in self.rules:
            for alert in rule.observe_metric(name, value, at):
                fired.extend(self._admit(rule, alert))
        return fired

    def observe_registry(self, registry: MetricsRegistry, at: float) -> List[Alert]:
        """Feed every scalar instrument of a registry as samples at ``at``.

        Histograms contribute their count and mean under ``<name>_count``
        and ``<name>_mean`` so latency rules can target either.
        """
        fired: List[Alert] = []
        for metric in registry:
            label_text = ",".join(f"{k}={v}" for k, v in metric.labels)
            key = f"{metric.name}{{{label_text}}}" if label_text else metric.name
            if isinstance(metric, (Counter, Gauge)):
                fired.extend(self.observe_metric(key, metric.value, at))
            else:
                fired.extend(self.observe_metric(f"{key}_count", float(metric.count), at))
                fired.extend(self.observe_metric(f"{key}_mean", metric.mean, at))
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

    def by_severity(self, severity: Severity) -> List[Alert]:
        return [a for a in self.alerts if a.severity == severity]

    def worst_severity(self) -> Optional[Severity]:
        return max((a.severity for a in self.alerts), default=None)

    def first_alert_at(self) -> Optional[float]:
        """Earliest alert timestamp — detection-delay measurements."""
        return min((a.timestamp for a in self.alerts), default=None)

    def write_jsonl(self, destination: Union[str, TextIO]) -> int:
        """Append-friendly JSONL export of every fired alert."""
        return write_alerts_jsonl(self.alerts, destination)


def write_alerts_jsonl(
    alerts: Iterable[Alert], destination: Union[str, TextIO]
) -> int:
    """Write alerts as one JSON object per line; returns the line count."""
    rows = [a.to_dict() for a in alerts]
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as fh:
            for row in rows:
                fh.write(json.dumps(row) + "\n")
    else:
        for row in rows:
            destination.write(json.dumps(row) + "\n")
    return len(rows)


def read_alerts_jsonl(source: Union[str, TextIO]) -> List[Alert]:
    """Parse a JSONL alert stream back into :class:`Alert` records."""
    if isinstance(source, str):
        with open(source, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    alerts: List[Alert] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"bad alert JSON on line {lineno}: {exc}") from exc
        alerts.append(
            Alert(
                rule=data["rule"],
                severity=Severity[data["severity"].upper()],
                timestamp=data["timestamp"],
                message=data.get("message", ""),
                value=data.get("value", 0.0),
                labels=tuple(sorted(data.get("labels", {}).items())),
            )
        )
    return alerts
