"""Continuous monitoring: sliding-window diagnosis over a live log.

The paper frames FlowDiff as an offline tool (compare L1 against L2), but
its deployment story is continuous: "FlowDiff frequently models the
behavior of a data center ... To detect problems, it compares the current
behavior with a previously computed, stable, and correct behavior"
(Section I). Two classes package that loop:

* :class:`DiagnosisStream` is the per-window engine shared by the batch
  monitor below and the streaming service (:mod:`repro.service`): the
  window grid, the one close (``FlowDiff.model`` over the window's own
  messages, then the diff against the baseline), history, health
  metrics, alert wiring and automatic re-anchoring.
* :class:`SlidingDiagnoser` is the batch loop: each call to
  :meth:`~SlidingDiagnoser.advance` closes every complete window of a
  growing log.

Windows lie on one grid: window ``k`` is ``[origin + k·W, origin +
(k+1)·W)``, ``origin`` being the baseline's end, computed only by
:meth:`DiagnosisStream.edge`. A run of empty windows is diagnosed once:
its first window closes as usual, then ``k`` jumps to the window holding
the next message (:meth:`DiagnosisStream.index`). A timestamp too large
to place on the grid (:meth:`DiagnosisStream.placeable`) is dropped and
counted, never made a window.

Consecutive reports expose *onset detection*: the first window where a
problem class appears tells the operator roughly when the problem
started, without re-reading old windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.core.diff.report import DiagnosisReport
from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.model import BehaviorModel
from repro.core.tasks.library import TaskLibrary
from repro.obs.alerts import Alert, AlertEngine
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.tracing import NOOP_TRACER, Tracer, wall_now
from repro.openflow.log import ControllerLog


@dataclass(frozen=True)
class WindowReport:
    """One monitoring step: the window bounds and its diagnosis."""

    t_start: float
    t_end: float
    report: DiagnosisReport

    @property
    def healthy(self) -> bool:
        """Whether this window showed no unexplained changes."""
        return self.report.healthy


class DiagnosisStream:
    """Close successive windows of one grid and diff them against a baseline.

    One instance owns where windows lie (``origin``, ``window`` and the
    open window's index ``k``) and everything that happens when one
    closes: the model, the diff, the report history, the ``monitor_*``
    health metrics, alert-engine wiring, and baseline re-anchoring.
    Callers only gather each window's messages — the batch
    :class:`SlidingDiagnoser` slices them from the log, the streaming
    service buffers them as they arrive — and hand them to :meth:`close`.

    Args:
        flowdiff: the configured pipeline that models and diffs windows
            (and models the re-anchored baseline when re-baselining
            triggers).
        window: seconds per window, the grid's width ``W``.
        task_library: learned operator-task signatures used to silence
            planned changes in every window.
        rebaseline_after: after this many consecutive healthy windows the
            newest healthy window becomes the baseline, so slow
            legitimate drift (workload growth, gradual redeployments)
            does not eventually alarm. 0 disables automatic re-anchoring.
        metrics: observability registry; each diagnosed window records
            its wall-clock latency (``monitor_window_seconds``) and the
            current health gauges.
        alert_engine: when given, every produced window report streams
            through the engine's rules (and the registry is sampled at
            the window end, stream-time-stamped) so alerts fire the
            moment a window turns unhealthy.
    """

    def __init__(
        self,
        flowdiff: FlowDiff,
        window: float,
        task_library: Optional[TaskLibrary] = None,
        rebaseline_after: int = 0,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        alert_engine: Optional[AlertEngine] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.flowdiff = flowdiff
        self.window = float(window)
        self.origin = 0.0
        self.k = 0
        self.metrics = metrics
        self._m_latency = metrics.histogram("monitor_window_seconds")
        self._m_windows = metrics.counter("monitor_windows_total")
        self._m_unhealthy = metrics.counter("monitor_unhealthy_windows_total")
        self._m_skipped = metrics.counter("monitor_windows_skipped_total")
        self._m_healthy_gauge = metrics.gauge("monitor_last_window_healthy")
        self._m_streak = metrics.gauge("monitor_healthy_streak")
        self.task_library = task_library
        self.rebaseline_after = rebaseline_after
        self.baseline: Optional[BehaviorModel] = None
        self.history: List[WindowReport] = []
        self.rebaseline_count = 0
        self.alert_engine = alert_engine

    def set_baseline_model(self, model: BehaviorModel, origin: float) -> None:
        """Install the healthy reference model, reset history, and start
        the grid at ``origin`` (the baseline's end) with window 0 open."""
        self.baseline = model
        self.history.clear()
        self.origin = origin
        self.k = 0

    # -- the window grid -------------------------------------------------

    def edge(self, k: int) -> float:
        """Where window ``k`` starts (and window ``k - 1`` ends)."""
        return self.origin + k * self.window

    def index(self, ts: float) -> int:
        """The window holding a placeable ``ts``: the unique ``k`` with
        ``edge(k) <= ts < edge(k + 1)``, in O(1) at any distance."""
        k = math.floor((ts - self.origin) / self.window)
        # The quotient may round across an edge; the edges themselves decide.
        while self.edge(k) > ts:
            k -= 1
        while self.edge(k + 1) <= ts:
            k += 1
        return k

    def placeable(self, ts: float) -> bool:
        """Whether ``ts`` is fine-grained enough to place on the grid:
        ``math.ulp(ts) * 1024 <= window``.

        Floats near ``t`` lie ``ulp(t)`` apart; as that step nears ``W``,
        edges near ``t`` collapse (at ``1e18``, ``ulp = 128`` and
        ``t + 10 == t``). ``W`` spanning a thousand steps keeps them a
        window apart to a thousandth. This rejects ``1e17`` and ``1e18``
        at ``W = 10``, accepts epoch stamps (``1.8e9``, ``ulp`` 2.4e-7) at
        ``W >= 1 ms``, and rejects ``inf`` and ``nan``.
        """
        return math.ulp(ts) * 1024 <= self.window

    @property
    def cursor(self) -> Optional[float]:
        """Where the open window starts; ``None`` before a baseline."""
        return None if self.baseline is None else self.edge(self.k)

    # -- the one close ---------------------------------------------------

    def close(
        self,
        window_log: ControllerLog,
        next_ts: Optional[float] = None,
        started: Optional[float] = None,
    ) -> WindowReport:
        """Model and diagnose the open window ``k``, then move on.

        ``window_log`` holds the messages of ``[edge(k), edge(k + 1))``;
        ``next_ts``, the first timestamp past them. The next window is
        ``k + 1`` or, when ``window_log`` is empty, the window holding
        ``next_ts``: the empty windows between count under
        ``monitor_windows_skipped_total`` undiagnosed. ``k`` moves on
        before anything is modelled, so a close that raises is not
        retried. ``started``, a :func:`~repro.obs.tracing.wall_now`
        reading, puts the close's latency in ``monitor_window_seconds``.

        Raises:
            RuntimeError: if no baseline has been installed.
        """
        if self.baseline is None:
            raise RuntimeError("a baseline model must be set before close()")
        t0, t1 = self.edge(self.k), self.edge(self.k + 1)
        k = self.k + 1
        if next_ts is not None and not len(window_log):
            k = self.index(next_ts)
            self._m_skipped.inc(k - self.k - 1)
        self.k = k
        current = self.flowdiff.model(window_log, window=(t0, t1), assess=False)
        report = self.flowdiff.diff(
            self.baseline,
            current,
            task_library=self.task_library,
            current_log=window_log if self.task_library else None,
        )
        entry = WindowReport(t_start=t0, t_end=t1, report=report)
        self.history.append(entry)
        if started is not None:
            self._m_latency.observe(wall_now() - started)
        self._m_windows.inc()
        if not entry.healthy:
            self._m_unhealthy.inc()
        self._m_healthy_gauge.set(1.0 if entry.healthy else 0.0)
        self._m_streak.set(self.healthy_streak())
        if self.alert_engine is not None:
            self.alert_engine.observe_window(entry)
            if self.metrics is not NOOP_REGISTRY:
                self.alert_engine.observe_registry(self.metrics, at=t1)
        if (
            self.rebaseline_after > 0
            and entry.healthy
            and self.healthy_streak() >= self.rebaseline_after
        ):
            # Re-anchor on the most recent healthy window. A full model
            # (with stability assessment) replaces the baseline.
            self.baseline = self.flowdiff.model(window_log, window=(t0, t1))
            self.rebaseline_count += 1
        return entry

    # -- introspection --------------------------------------------------

    def problem_onset(self, problem: str) -> Optional[float]:
        """The start of the first window where ``problem`` was inferred."""
        for entry in self.history:
            if any(p.problem == problem for p in entry.report.problems):
                return entry.t_start
        return None

    def first_unhealthy(self) -> Optional[WindowReport]:
        """The earliest window with unexplained changes, if any."""
        for entry in self.history:
            if not entry.healthy:
                return entry
        return None

    @property
    def alerts(self) -> List[Alert]:
        """Alerts fired so far (empty without an attached engine)."""
        return self.alert_engine.alerts if self.alert_engine is not None else []

    def healthy_streak(self) -> int:
        """Number of consecutive healthy windows at the end of history."""
        streak = 0
        for entry in reversed(self.history):
            if not entry.healthy:
                break
            streak += 1
        return streak


class SlidingDiagnoser(DiagnosisStream):
    """Periodically diff the newest log window against a healthy baseline.

    A :class:`DiagnosisStream` fed from a log: it closes each window over
    that window's slice of the log.

    Args:
        config: FlowDiff tunables (thresholds, special nodes, ...).
        window: seconds of log modeled per step.
        tracer: span tracer handed to the underlying :class:`FlowDiff`.
        task_library/rebaseline_after/metrics/alert_engine: see
            :class:`DiagnosisStream`. Messages too large to place on the
            grid count under ``monitor_dropped_total{reason="ts_precision"}``.
    """

    def __init__(
        self,
        config: Optional[FlowDiffConfig] = None,
        window: float = 30.0,
        task_library: Optional[TaskLibrary] = None,
        rebaseline_after: int = 0,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        tracer: Tracer = NOOP_TRACER,
        alert_engine: Optional[AlertEngine] = None,
    ) -> None:
        super().__init__(
            FlowDiff(config, tracer=tracer, metrics=metrics),
            window,
            task_library=task_library,
            rebaseline_after=rebaseline_after,
            metrics=metrics,
            alert_engine=alert_engine,
        )
        self._m_dropped = metrics.counter("monitor_dropped_total", reason="ts_precision")
        #: Messages dropped so far as too large to place on the grid.
        self.dropped = 0

    def set_baseline(self, log: ControllerLog, t_start: float, t_end: float) -> None:
        """Model ``[t_start, t_end)`` of ``log`` as the healthy reference;
        the first window :meth:`advance` closes starts at ``t_end``."""
        sub = log.window(t_start, t_end)
        self.set_baseline_model(self.flowdiff.model(sub, window=(t_start, t_end)), t_end)

    def advance(self, log: ControllerLog) -> List[WindowReport]:
        """Diagnose every complete window between the open one and log end.

        Returns the newly produced window reports (also appended to
        :attr:`history`). Incomplete trailing windows wait for more log.

        Raises:
            RuntimeError: if no baseline has been set.
        """
        if self.baseline is None:
            raise RuntimeError("set_baseline() must run before advance()")
        _, end = log.time_span
        if not self.placeable(end):
            # Placeability falls with magnitude, so the unplaceable stamps
            # are the log's last ones. They stay past the open window, so
            # counting them against the last count counts each once.
            stamps = [m.timestamp for m in log.window(self.edge(self.k), math.inf)]
            placed = [ts for ts in stamps if self.placeable(ts)]
            dropped = len(stamps) - len(placed)
            self._m_dropped.inc(max(0, dropped - self.dropped))
            self.dropped = max(self.dropped, dropped)
            end = placed[-1] if placed else -math.inf
        new_reports: List[WindowReport] = []
        while self.edge(self.k + 1) <= end:
            started = wall_now()
            t1 = self.edge(self.k + 1)
            sub = log.window(self.edge(self.k), t1)
            # ``t1 <= end``: past an empty window lies a placeable message.
            next_ts = None if len(sub) else log.window(t1, math.inf).time_span[0]
            new_reports.append(self.close(sub, next_ts, started=started))
        return new_reports
