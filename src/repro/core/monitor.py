"""Continuous monitoring: sliding-window diagnosis over a live log.

The paper frames FlowDiff as an offline tool (compare L1 against L2), but
its deployment story is continuous: "FlowDiff frequently models the
behavior of a data center ... To detect problems, it compares the current
behavior with a previously computed, stable, and correct behavior"
(Section I). Two classes package that loop:

* :class:`DiagnosisStream` is the per-window bookkeeping engine — diff
  against the baseline, history, health metrics, alert wiring,
  automatic re-anchoring, and where the next window opens after a quiet
  one. It does not care *how* the window model was produced, which is
  what lets the batch monitor below and the streaming service
  (:mod:`repro.service`) share one code path.
* :class:`SlidingDiagnoser` is the batch loop, a stream with a cursor:
  each call to :meth:`~SlidingDiagnoser.advance` models every complete
  window of a growing log with ``FlowDiff.model`` over that window's own
  messages and feeds it through the stream.

Both loops tile the stream into windows of one length. A run of empty
windows is diagnosed once: its first window closes as usual, and the
cursor then jumps to the window that holds the next message
(:meth:`DiagnosisStream.skip_quiet`), so one far-future timestamp costs
one diagnosis, not one per empty window.

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
    """Diff successive window models against a baseline, with bookkeeping.

    One instance owns everything that happens *after* a window model
    exists: the diff, the report history, the ``monitor_*`` health
    metrics, alert-engine wiring, and baseline re-anchoring. Callers
    produce window models however they like — the batch
    :class:`SlidingDiagnoser` remodels each window from the log, the
    streaming service builds them from arrivals it extracted
    incrementally — and feed them through :meth:`observe`.

    Args:
        flowdiff: the configured pipeline used for diffs (and for the
            re-anchored baseline model when re-baselining triggers).
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
        task_library: Optional[TaskLibrary] = None,
        rebaseline_after: int = 0,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        alert_engine: Optional[AlertEngine] = None,
    ) -> None:
        self.flowdiff = flowdiff
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

    def set_baseline_model(self, model: BehaviorModel) -> None:
        """Install the healthy reference model and reset history."""
        self.baseline = model
        self.history.clear()

    def observe(
        self,
        t0: float,
        t1: float,
        current: BehaviorModel,
        window_log: Optional[ControllerLog] = None,
        started: Optional[float] = None,
    ) -> WindowReport:
        """Diff one window model against the baseline and record it.

        Args:
            t0/t1: the window bounds.
            current: the window's behavior model.
            window_log: the log slice the model came from — needed for
                task-library matching and for the re-anchored baseline
                model (re-baselining silently waits when it is absent).
            started: a :func:`~repro.obs.tracing.wall_now` reading taken
                when work on the window began; when given, the window's
                wall-clock latency lands in ``monitor_window_seconds``.

        Raises:
            RuntimeError: if no baseline has been installed.
        """
        if self.baseline is None:
            raise RuntimeError("a baseline model must be set before observe()")
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
            and window_log is not None
        ):
            # Re-anchor on the most recent healthy window. A full model
            # (with stability assessment) replaces the baseline.
            self.baseline = self.flowdiff.model(window_log, window=(t0, t1))
            self.rebaseline_count += 1
        return entry

    def skip_quiet(self, t_end: float, next_ts: float, window: float) -> float:
        """Where the next window opens after an empty one ending at ``t_end``.

        The next message arrives at ``next_ts``, so every window of the
        ``window``-long grid between ``t_end`` and the cell holding
        ``next_ts`` is empty too. Rather than diagnose each of them (one
        far-future timestamp would mean millions), the cursor jumps to
        that cell, and the windows jumped over count under
        ``monitor_windows_skipped_total`` without a diagnosis. When the
        message falls in the very next window nothing is skipped and the
        result is ``t_end``.
        """
        skipped = max(0, int((next_ts - t_end) // window))
        start = t_end + skipped * window
        # Settle float rounding onto the cell that holds ``next_ts``.
        if skipped and start > next_ts:
            skipped -= 1
            start = t_end + skipped * window
        elif start + window <= next_ts:
            skipped += 1
            start = t_end + skipped * window
        self._m_skipped.inc(skipped)
        return start

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

    A :class:`DiagnosisStream` with a cursor: every window it models is
    ``FlowDiff.model`` over that window's messages.

    Args:
        config: FlowDiff tunables (thresholds, special nodes, ...).
        window: seconds of log modeled per step.
        task_library: learned operator-task signatures used to silence
            planned changes in every window.
        rebaseline_after: see :class:`DiagnosisStream`.
        metrics: observability registry; each diagnosed window records its
            wall-clock latency (``monitor_window_seconds``) and the
            current health gauges, making a long-running diagnoser
            scrape-able mid-flight.
        tracer: span tracer handed to the underlying :class:`FlowDiff`.
        alert_engine: when given, every produced window report streams
            through the engine's rules (and the registry is sampled at the
            window end, stream-time-stamped) so alerts fire the moment a
            window turns unhealthy — no separate polling loop.
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
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        super().__init__(
            FlowDiff(config, tracer=tracer, metrics=metrics),
            task_library=task_library,
            rebaseline_after=rebaseline_after,
            metrics=metrics,
            alert_engine=alert_engine,
        )
        self.window = window
        self._cursor = 0.0

    def set_baseline(self, log: ControllerLog, t_start: float, t_end: float) -> None:
        """Model ``[t_start, t_end)`` of ``log`` as the healthy reference.

        Also positions the monitoring cursor at ``t_end`` so the first
        :meth:`advance` examines what follows the baseline.
        """
        sub = log.window(t_start, t_end)
        self.set_baseline_model(self.flowdiff.model(sub, window=(t_start, t_end)))
        self._cursor = t_end

    def advance(self, log: ControllerLog) -> List[WindowReport]:
        """Diagnose every complete window between the cursor and log end.

        Returns the newly produced window reports (also appended to
        :attr:`history`). Incomplete trailing windows wait for more log.

        Raises:
            RuntimeError: if no baseline has been set.
        """
        if self.baseline is None:
            raise RuntimeError("set_baseline() must run before advance()")
        _, log_end = log.time_span
        new_reports: List[WindowReport] = []
        while self._cursor + self.window <= log_end:
            t0 = self._cursor
            t1 = t0 + self.window
            started = wall_now()
            sub = log.window(t0, t1)
            current = self.flowdiff.model(sub, window=(t0, t1), assess=False)
            new_reports.append(
                self.observe(t0, t1, current, window_log=sub, started=started)
            )
            if len(sub):
                self._cursor = t1
            else:
                # ``t1 <= log_end``: some message lies at or after ``t1``.
                next_ts, _ = log.window(t1, math.inf).time_span
                self._cursor = self.skip_quiet(t1, next_ts, self.window)
        return new_reports
