"""One tenant of the streaming service: ingest → windows → diagnoses.

A :class:`TenantPipeline` owns everything one monitored environment
needs: the baseline-learning phase, the open
:class:`~repro.service.incremental.IncrementalWindow` (a buffer and its
dirty label), the shared :class:`~repro.core.monitor.DiagnosisStream`
(the window grid and the one close the batch monitor makes too: model,
diff, history, health metrics, alerting, the jump over a run of empty
windows), a bounded flight-recorder ring of recent raw messages, and
checkpoint/restore through :mod:`repro.core.persist` so a restarted
daemon resumes at the last closed window instead of cold remodeling.

Per message, ingest compares the timestamp with the open window's two
edges; only a message past the window is placed on the grid.

Memory is bounded by construction: raw messages live only for the
currently open window, the report history and the published ``/diff``
and ``/alerts`` rows are each trimmed to ``history_limit`` entries, and
the trace ring is a fixed-size deque.

Thread model: the daemon's drain thread (:mod:`repro.service.daemon`)
is the only code that touches a pipeline after construction, so none of
its state has a lock. Other threads read :attr:`TenantPipeline.view`
and nothing else: one immutable :class:`TenantView` that the worker
rebuilds after every ingest batch and window close and publishes by a
single attribute assignment. A reader takes ``tenant.view`` once and
gets a summary, ``/diff`` rows, alert rows and a trace that all describe
the same moment.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from typing import Deque, Dict, List, NamedTuple, Optional, Tuple

from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.monitor import DiagnosisStream, WindowReport
from repro.core.persist import (
    ModelLoadError,
    config_fingerprint,
    load_checkpoint,
    load_model_object,
    model_object_path,
    save_checkpoint,
    store_model_object,
)
from repro.core.tasks.library import TaskLibrary
from repro.obs.alerts import AlertEngine, Severity
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.tracing import wall_now
from repro.openflow.log import ControllerLog
from repro.openflow.messages import ControlMessage
from repro.service.incremental import (
    STATUS_FALLBACK,
    STATUS_MERGED,
    IncrementalWindow,
)

logger = logging.getLogger(__name__)

PHASE_BASELINE = "baseline"
PHASE_STREAMING = "streaming"

Row = Dict[str, object]


class TenantView(NamedTuple):
    """One consistent moment of a tenant, as other threads may read it.

    Built by the worker and never mutated once published.
    """

    #: One row of ``/tenants``: phase, progress and health.
    summary: Row
    #: The newest ``history_limit`` prebuilt ``/diff`` rows, oldest first.
    history: Tuple[Row, ...]
    #: The newest ``history_limit`` fired alerts, tenant-labelled.
    alerts: Tuple[Row, ...]
    #: The trace ring as of the last ingest batch.
    trace: Tuple[ControlMessage, ...]


class TenantPipeline:
    """Always-on windowed diagnosis for one monitored environment.

    Args:
        name: the tenant label (rides on every ``service_*`` metric).
        config: FlowDiff tunables; defaults are the paper's settings.
        window: seconds of stream per diagnosis window.
        baseline_span: seconds of stream learned as the healthy baseline
            before windowed diagnosis starts; defaults to ``window``.
        slices: accepted and ignored — nothing reads it.
        task_library: learned operator-task signatures used to silence
            planned changes.
        rebaseline_after: see :class:`~repro.core.monitor.DiagnosisStream`.
        metrics: shared service registry; all ``service_*`` instruments
            carry a ``tenant`` label.
        alert_engine: per-tenant alert engine; every closed window streams
            through it.
        checkpoint_dir: when set, the baseline model and the open window's
            start (the cursor) persist here (via :mod:`repro.core.persist`);
            a pipeline pointed at the same directory resumes, not relearns.
        history_limit: report-history cap; older windows are dropped (the
            checkpointed cursor, not history, is the durable state).
        trace_capacity: raw messages retained for flight-recorder traces.
        resume: attempt checkpoint restore at construction.
    """

    _GUARDED_BY = {
        "view": "an immutable TenantView the worker publishes by one "
        "attribute assignment (atomic in CPython); readers take one "
        "reference and never mutate it",
    }

    def __init__(
        self,
        name: str,
        config: Optional[FlowDiffConfig] = None,
        *,
        window: float = 30.0,
        baseline_span: Optional[float] = None,
        slices: int = 4,  # Unread; bench/stream.py (frozen) passes it.
        task_library: Optional[TaskLibrary] = None,
        rebaseline_after: int = 0,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        alert_engine: Optional[AlertEngine] = None,
        checkpoint_dir: Optional[str] = None,
        history_limit: int = 256,
        trace_capacity: int = 4096,
        resume: bool = True,
    ) -> None:
        self.name = name
        self.flowdiff = FlowDiff(config, metrics=metrics)
        self.baseline_span = float(
            baseline_span if baseline_span is not None else window
        )
        self.metrics = metrics
        self.history_limit = max(1, int(history_limit))
        self.stream = DiagnosisStream(
            self.flowdiff,
            window,
            task_library=task_library,
            rebaseline_after=rebaseline_after,
            metrics=metrics,
            alert_engine=alert_engine,
        )
        self.trace_ring: Deque[ControlMessage] = deque(maxlen=trace_capacity)
        self._history_rows: Deque[Row] = deque(maxlen=self.history_limit)
        self._alert_rows: Deque[Row] = deque(maxlen=self.history_limit)
        self._alerts_seen = 0
        self._worst: Optional[Severity] = None

        self._m_ingested = metrics.counter("service_ingest_messages_total", tenant=name)
        self._m_late = metrics.counter("service_dropped_total", tenant=name, reason="late")
        self._m_unplaceable = metrics.counter(
            "service_dropped_total", tenant=name, reason="ts_precision"
        )
        self._m_resumed = metrics.counter("service_resume_skipped_total", tenant=name)
        self._m_windows = metrics.counter("service_windows_total", tenant=name)
        self._m_report = metrics.histogram("service_report_seconds")
        self._m_checkpoints = metrics.counter("service_checkpoints_total", tenant=name)
        self._m_checkpoint_age = metrics.gauge("service_checkpoint_age_seconds", tenant=name)

        self.phase = PHASE_BASELINE
        self.status_counts: Dict[str, int] = {}
        self.windows_total = 0
        self.resumed = False
        self._buffer: List[ControlMessage] = []
        self._t_first: Optional[float] = None
        self._baseline_end: Optional[float] = None
        self._resume_cursor: Optional[float] = None
        self._win: Optional[IncrementalWindow] = None
        self._baseline_digest: Optional[str] = None
        self._last_checkpoint_ts: Optional[float] = None

        self.checkpoint_path: Optional[str] = None
        self._checkpoint_dir = checkpoint_dir or None
        if checkpoint_dir:
            self.checkpoint_path = os.path.join(
                checkpoint_dir, f"checkpoint-{name}.json"
            )
            if resume:
                self._restore()
        self._publish(trace=())

    # -- ingest ----------------------------------------------------------

    def ingest(self, messages: List[ControlMessage]) -> List[WindowReport]:
        """Consume a batch of time-ordered messages; return closed windows.

        Messages older than an already-closed window are dropped (with
        ``service_dropped_total{reason="late"}`` accounting) — the batch
        path would have sorted them in, but a closed window is immutable
        by design — as are ones too large to place on the grid
        (``reason="ts_precision"``). Replays during checkpoint resume are
        skipped silently under ``service_resume_skipped_total``.
        """
        self._m_ingested.inc(len(messages))
        reports: List[WindowReport] = []
        self.trace_ring.extend(messages)
        resume_cursor = self._resume_cursor
        for msg in messages:
            ts = msg.timestamp
            if resume_cursor is not None:
                if ts < resume_cursor:
                    self._m_resumed.inc()
                    continue
                resume_cursor = None
                self._resume_cursor = None
            if self.phase == PHASE_BASELINE:
                if self._t_first is not None and ts < self._baseline_end:  # type: ignore[operator]
                    self._buffer.append(msg)
                    continue
                if not self.stream.placeable(ts):
                    self._m_unplaceable.inc()
                    continue
                if self._t_first is None or not self._learn_baseline():
                    # The first message, or the span was dropped: learn from here.
                    self._t_first = ts
                    self._baseline_end = ts + self.baseline_span
                    self._buffer.append(msg)
                    continue
            win = self._win
            if ts < win.t_start:  # type: ignore[union-attr]
                self._m_late.inc()
                continue
            if ts >= win.t_end:  # type: ignore[union-attr]
                if not self.stream.placeable(ts):
                    self._m_unplaceable.inc()
                    continue
                while ts >= win.t_end:  # type: ignore[union-attr]
                    entry = self._close_window(ts)
                    if entry is not None:
                        reports.append(entry)
                    win = self._win
            win.add(msg)  # type: ignore[union-attr]
        self._publish(trace=tuple(self.trace_ring))
        return reports

    # -- phases ----------------------------------------------------------

    def _learn_baseline(self) -> bool:
        """Model the buffered span as the healthy reference and move on.

        A span whose modeling raises is dropped, as a window whose close
        raises is: its messages are counted under
        ``service_dropped_total{reason="close_error"}`` and ``False`` tells
        the caller to learn afresh, instead of every later batch modeling
        the same span and raising again.
        """
        t_first, t_end = self._t_first, self._baseline_end
        assert t_first is not None and t_end is not None
        buffered, self._buffer = self._buffer, []
        try:
            baseline = self.flowdiff.model(ControllerLog(buffered), window=(t_first, t_end))
        except Exception:
            self._drop("baseline span", t_first, t_end, len(buffered))
            return False
        self.stream.set_baseline_model(baseline, t_end)
        self.phase = PHASE_STREAMING
        self._store_baseline()
        self._open_window()
        return True

    def _drop(self, what: str, t0: float, t1: float, n: int) -> None:
        """Log the exception being handled and count the ``n`` messages of
        ``[t0, t1)`` under ``service_dropped_total{reason="close_error"}``."""
        logger.exception("tenant %s: dropped %s [%s, %s): it raised", self.name, what, t0, t1)
        self.metrics.counter(
            "service_dropped_total", tenant=self.name, reason="close_error"
        ).inc(n)

    def _store_baseline(self) -> None:
        """Put the stream's baseline where the next checkpoint names it."""
        baseline = self.stream.baseline
        if self._checkpoint_dir is not None and baseline is not None:
            self._baseline_digest = store_model_object(
                self._checkpoint_dir, baseline
            )

    def _open_window(self) -> None:
        """Open a buffer over the stream's window ``k``."""
        stream = self.stream
        self._win = IncrementalWindow(
            stream.edge(stream.k),
            stream.edge(stream.k + 1),
            self.flowdiff.config.signature,
        )

    def _close_window(self, next_ts: float) -> Optional[WindowReport]:
        """Close the open window at ``next_ts``, checkpoint, open the next.

        A window whose close raises is dropped: its messages are counted
        under ``service_dropped_total{reason="close_error"}`` and the
        tenant moves on instead of retrying it with every later batch.
        """
        win = self._win
        assert win is not None
        started = wall_now()
        t0, t1 = win.t_start, win.t_end
        baseline = self.stream.baseline
        try:
            entry = self.stream.close(ControllerLog(win.raw), next_ts, started=started)
        except Exception:
            self._drop("window", t0, t1, len(win.raw))
            return None
        finally:
            self._open_window()
        status = STATUS_MERGED if win.dirty is None else STATUS_FALLBACK
        self.metrics.counter(
            "service_window_merge_total", tenant=self.name, status=status
        ).inc()
        self.status_counts[status] = self.status_counts.get(status, 0) + 1
        superseded: Optional[str] = None
        if self.stream.baseline is not baseline:
            # Re-anchored: the checkpoint must name the baseline a restart
            # should diff against, not the one learned first.
            superseded = self._baseline_digest
            self._store_baseline()
        history = self.stream.history
        if len(history) > self.history_limit:
            del history[: len(history) - self.history_limit]
        self.windows_total += 1
        self._m_windows.inc()
        anchor = (
            self._last_checkpoint_ts
            if self._last_checkpoint_ts is not None
            else self._baseline_end
        )
        if anchor is not None:
            # Stream-time seconds of diagnosis an unplanned restart would
            # have to replay — the staleness of the durable state.
            self._m_checkpoint_age.set(t1 - anchor)
        self._checkpoint(t1)
        if superseded is not None and self._checkpoint_dir is not None:
            # Only now does no checkpoint of this tenant name the old
            # object. (Another tenant whose baseline is byte-identical
            # would cold-start on restart, as for any missing object.)
            try:
                os.unlink(model_object_path(self._checkpoint_dir, superseded))
            except OSError:
                pass
        self._history_rows.append(
            {
                "t_start": t0,
                "t_end": t1,
                "healthy": entry.healthy,
                "report": entry.report.to_dict(),
            }
        )
        self._publish()
        self._m_report.observe(wall_now() - started)
        return entry

    # -- the published view (worker writes, any thread reads) -----------

    def _publish(self, trace: Optional[Tuple[ControlMessage, ...]] = None) -> None:
        """Rebuild :attr:`view` from worker-owned state and publish it.

        Alerts fired since the last publish are labelled and folded into
        the worst severity once; ``trace`` defaults to the published one.
        """
        alerts = 0
        engine = self.stream.alert_engine
        if engine is not None:
            fired = engine.alerts
            for alert in fired[self._alerts_seen :]:
                row = alert.to_dict()
                row["tenant"] = self.name
                self._alert_rows.append(row)
                if self._worst is None or alert.severity > self._worst:
                    self._worst = alert.severity
            self._alerts_seen = alerts = len(fired)
        rows = self._history_rows
        summary: Row = {
            "tenant": self.name,
            "phase": self.phase,
            "resumed": self.resumed,
            "windows": self.windows_total,
            "statuses": dict(self.status_counts),
            "cursor": self.stream.cursor,
            "last_window": [rows[-1]["t_start"], rows[-1]["t_end"]] if rows else None,
            "healthy_streak": self.stream.healthy_streak(),
            "alerts": alerts,
            "worst_severity": str(self._worst) if self._worst is not None else None,
        }
        self.view = TenantView(
            summary,
            tuple(rows),
            tuple(self._alert_rows),
            self.view.trace if trace is None else trace,
        )

    # -- checkpoint / restore -------------------------------------------

    def _checkpoint(self, at_ts: float) -> None:
        if self.checkpoint_path is None:
            return
        state = {
            "tenant": self.name,
            "config": config_fingerprint(self.flowdiff.config),
            "cursor": self.stream.cursor,
            "window": self.stream.window,
            "baseline_span": self.baseline_span,
            "t_first": self._t_first,
            "baseline_digest": self._baseline_digest,
            "windows_total": self.windows_total,
            "status_counts": dict(self.status_counts),
            "checkpointed_at": at_ts,
        }
        save_checkpoint(self.checkpoint_path, state)
        self._last_checkpoint_ts = at_ts
        self._m_checkpoints.inc()

    def _restore(self) -> None:
        """Resume from the tenant's checkpoint when one is loadable.

        Any failure (no file, version skew, a garbled field, a checkpoint
        taken under another model-relevant config, missing or unreadable baseline model)
        falls back to a cold start — restore is an optimization, never a
        correctness dependency. No tenant attribute changes until the
        whole state has parsed.
        """
        assert self.checkpoint_path is not None and self._checkpoint_dir is not None
        if not os.path.exists(self.checkpoint_path):
            return
        try:
            state = load_checkpoint(self.checkpoint_path)
        except (ModelLoadError, OSError):
            return
        try:
            if state["config"] != config_fingerprint(self.flowdiff.config):
                # The stored baseline was modeled under other settings.
                return
            digest = state["baseline_digest"]
            t_first = float(state["t_first"])
            origin = t_first + self.baseline_span
            k = round((float(state["cursor"]) - origin) / self.stream.window)
            windows_total = int(state["windows_total"])
            status_counts = {
                str(status): int(count)
                for status, count in dict(state["status_counts"]).items()
            }
            checkpointed_at = float(state["checkpointed_at"])
        except (KeyError, TypeError, ValueError, OverflowError):
            return
        baseline = load_model_object(self._checkpoint_dir, digest)
        if baseline is None:
            return
        self.stream.set_baseline_model(baseline, origin)
        self.stream.k = k
        self.phase = PHASE_STREAMING
        self._t_first = t_first
        self._baseline_end = origin
        self._baseline_digest = digest
        self._resume_cursor = self.stream.cursor
        self.windows_total = windows_total
        self.status_counts = status_counts
        self._last_checkpoint_ts = checkpointed_at
        self.resumed = True
        self._open_window()

    # -- introspection ---------------------------------------------------

    @property
    def history(self) -> List[WindowReport]:
        return self.stream.history

    @property
    def alert_engine(self) -> Optional[AlertEngine]:
        return self.stream.alert_engine
