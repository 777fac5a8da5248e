"""The always-on service: multi-tenant ingest behind a bounded queue.

:class:`StreamService` hosts any number of :class:`TenantPipeline`\\ s in
one process. Producers — file tails, in-process simulator feeds, tests —
hand message batches to :meth:`StreamService.feed`; a single drain thread
serializes them into the per-tenant pipelines, so the heavy pipeline
work runs lock-free. That work happens at window close: a pipeline
buffers its open window's messages and models the window in one pass
once the stream passes the window's end. The queue is bounded: a
blocking producer experiences backpressure, a non-blocking one gets its
batch dropped with explicit
``service_dropped_total{reason="backpressure"}`` accounting — ingest
never buffers unboundedly.

:class:`FileTailSource` adapts a JSONL capture file (the
:mod:`repro.openflow.serialize` format) into the feed, optionally
following the file as a live producer appends to it — the daemon
equivalent of ``tail -f`` on a controller capture.

Thread model: producers (main thread, tail threads) call :meth:`feed`,
the drain thread is the only code that touches a tenant pipeline after
construction, and other threads read tenants only through
:meth:`StreamService.views` (each tenant's published
:attr:`~repro.service.tenant.TenantPipeline.view`). Every attribute the
service writes after construction is one of three kinds, which the
``shared-state`` lint rule checks: *locked* (``_depth_msgs``: every
access holds ``_lock``, and a lock body calls nothing but ``len``),
*worker-private* (touched only by the drain loop), or *published*
(``tenants``, ``errors``: listed in ``_GUARDED_BY``, replaced whole and
never mutated, so any thread reads one by taking one reference).
"""

from __future__ import annotations

import queue
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.flowdiff import FlowDiffConfig
from repro.obs.alerts import AlertEngine, default_rules
from repro.obs.metrics import MetricsRegistry
from repro.openflow.messages import ControlMessage
from repro.openflow.serialize import CaptureDecoder
from repro.service.tenant import TenantPipeline, TenantView

#: Sentinel telling the drain thread it is queued with to exit.
_STOP = object()


class StreamService:
    """Own the tenants, the ingest queue, and the drain thread.

    Args:
        config: FlowDiff tunables shared by tenants (overridable per
            tenant via :meth:`add_tenant`).
        window: default diagnosis window seconds per tenant.
        baseline_span: default baseline-learning span; defaults to
            ``window``.
        slices: accepted and ignored — nothing reads it.
        metrics: the service registry — one per process, every instrument
            tenant-labeled; a fresh registry is created when omitted.
        checkpoint_dir: directory for per-tenant checkpoints and the
            baseline models they name.
        max_pending: ingest queue capacity in batches; beyond it,
            blocking feeds wait and non-blocking feeds drop.
        rebaseline_after: default re-anchoring policy per tenant.
        history_limit/trace_capacity: per-tenant memory bounds.
    """

    _GUARDED_BY = {
        "tenants": "copy-on-write: add_tenant swaps in a new dict under "
        "_lock and no dict is mutated once published",
        "errors": "replaced whole, never mutated, by the drain thread alone",
    }

    def __init__(
        self,
        config: Optional[FlowDiffConfig] = None,
        *,
        window: float = 30.0,
        baseline_span: Optional[float] = None,
        slices: int = 4,  # Unread; bench/stream.py (frozen) passes it.
        metrics: Optional[MetricsRegistry] = None,
        checkpoint_dir: Optional[str] = None,
        max_pending: int = 64,
        rebaseline_after: int = 0,
        history_limit: int = 256,
        trace_capacity: int = 4096,
    ) -> None:
        self.config = config
        self.window = window
        self.baseline_span = baseline_span
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkpoint_dir = checkpoint_dir
        self.rebaseline_after = rebaseline_after
        self.history_limit = history_limit
        self.trace_capacity = trace_capacity
        self.tenants: Dict[str, TenantPipeline] = {}
        self.errors: List[str] = []

        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_pending)
        self._depth_msgs = 0
        #: Guards tenant insertion and ``_depth_msgs``.
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._m_depth = self.metrics.gauge("service_queue_depth")
        self._m_tenants = self.metrics.gauge("service_tenants")

    # -- tenants ---------------------------------------------------------

    def add_tenant(self, name: str, **overrides: object) -> TenantPipeline:
        """Register a tenant pipeline (with its own alert engine, whose
        ``alerts_*`` series carry ``tenant=name`` in :attr:`metrics`).

        Keyword overrides are forwarded to :class:`TenantPipeline` on top
        of the service defaults.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already registered")
        kwargs: Dict[str, object] = {
            "window": self.window,
            "baseline_span": self.baseline_span,
            "metrics": self.metrics,
            "checkpoint_dir": self.checkpoint_dir,
            "rebaseline_after": self.rebaseline_after,
            "history_limit": self.history_limit,
            "trace_capacity": self.trace_capacity,
        }
        kwargs.update(overrides)
        if "alert_engine" not in kwargs:
            # Built only when not overridden: it registers its series.
            kwargs["alert_engine"] = AlertEngine(
                default_rules(), self.metrics.labelled(tenant=name)
            )
        # Construction is heavy (checkpoint restore does file I/O), so it
        # happens outside the lock; the insert re-checks for a racing
        # registration of the same name.
        tenant = TenantPipeline(name, self.config, **kwargs)  # type: ignore[arg-type]
        with self._lock:
            if name in self.tenants:
                raise ValueError(f"tenant {name!r} already registered")
            tenants = {**self.tenants, name: tenant}
            self.tenants = tenants
        self._m_tenants.set(float(len(tenants)))
        return tenant

    def tenant_items(self) -> List[Tuple[str, TenantPipeline]]:
        """A list of the tenant map's items (``bench/stream.py`` reads it)."""
        return list(self.tenants.items())

    def recent_errors(self) -> List[str]:
        """A copy of the recent ingest-error tail."""
        return list(self.errors)

    def views(self) -> Dict[str, TenantView]:
        """Each tenant's published view by name, from one reference to
        the tenant map: what any thread but the drain thread may read."""
        return {name: tenant.view for name, tenant in self.tenants.items()}

    # -- ingest ----------------------------------------------------------

    def feed(
        self,
        tenant: str,
        messages: Iterable[ControlMessage],
        *,
        block: bool = True,
    ) -> int:
        """Enqueue a batch for ``tenant``; returns messages accepted.

        ``block=True`` applies backpressure (the call waits for queue
        room — the lossless mode for file replay and benchmarks);
        ``block=False`` drops the whole batch when the queue is full,
        counted under ``service_dropped_total{reason="backpressure"}``
        (the lossy mode for live feeds that must not stall the producer).
        """
        if tenant not in self.tenants:
            raise KeyError(f"unknown tenant {tenant!r}")
        batch = list(messages)
        if not batch:
            return 0
        item = (tenant, batch)
        # The put happens outside the lock: with backpressure it blocks
        # until the drain thread makes room, and the drain thread takes
        # the same lock to account its progress.
        if block:
            self._queue.put(item)
        else:
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self.metrics.counter(
                    "service_dropped_total", tenant=tenant, reason="backpressure"
                ).inc(len(batch))
                return 0
        with self._lock:
            self._depth_msgs += len(batch)
            depth = self._depth_msgs
        self._m_depth.set(float(depth))
        return len(batch)

    # -- lifecycle -------------------------------------------------------

    def start(self) -> None:
        """Start the drain thread (idempotent)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._drain_loop, name="repro-service-drain", daemon=True
        )
        self._thread.start()

    def stop(self, drain: bool = True) -> None:
        """Stop the drain thread; with ``drain``, finish queued work first.

        Raises ``RuntimeError`` when the stop request cannot be queued
        within 30 s (a full queue under a stuck thread), or the thread
        is still running 30 s after it was queued. The service then
        keeps the thread, so a later :meth:`start` cannot add a second
        one beside it.
        """
        if self._thread is None:
            return
        if self._thread.is_alive():  # a dead thread drains nothing
            if drain:
                self._queue.join()
            try:
                self._queue.put((_STOP, self._thread), timeout=30.0)
            except queue.Full:
                raise RuntimeError("drain thread stuck: stop not queued in 30 s") from None
            self._thread.join(timeout=30.0)
            if self._thread.is_alive():
                raise RuntimeError("drain thread still running 30 s after stop")
        self._thread = None

    def drain(self) -> None:
        """Block until every queued batch has been processed."""
        self._queue.join()

    def _drain_loop(self) -> None:
        me = threading.current_thread()
        while True:
            name, batch = self._queue.get()  # type: ignore[misc]
            if name is _STOP:
                self._queue.task_done()
                if batch is me:
                    return
                continue  # a second stop for an earlier thread that outlived the first
            try:
                self.tenants[name].ingest(batch)
            except Exception as exc:  # pragma: no cover - defensive
                self.metrics.counter(
                    "service_ingest_errors_total", tenant=name
                ).inc()
                self.errors = (self.errors + [f"{name}: {exc!r}"])[-16:]
            finally:
                with self._lock:
                    self._depth_msgs -= len(batch)
                    depth = self._depth_msgs
                self._m_depth.set(float(depth))
                self._queue.task_done()

    def __enter__(self) -> "StreamService":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


class FileTailSource:
    """Stream a JSONL capture file into the service, batch by batch.

    Reads the :mod:`repro.openflow.serialize` line format. With
    ``follow=True`` the source keeps polling for appended lines until
    :meth:`stop` — a live capture tail that waits for a half-written
    line to be completed; otherwise it stops at EOF.
    Undecodable lines — bad JSON, not a control message, a ``ts`` that
    is not a finite number, not UTF-8 — are counted
    (``service_dropped_total`` with ``reason="decode"``) and skipped
    rather than wedging the tail or the tenant.
    Messages of one batch share equal 5-tuples and dpids (see
    :class:`~repro.openflow.serialize.CaptureDecoder`); the sharing tables
    are dropped at every hand-off, so a followed file cannot grow them.
    """

    def __init__(
        self,
        service: StreamService,
        tenant: str,
        path: str,
        *,
        batch_size: int = 256,
        follow: bool = False,
        poll_interval: float = 0.2,
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.path = path
        self.batch_size = max(1, batch_size)
        self.follow = follow
        self.poll_interval = poll_interval
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._decoder = CaptureDecoder()

    def start(self) -> None:
        self._thread = threading.Thread(
            target=self.run, name=f"repro-service-tail-{self.tenant}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the tail thread; ``True`` once it is not running."""
        thread = self._thread
        if thread is not None:
            thread.join(timeout)
        return thread is None or not thread.is_alive()

    def run(self) -> None:
        """Tail the file until EOF (or :meth:`stop` when following)."""
        batch: List[ControlMessage] = []
        # A line the producer has only half written: when following, it
        # is carried until its newline arrives, never decoded torn.
        pending = b""
        with open(self.path, "rb") as fh:
            while not self._stop.is_set():
                line = pending + fh.readline()
                at_eof = not line.endswith(b"\n")
                pending = line if at_eof and self.follow else b""
                if not pending:
                    try:
                        message = self._decoder.line(line.decode("utf-8"))
                    except ValueError:  # UnicodeDecodeError is one
                        self.service.metrics.counter(
                            "service_dropped_total",
                            tenant=self.tenant,
                            reason="decode",
                        ).inc()
                    else:
                        if message is not None:
                            batch.append(message)
                if batch and (at_eof or len(batch) >= self.batch_size):
                    self._hand_off(batch)
                    batch = []
                if at_eof:
                    if not self.follow:
                        return
                    time.sleep(self.poll_interval)
        if batch:
            self._hand_off(batch)

    def _hand_off(self, batch: List[ControlMessage]) -> None:
        self.service.feed(self.tenant, batch)
        self._decoder.forget()


def replay_messages(
    service: StreamService,
    tenant: str,
    messages: Sequence[ControlMessage],
    batch_size: int = 1024,
) -> int:
    """Feed an in-memory capture through the queue in order; returns count.

    The in-process equivalent of a file tail — what the benchmark and the
    simulator integration use.
    """
    total = 0
    for start in range(0, len(messages), batch_size):
        total += service.feed(tenant, list(messages[start : start + batch_size]))
    return total
