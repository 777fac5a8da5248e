"""The discrete-event simulation core: a clock and a priority event queue.

Classic calendar-queue design: events are ``(time, sequence, callback)``
triples popped in time order, with the sequence number guaranteeing FIFO
order among simultaneous events (determinism matters because every
experiment is seeded and asserted on).
"""

from __future__ import annotations

import heapq
import time
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule_at(1.0, lambda: ...)
        sim.run(until=10.0)

    When given a real :class:`~repro.obs.metrics.MetricsRegistry`, the run
    loop records events executed, queue depth, and a callback wall-clock
    latency histogram. With the default :data:`NOOP_REGISTRY` the loop is
    byte-for-byte the uninstrumented hot path (guarded by one attribute
    check made before the loop starts, not per event).
    """

    def __init__(
        self,
        start_time: float = 0.0,
        metrics: MetricsRegistry = NOOP_REGISTRY,
    ) -> None:
        self._now = start_time
        self._seq = 0
        self._queue: List[Tuple[float, int, Callable[[], Any]]] = []
        self._events_processed = 0
        self.metrics = metrics
        self._m_events = metrics.counter("sim_events_total")
        self._m_queue_depth = metrics.gauge("sim_queue_depth")
        self._m_callback = metrics.histogram("sim_callback_seconds")

    @property
    def now(self) -> float:
        """The current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events executed so far (a cheap progress/scale metric)."""
        return self._events_processed

    def schedule_at(self, when: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` at absolute time ``when``.

        Raises:
            ValueError: if ``when`` is in the simulated past.
        """
        if when < self._now:
            raise ValueError(
                f"cannot schedule at {when:.6f}; clock is already at {self._now:.6f}"
            )
        heapq.heappush(self._queue, (when, self._seq, callback))
        self._seq += 1
        # Keep the gauge current on push as well as in the run loop, so
        # depth observed after a burst of schedules (before run()) is not
        # stale. Unconditional: a NOOP gauge's set() is a no-op method
        # call, which keeps the uninstrumented fast path branch-free.
        self._m_queue_depth.set(len(self._queue))

    def schedule_in(self, delay: float, callback: Callable[[], Any]) -> None:
        """Run ``callback`` after ``delay`` seconds of simulated time.

        Raises:
            ValueError: if ``delay`` is negative.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self.schedule_at(self._now + delay, callback)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Args:
            until: stop once the next event would be later than this time
                (the clock is advanced to ``until``). ``None`` runs to
                exhaustion.
            max_events: safety valve for runaway simulations.

        Returns:
            The number of events executed by this call.
        """
        executed = 0
        instrumented = self.metrics.enabled
        while self._queue:
            when, _, callback = self._queue[0]
            if until is not None and when > until:
                break
            if max_events is not None and executed >= max_events:
                break
            heapq.heappop(self._queue)
            self._now = when
            if instrumented:
                t0 = time.perf_counter()  # flowlint: disable=sim-clock -- metrics duration, never enters sim state
                callback()
                self._m_callback.observe(time.perf_counter() - t0)  # flowlint: disable=sim-clock -- metrics duration, never enters sim state
            else:
                callback()
            executed += 1
            self._events_processed += 1
        if instrumented:
            self._m_events.inc(executed)
            self._m_queue_depth.set(len(self._queue))
        if until is not None and self._now < until:
            self._now = until
        return executed

    def peek(self) -> Optional[float]:
        """The time of the next pending event, or None when idle."""
        return self._queue[0][0] if self._queue else None

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
