"""Nestable spans: where wall-clock (and sim-clock) time goes.

A :class:`Tracer` records a tree of named spans. Each ``with
tracer.span("phase"):`` block captures wall-clock duration via
``time.perf_counter`` and, when the tracer was given a simulation clock,
the simulated time covered as well — so "the stability phase took 40 ms of
CPU" and "this window covered 30 s of simulated traffic" come out of the
same tree.

The default everywhere is :data:`NOOP_TRACER`, whose ``span`` returns a
shared do-nothing context manager; uninstrumented code pays one method
call per phase boundary (phases, not packets — spans are deliberately too
coarse for per-event use; that is what histograms are for).
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, Iterator, List, Optional


def wall_now() -> float:
    """The observability wall clock: a monotonic seconds reading.

    This is the one sanctioned wall-clock read for latency measurement in
    packages under the flowlint ``sim-clock`` rule (the monitor, the
    streaming service). Simulation and diagnosis logic must never branch
    on it — it exists solely to feed duration histograms and span
    timings, and it lives here because ``repro.obs`` is the layer that is
    *supposed* to look at the real clock.
    """
    return time.perf_counter()


class Span:
    """One timed region; children are spans opened while it was active."""

    __slots__ = (
        "name",
        "meta",
        "children",
        "start_wall",
        "end_wall",
        "start_sim",
        "end_sim",
    )

    def __init__(
        self,
        name: str,
        meta: Optional[Dict[str, Any]] = None,
        start_sim: Optional[float] = None,
    ) -> None:
        self.name = name
        self.meta = meta or {}
        self.children: List["Span"] = []
        self.start_wall = time.perf_counter()
        self.end_wall: Optional[float] = None
        self.start_sim = start_sim
        self.end_sim: Optional[float] = None

    @property
    def duration(self) -> float:
        """Wall-clock seconds spent in the span (so far, if still open)."""
        end = self.end_wall if self.end_wall is not None else time.perf_counter()
        return end - self.start_wall

    @property
    def sim_duration(self) -> Optional[float]:
        """Simulated seconds covered, when a sim clock was attached."""
        if self.start_sim is None or self.end_sim is None:
            return None
        return self.end_sim - self.start_sim

    @property
    def self_duration(self) -> float:
        """Wall-clock time not attributed to any child span."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name}, {self.duration * 1000:.3f}ms, {len(self.children)} children)"


class _SpanContext:
    """The context manager returned by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close(self._span)


class Tracer:
    """Collects a forest of spans for one profiled operation.

    Args:
        sim_clock: optional zero-arg callable returning the current
            simulation time; when given, every span also records the
            simulated interval it covered.
    """

    def __init__(self, sim_clock: Optional[Callable[[], float]] = None) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._sim_clock = sim_clock

    @property
    def enabled(self) -> bool:
        return True

    def span(self, name: str, **meta: Any) -> _SpanContext:
        """Open a nested span; use as ``with tracer.span("compare"):``."""
        start_sim = self._sim_clock() if self._sim_clock is not None else None
        span = Span(name, meta=meta or None, start_sim=start_sim)
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return _SpanContext(self, span)

    def _close(self, span: Span) -> None:
        span.end_wall = time.perf_counter()
        if self._sim_clock is not None:
            span.end_sim = self._sim_clock()
        # Unwind to (and past) the closing span so an exception inside a
        # parent block cannot leave orphaned children on the stack.
        while self._stack:
            top = self._stack.pop()
            if top.end_wall is None and top is not span:
                top.end_wall = span.end_wall
                if self._sim_clock is not None:
                    top.end_sim = span.end_sim
            if top is span:
                break

    # -- introspection --------------------------------------------------

    def walk(self) -> Iterator[Span]:
        """Every span in the forest, depth-first, parents before children."""
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def find(self, name: str) -> List[Span]:
        """All spans named ``name``, in depth-first order."""
        return [s for s in self.walk() if s.name == name]

    def total(self, name: str) -> float:
        """Total wall-clock seconds across all spans named ``name``."""
        return sum(s.duration for s in self.find(name))


class _NoopSpanContext:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpanContext()


class NoopTracer(Tracer):
    """A tracer that records nothing — the default everywhere."""

    def __init__(self) -> None:
        super().__init__()

    @property
    def enabled(self) -> bool:
        return False

    def span(self, name: str, **meta: Any):  # type: ignore[override]
        return _NOOP_SPAN


#: The shared do-nothing tracer; identity-comparable (`is NOOP_TRACER`).
NOOP_TRACER = NoopTracer()
