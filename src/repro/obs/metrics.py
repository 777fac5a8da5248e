"""Process-local metrics: counters, gauges, and fixed-bucket histograms.

FlowDiff's premise is passive, always-on observation of someone else's
control plane; this module is the same idea turned inward. Every layer of
the reproduction (simulator, switches, controller, modeling pipeline)
accepts a :class:`MetricsRegistry` and records what it does, so scale and
performance questions ("where do events go?", "what is the table miss
rate?") are answered by reading metrics instead of re-running under a
profiler.

Design constraints, in order:

1. **Hot-path cheap.** Instruments are plain attribute math on
   ``__slots__`` objects — no locks, no string formatting, no allocation
   per observation. Callers hold the instrument object directly rather
   than looking it up per event.
2. **Zero cost when off.** The default everywhere is :data:`NOOP_REGISTRY`,
   whose instruments are shared null objects; an uninstrumented run pays
   one no-op method call per observation point at most, and hot loops can
   skip even that by testing :attr:`MetricsRegistry.enabled`.
3. **No dependencies.** Rendering to Prometheus text or JSONL lives in
   :mod:`repro.obs.export`; this module is dicts and floats only.
"""

from __future__ import annotations

import copy
from bisect import bisect_left
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.obs.names import validate_label_name, validate_metric_name

#: ``(name, sorted-label-items)`` — the registry key of one instrument.
MetricKey = Tuple[str, Tuple[Tuple[str, str], ...]]

#: Default histogram buckets (seconds): 100 µs .. 30 s, roughly log-spaced.
#: Chosen to resolve both controller response times (sub-millisecond) and
#: whole-pipeline phases (seconds) without per-call configuration.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
)


def _label_key(labels: Dict[str, str]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "labels", "value")
    kind = "counter"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to the running total."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}{dict(self.labels)}={self.value})"


class Gauge:
    """A point-in-time value that can move both ways."""

    __slots__ = ("name", "labels", "value")
    kind = "gauge"

    def __init__(self, name: str, labels: Tuple[Tuple[str, str], ...] = ()) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current level."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Shift the level by ``amount`` (may be negative)."""
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}{dict(self.labels)}={self.value})"


class Histogram:
    """A fixed-bucket cumulative histogram with sum/count/min/max.

    Buckets are upper bounds; an implicit ``+Inf`` bucket catches the
    overflow, so ``sum(counts) == count`` always holds. Bucket counts are
    *per bucket* here (simpler to update); the Prometheus renderer
    accumulates them into the cumulative form that format requires.
    """

    __slots__ = ("name", "labels", "bounds", "counts", "count", "total", "min", "max")
    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: Tuple[Tuple[str, str], ...] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.labels = labels
        self.bounds = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        """Record one observation."""
        # bisect_left: a value equal to a bound belongs to that bucket
        # (Prometheus ``le`` semantics).
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the covering bucket.

        Coarse by construction (histograms forget exact values); good
        enough for "p99 callback latency" style questions. Returns the
        recorded max for the overflow bucket, 0 when empty.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target and n:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram({self.name}{dict(self.labels)} "
            f"count={self.count} mean={self.mean:.6f})"
        )


Instrument = Union[Counter, Gauge, Histogram]


class MetricsRegistry:
    """A process-local, dependency-free metrics registry.

    Instruments are identified by ``(name, labels)``; asking twice returns
    the same object, so hot paths fetch once and keep the reference::

        reg = MetricsRegistry()
        events = reg.counter("sim_events_total")
        for ...:
            events.inc()

    Asking for an existing name with a different instrument kind is a
    programming error and raises immediately.
    """

    #: Hot loops test this instead of paying even a no-op call.
    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[MetricKey, Instrument] = {}
        #: Labels stamped on every instrument this registry creates.
        self._labels: Dict[str, str] = {}

    def labelled(self, **labels: str) -> "MetricsRegistry":
        """A view that stamps ``labels`` on every instrument it creates
        and looks up.

        The view shares this registry's storage, so what it records is
        iterated, rendered and exported with everything else; two views
        with different labels (one per tenant, say) keep separate series
        under the same metric names.
        """
        view = copy.copy(self)
        view._labels = {**self._labels, **labels}
        return view

    # -- instrument factories ------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create the counter ``name`` with ``labels``."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create the gauge ``name`` with ``labels``."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(
        self,
        name: str,
        buckets: Optional[Sequence[float]] = None,
        **labels: str,
    ) -> Histogram:
        """Get or create the histogram ``name`` with ``labels``.

        ``buckets`` applies only on first creation; later calls reuse the
        existing instrument unchanged.
        """
        return self._get_or_create(Histogram, name, labels, buckets or DEFAULT_BUCKETS)

    @staticmethod
    def _validate(name: str, labels: Dict[str, str]) -> None:
        """Reject illegal Prometheus names at creation time (never per
        observation — lookups of an existing instrument skip this)."""
        validate_metric_name(name)
        for label in labels:
            validate_label_name(label)

    def _get_or_create(self, cls, name: str, labels: Dict[str, str], *args):
        if self._labels:
            labels = {**self._labels, **labels}
        key = (name, _label_key(labels))
        found = self._instruments.get(key)
        if found is not None:
            if not isinstance(found, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {found.kind}"
                )
            return found
        self._validate(name, labels)
        made = cls(name, key[1], *args)
        self._instruments[key] = made
        return made

    # -- introspection --------------------------------------------------

    def __iter__(self) -> Iterator[Instrument]:
        """All instruments, sorted by (name, labels) for stable output."""
        return iter(sorted(self._instruments.values(), key=lambda m: (m.name, m.labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str, **labels: str) -> Optional[Instrument]:
        """The instrument at ``(name, labels)``, or None."""
        return self._instruments.get((name, _label_key({**self._labels, **labels})))

    def value(self, name: str, **labels: str) -> float:
        """Shortcut: the scalar value of a counter/gauge (0.0 if absent)."""
        found = self.get(name, **labels)
        if found is None:
            return 0.0
        if isinstance(found, Histogram):
            return float(found.count)
        return found.value

    def total(self, name: str) -> float:
        """Sum a counter/gauge across all label sets (histograms: counts)."""
        out = 0.0
        for metric in self._instruments.values():
            if metric.name != name:
                continue
            out += float(metric.count) if isinstance(metric, Histogram) else metric.value
        return out


class _NoopInstrument:
    """One shared null object standing in for every instrument kind."""

    __slots__ = ()
    kind = "noop"
    name = "noop"
    labels: Tuple[Tuple[str, str], ...] = ()
    value = 0.0
    count = 0
    total = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0


_NOOP_INSTRUMENT = _NoopInstrument()


class NoopRegistry(MetricsRegistry):
    """A registry that records nothing — the default everywhere.

    Uninstrumented callers share :data:`NOOP_REGISTRY` so the observability
    hooks cost a single no-op method call (or nothing at all where the hot
    loop guards on :attr:`enabled`).
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, **labels: str):  # type: ignore[override]
        return _NOOP_INSTRUMENT

    def gauge(self, name: str, **labels: str):  # type: ignore[override]
        return _NOOP_INSTRUMENT

    def histogram(self, name: str, buckets=None, **labels: str):  # type: ignore[override]
        return _NOOP_INSTRUMENT

    def labelled(self, **labels: str) -> "NoopRegistry":
        return self


#: The shared do-nothing registry; identity-comparable (`is NOOP_REGISTRY`).
NOOP_REGISTRY = NoopRegistry()
