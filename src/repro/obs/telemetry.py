"""The data-plane telemetry observatory: bounded per-component time series.

FlowDiff diagnoses a data center from its *control* plane; this module
watches the simulated *data* plane itself — per-link utilization and
drops, flow-table occupancy and evictions, controller PacketIn rates and
reply latency, application RPC latency — so that injected faults, hashing
imbalance, and congestion are visible directly, not only through their
behavioral-model shadows. The 007 line of work (arXiv:1802.07222) makes
per-link evidence the unit of localization; these series are the raw
material the evidence chains and the voting localizer consume.

Memory is bounded by construction, O(components), never O(events):

* every ``(kind, component, metric)`` series folds samples into one open
  **window accumulator** (count/sum/min/max/last plus a decimating
  reservoir for p95) — constant size per series;
* closed windows land in a fixed-capacity **ring buffer** (old windows
  evicted, cumulative totals preserved);
* the hot path is one dict lookup plus attribute math; with the shared
  :data:`NOOP_TELEMETRY` the cost is a single attribute test, mirroring
  :data:`~repro.obs.metrics.NOOP_REGISTRY`.

Export rides the existing :mod:`repro.obs.export` grammar: series render
into a :class:`~repro.obs.metrics.MetricsRegistry` under the
``telemetry_*`` metric family (Prometheus text format), and to JSONL
event dicts that round-trip losslessly via :func:`plane_from_events`.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Deque, Dict, Iterator, List, Optional, Tuple

from repro.analysis.stats import percentile_index
from repro.obs.metrics import MetricsRegistry

#: Series kinds the telemetry plane knows about; the ``telemetry_*``
#: metric-name family (see :mod:`repro.obs.names`) is ``telemetry_<kind>_
#: <metric>``, so this tuple is the first segment's closed vocabulary.
SERIES_KINDS: Tuple[str, ...] = ("link", "switch", "controller", "app", "host")


class WindowStat:
    """Immutable rollup of one closed sampling window."""

    __slots__ = ("t_start", "t_end", "count", "total", "vmin", "vmax", "last", "p95")

    def __init__(
        self,
        t_start: float,
        t_end: float,
        count: int,
        total: float,
        vmin: float,
        vmax: float,
        last: float,
        p95: float,
    ) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.count = count
        self.total = total
        self.vmin = vmin
        self.vmax = vmax
        self.last = last
        self.p95 = p95

    @property
    def mean(self) -> float:
        """Arithmetic mean of the window's samples (0 when empty)."""
        return self.total / self.count if self.count else 0.0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def rate(self) -> float:
        """Window sum per second — the natural reading of counter series."""
        span = self.duration
        return self.total / span if span > 0 else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t_start": self.t_start,
            "t_end": self.t_end,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin,
            "max": self.vmax,
            "mean": self.mean,
            "last": self.last,
            "p95": self.p95,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WindowStat":
        return cls(
            t_start=data["t_start"],
            t_end=data["t_end"],
            count=data["count"],
            total=data["sum"],
            vmin=data["min"],
            vmax=data["max"],
            last=data["last"],
            p95=data["p95"],
        )

    def _key(self) -> Tuple[float, float, int, float, float, float, float, float]:
        return (
            self.t_start,
            self.t_end,
            self.count,
            self.total,
            self.vmin,
            self.vmax,
            self.last,
            self.p95,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WindowStat):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WindowStat([{self.t_start:g},{self.t_end:g}) n={self.count} "
            f"mean={self.mean:g} p95={self.p95:g})"
        )


class _WindowAccumulator:
    """Streaming accumulator for the currently open window.

    The p95 reservoir is a decimating sample buffer: once full it keeps
    every second element and doubles its stride, so memory stays at
    ``sample_capacity`` while long windows still yield a deterministic
    (if coarser) tail estimate. Windows with at most ``sample_capacity``
    samples produce the *exact* order-statistic p95.
    """

    __slots__ = (
        "t_start",
        "t_end",
        "count",
        "total",
        "vmin",
        "vmax",
        "last",
        "samples",
        "capacity",
        "stride",
        "_phase",
    )

    def __init__(self, t_start: float, t_end: float, capacity: int) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.count = 0
        self.total = 0.0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.last = 0.0
        self.samples: List[float] = []
        self.capacity = max(8, capacity)
        self.stride = 1
        self._phase = 0

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.last = value
        self._phase += 1
        if self._phase >= self.stride:
            self._phase = 0
            self.samples.append(value)
            if len(self.samples) >= self.capacity:
                del self.samples[::2]
                self.stride *= 2

    def close(self) -> WindowStat:
        if self.count == 0:
            return WindowStat(self.t_start, self.t_end, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
        ordered = sorted(self.samples)
        p95 = ordered[percentile_index(len(ordered), 0.95)] if ordered else self.last
        return WindowStat(
            self.t_start,
            self.t_end,
            self.count,
            self.total,
            self.vmin,
            self.vmax,
            self.last,
            p95,
        )


class ComponentSeries:
    """One bounded time series: a component's view of one metric.

    Attributes:
        kind: component family (one of :data:`SERIES_KINDS`).
        component: component identity — a switch dpid, an ``a--b`` link
            edge (sorted endpoints, matching evidence-chain naming), an
            application or controller name.
        metric: what is measured (``utilization``, ``drops``, ...).
        counter: True when samples are increments (drops, bytes) whose
            window *sum* and running *total* are the meaningful readings;
            False for level samples (utilization, latency) where
            mean/p95/last matter.
        windows: ring buffer of closed :class:`WindowStat` rollups.
    """

    __slots__ = (
        "kind",
        "component",
        "metric",
        "counter",
        "window",
        "windows",
        "total",
        "count",
        "vmin",
        "vmax",
        "last",
        "last_at",
        "_acc",
        "_sample_capacity",
    )

    def __init__(
        self,
        kind: str,
        component: str,
        metric: str,
        window: float = 1.0,
        capacity: int = 120,
        sample_capacity: int = 256,
        counter: bool = False,
    ) -> None:
        self.kind = kind
        self.component = component
        self.metric = metric
        self.counter = counter
        self.window = max(1e-9, window)
        self.windows: Deque[WindowStat] = deque(maxlen=max(1, capacity))
        self.total = 0.0
        self.count = 0
        self.vmin = float("inf")
        self.vmax = float("-inf")
        self.last = 0.0
        self.last_at = 0.0
        self._acc: Optional[_WindowAccumulator] = None
        self._sample_capacity = sample_capacity

    @property
    def name(self) -> str:
        """The series' ``telemetry_*`` family metric name."""
        return f"telemetry_{self.kind}_{self.metric}"

    def record(self, t: float, value: float) -> None:
        """Fold one sample at stream time ``t`` into the series."""
        self.total += value
        self.count += 1
        if value < self.vmin:
            self.vmin = value
        if value > self.vmax:
            self.vmax = value
        self.last = value
        if t > self.last_at:
            self.last_at = t
        acc = self._acc
        if acc is None:
            acc = self._open_window(t)
        elif t >= acc.t_end:
            self.windows.append(acc.close())
            acc = self._open_window(t)
        acc.add(value)

    def _open_window(self, t: float) -> _WindowAccumulator:
        start = math.floor(t / self.window) * self.window
        self._acc = _WindowAccumulator(start, start + self.window, self._sample_capacity)
        return self._acc

    def flush(self, now: Optional[float] = None, close_partial: bool = True) -> None:
        """Close the open window (if ``now`` passed its end, or forced)."""
        acc = self._acc
        if acc is None or acc.count == 0:
            return
        if now is not None and now < acc.t_end and not close_partial:
            return
        self.windows.append(acc.close())
        self._acc = None

    def closed_windows(self) -> Tuple[WindowStat, ...]:
        """The retained closed windows, oldest first."""
        return tuple(self.windows)

    def peak_window(self) -> Optional[WindowStat]:
        """The retained window with the highest reading (None when empty).

        Counter series compare window sums; level series compare maxima —
        so "peak" always means "worst", which is what heatmaps and
        evidence chains want to surface.
        """
        if not self.windows:
            return None
        if self.counter:
            return max(self.windows, key=lambda w: (w.total, w.t_start))
        return max(self.windows, key=lambda w: (w.vmax, w.t_start))

    def peak_value(self) -> float:
        """The peak window's reading (0.0 when the series is empty)."""
        peak = self.peak_window()
        if peak is None:
            return 0.0
        return peak.total if self.counter else peak.vmax

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "type": "telemetry_series",
            "kind": self.kind,
            "component": self.component,
            "metric": self.metric,
            "counter": self.counter,
            "window_s": self.window,
            "count": self.count,
            "sum": self.total,
            "min": self.vmin if self.count else 0.0,
            "max": self.vmax if self.count else 0.0,
            "last": self.last,
            "last_at": self.last_at,
            "windows": [w.to_dict() for w in self.windows],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComponentSeries({self.kind}/{self.component}/{self.metric} "
            f"n={self.count} windows={len(self.windows)})"
        )


class TelemetryPlane:
    """The registry of per-component series sampled during a simulation.

    One plane serves a whole network: switches, links, controllers, and
    applications all record into it, keyed by ``(kind, component,
    metric)``. Hot paths should test :attr:`enabled` first and may hold
    the :class:`ComponentSeries` returned by :meth:`series` to skip the
    dict lookup per sample.

    Args:
        window: rollup window length in stream (simulation) seconds.
        capacity: closed windows retained per series (the ring bound).
        sample_capacity: p95 reservoir size per open window.
    """

    #: Hot loops test this instead of paying even a no-op call.
    enabled = True

    def __init__(
        self,
        window: float = 1.0,
        capacity: int = 120,
        sample_capacity: int = 256,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.window = window
        self.capacity = capacity
        self.sample_capacity = sample_capacity
        self._series: Dict[Tuple[str, str, str], ComponentSeries] = {}

    def series(
        self, kind: str, component: str, metric: str, counter: bool = False
    ) -> ComponentSeries:
        """Get or create the series at ``(kind, component, metric)``."""
        key = (kind, str(component), metric)
        found = self._series.get(key)
        if found is None:
            if kind not in SERIES_KINDS:
                raise ValueError(
                    f"unknown series kind {kind!r}; expected one of {SERIES_KINDS}"
                )
            found = ComponentSeries(
                kind,
                key[1],
                metric,
                window=self.window,
                capacity=self.capacity,
                sample_capacity=self.sample_capacity,
                counter=counter,
            )
            self._series[key] = found
        return found

    def record(
        self,
        kind: str,
        component: str,
        metric: str,
        t: float,
        value: float,
        counter: bool = False,
    ) -> None:
        """Convenience one-shot record (hot paths hold the series)."""
        self.series(kind, component, metric, counter=counter).record(t, value)

    def flush(self, now: Optional[float] = None, close_partial: bool = True) -> None:
        """Close open windows across every series (end-of-run rollup)."""
        for series in self._series.values():
            series.flush(now, close_partial=close_partial)

    # -- introspection --------------------------------------------------

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterator[ComponentSeries]:
        """All series, sorted by (kind, component, metric) for stable output."""
        return iter(
            sorted(
                self._series.values(),
                key=lambda s: (s.kind, s.component, s.metric),
            )
        )

    def get(self, kind: str, component: str, metric: str) -> Optional[ComponentSeries]:
        return self._series.get((kind, str(component), metric))

    def components(self, kind: str) -> List[str]:
        """Distinct component ids of one kind, sorted."""
        return sorted({s.component for s in self._series.values() if s.kind == kind})

    def for_component(self, component: str) -> List[ComponentSeries]:
        """Every series whose component matches ``component``.

        A bare node name also matches ``a--b`` link series touching it,
        and an ``a--b`` suspect matches the same link regardless of
        endpoint order — mirroring
        :meth:`~repro.core.diff.report.DiagnosisReport.changes_for`.
        """
        wanted = set(component.split("--")) if "--" in component else {component}
        out = []
        for series in self:
            have = (
                set(series.component.split("--"))
                if "--" in series.component
                else {series.component}
            )
            if component == series.component or wanted & have:
                out.append(series)
        return out

    def summary(self) -> Dict[str, Any]:
        """Totals for health endpoints and CLI footers."""
        kinds: Dict[str, int] = {}
        samples = 0
        for series in self._series.values():
            kinds[series.kind] = kinds.get(series.kind, 0) + 1
            samples += series.count
        return {
            "series": len(self._series),
            "samples": samples,
            "window_s": self.window,
            "capacity": self.capacity,
            "kinds": dict(sorted(kinds.items())),
        }


class _NoopSeries:
    """Shared null series: records nothing, reports emptiness."""

    __slots__ = ()
    kind = "noop"
    component = ""
    metric = "noop"
    counter = False
    count = 0
    total = 0.0
    last = 0.0
    last_at = 0.0
    mean = 0.0
    windows: Deque[WindowStat] = deque(maxlen=1)

    def record(self, t: float, value: float) -> None:
        pass

    def flush(self, now: Optional[float] = None, close_partial: bool = True) -> None:
        pass

    def closed_windows(self) -> Tuple[WindowStat, ...]:
        return ()

    def peak_window(self) -> Optional[WindowStat]:
        return None

    def peak_value(self) -> float:
        return 0.0


_NOOP_SERIES = _NoopSeries()


class NoopTelemetry(TelemetryPlane):
    """A plane that records nothing — the default everywhere.

    Identity-comparable (``plane is NOOP_TELEMETRY``); hot loops guard on
    :attr:`enabled` and skip their sampling entirely.
    """

    enabled = False

    def series(self, kind, component, metric, counter=False):  # type: ignore[override]
        return _NOOP_SERIES

    def record(self, kind, component, metric, t, value, counter=False) -> None:
        pass


#: The shared do-nothing telemetry plane.
NOOP_TELEMETRY = NoopTelemetry()


# ----------------------------------------------------------------------
# Export: the obs/export grammar (registry -> Prometheus, JSONL events)
# ----------------------------------------------------------------------

#: The ``stat`` label values a gauge-like series exports per window.
_EXPORT_STATS = ("last", "mean", "p95", "min", "max")


def telemetry_registry(
    plane: TelemetryPlane, registry: Optional[MetricsRegistry] = None
) -> MetricsRegistry:
    """Render the plane into a :class:`MetricsRegistry`.

    Counter series become ``telemetry_<kind>_<metric>`` counters holding
    the cumulative total; level series become gauges labeled
    ``{component=..., stat=last|mean|p95|min|max}`` over the most recent
    closed window (falling back to lifetime aggregates when no window has
    closed yet). The result renders through the exact same
    :func:`~repro.obs.export.render_prometheus` /
    :func:`~repro.obs.export.write_jsonl` grammar as every other metric.
    """
    registry = registry or MetricsRegistry()
    for series in plane:
        if series.counter:
            counter = registry.counter(series.name, component=series.component)
            counter.value = series.total
            continue
        windows = series.closed_windows()
        if windows:
            w = windows[-1]
            values = {
                "last": w.last,
                "mean": w.mean,
                "p95": w.p95,
                "min": w.vmin,
                "max": w.vmax,
            }
        else:
            values = {
                "last": series.last,
                "mean": series.mean,
                "p95": series.last,
                "min": series.vmin if series.count else 0.0,
                "max": series.vmax if series.count else 0.0,
            }
        for stat in _EXPORT_STATS:
            gauge = registry.gauge(series.name, component=series.component, stat=stat)
            gauge.value = values[stat]
    return registry


def iter_telemetry_events(plane: TelemetryPlane) -> Iterator[Dict[str, Any]]:
    """Yield one JSON-ready dict per series (windows included)."""
    for series in plane:
        yield series.to_dict()


def plane_from_events(events: List[Dict[str, Any]]) -> TelemetryPlane:
    """Rebuild a plane from parsed JSONL events (round-trip helper).

    The complement of :func:`iter_telemetry_events` as written by
    ``repro telemetry --out``; non-telemetry events are skipped so a
    mixed stream (metrics + telemetry) loads unchanged.
    """
    plane = TelemetryPlane()
    for event in events:
        if event.get("type") != "telemetry_series":
            continue
        window = float(event.get("window_s", 1.0))
        plane.window = window
        series = ComponentSeries(
            event["kind"],
            event["component"],
            event["metric"],
            window=window,
            capacity=max(plane.capacity, len(event.get("windows", ()))),
            counter=bool(event.get("counter", False)),
        )
        series.count = event.get("count", 0)
        series.total = event.get("sum", 0.0)
        series.vmin = event.get("min", 0.0) if series.count else float("inf")
        series.vmax = event.get("max", 0.0) if series.count else float("-inf")
        series.last = event.get("last", 0.0)
        series.last_at = event.get("last_at", 0.0)
        for w in event.get("windows", ()):
            series.windows.append(WindowStat.from_dict(w))
        plane._series[(series.kind, series.component, series.metric)] = series
    return plane


# ----------------------------------------------------------------------
# CLI rendering
# ----------------------------------------------------------------------


def render_tables(plane: TelemetryPlane, top: int = 10) -> str:
    """Per-component telemetry tables, one block per series kind."""
    lines: List[str] = []
    for kind in SERIES_KINDS:
        rows = _kind_rows(plane, kind)
        if not rows:
            continue
        if lines:
            lines.append("")
        lines.append(f"{kind} telemetry")
        lines.append("-" * len(lines[-1]))
        header = rows[0]
        widths = [
            max(len(str(r[i])) for r in rows) for i in range(len(header))
        ]
        for idx, row in enumerate(rows[: top + 1]):
            lines.append(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip()
            )
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        if len(rows) - 1 > top:
            lines.append(f"... and {len(rows) - 1 - top} more")
    summary = plane.summary()
    if lines:
        lines.append("")
    lines.append(
        f"{summary['series']} series, {summary['samples']} samples, "
        f"{summary['window_s']:g}s windows (ring capacity {summary['capacity']})"
    )
    return "\n".join(lines)


def _kind_rows(plane: TelemetryPlane, kind: str) -> List[Tuple[str, ...]]:
    """Table rows for one kind: component x metric summaries, worst first."""
    by_component: Dict[str, Dict[str, ComponentSeries]] = {}
    metrics: List[str] = []
    for series in plane:
        if series.kind != kind:
            continue
        by_component.setdefault(series.component, {})[series.metric] = series
        if series.metric not in metrics:
            metrics.append(series.metric)
    if not by_component:
        return []
    rows: List[Tuple[str, ...]] = [("component", *metrics)]

    def badness(component: str) -> float:
        return sum(
            s.peak_value() for s in by_component[component].values()
        )

    for component in sorted(by_component, key=lambda c: (-badness(c), c)):
        cells = [component]
        for metric in metrics:
            series = by_component[component].get(metric)
            if series is None or series.count == 0:
                cells.append("-")
            elif series.counter:
                cells.append(f"{series.total:g} (peak {series.peak_value():g}/win)")
            else:
                peak = series.peak_window()
                p95 = peak.p95 if peak else series.last
                cells.append(f"last {series.last:.4g} p95 {p95:.4g} max {series.vmax:.4g}")
        rows.append(tuple(cells))
    return rows
