"""Span-scoped function profiling: which functions burn each phase.

Spans say *that* ``model/stability`` costs 120 ms; this module says
*where* — per-function inclusive/exclusive time attributed to the span
that was open while the function ran. A :class:`SpanProfiler` registers
as a hook on a real :class:`~repro.obs.tracing.Tracer` and keeps one
``cProfile.Profile`` per open span, switching profiles at every span
boundary, so a function called from two phases is billed to each phase
separately. Off by default everywhere: the uninstrumented pipeline never
constructs one, and a hook-less tracer pays a single truthiness check
per boundary (benchmarked and gated <5% in the microbench suite).

Results fold into the collapsed-stack format Brendan Gregg's flamegraph
tooling popularized — ``span;subspan;file.py:func <value>`` lines — which
:mod:`repro.obs.flamegraph` renders as a self-contained SVG. Values are
microseconds under the default wall timer; under a
:func:`deterministic_timer` they are profile-event counts, which makes
the folded output (and therefore the rendered SVG) byte-identical across
runs of the same seeded input.
"""

from __future__ import annotations

import cProfile
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Tuple,
)

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.tracing import Span, Tracer


def deterministic_timer() -> Callable[[], int]:
    """A cProfile timer that counts profile events instead of seconds.

    Every call advances a counter by one, so two runs of the same code
    path produce identical "timings" — the property behind
    ``repro profile --deterministic`` and the byte-identical-SVG tests.
    Slow (one Python call per profile event); for measurement use the
    default wall timer and accept run-to-run jitter.
    """
    state = {"now": 0}

    def timer() -> int:
        state["now"] += 1
        return state["now"]

    return timer


def _frame_key(code: Any) -> str:
    """A stable, machine-independent label for one profiled frame.

    Code objects become ``relative/path.py:func`` with the path cut at
    the innermost ``repro/`` (or basename otherwise); cProfile's
    built-in entries are plain strings already.
    """
    if isinstance(code, str):
        return code
    filename = code.co_filename.replace("\\", "/")
    marker = filename.rfind("/repro/")
    if marker >= 0:
        short = filename[marker + 1 :]
    else:
        short = filename.rsplit("/", 1)[-1]
    return f"{short}:{code.co_name}"


class _FuncStat:
    """Accumulated per-(span path, function) numbers."""

    __slots__ = ("inline", "cumulative", "calls")

    def __init__(self) -> None:
        self.inline = 0.0
        self.cumulative = 0.0
        self.calls = 0


class SpanProfiler:
    """A tracer hook that profiles the functions inside every span.

    Usage::

        tracer = Tracer()
        profiler = SpanProfiler()
        tracer.add_hook(profiler)
        fd = FlowDiff(tracer=tracer)
        ...                         # run the pipeline
        profiler.write_folded("profile.folded")

    One ``cProfile.Profile`` exists per *open* span; entering a child
    span parks the parent's profile and exits resume it, so each span's
    stats cover exactly its self time and fold under its own path. The
    per-boundary switch costs microseconds against phase-scale spans.

    Args:
        timer: optional custom timer handed to ``cProfile.Profile``
            (see :func:`deterministic_timer`). ``None`` means wall time.
        metrics: optional registry; profiled-span counts are recorded
            under the ``profile_*`` metric family.
    """

    def __init__(
        self,
        timer: Optional[Callable[[], Any]] = None,
        metrics: MetricsRegistry = NOOP_REGISTRY,
    ) -> None:
        self._timer = timer
        # Open spans, outermost first: (span, profile, path names).
        self._stack: List[Tuple[Span, cProfile.Profile, Tuple[str, ...]]] = []
        # Collected stats: span path -> frame key -> _FuncStat.
        self._stats: Dict[Tuple[str, ...], Dict[str, _FuncStat]] = {}
        self._m_spans = metrics.counter("profile_spans_total")

    # -- Tracer hook protocol -------------------------------------------

    def span_opened(self, span: Span) -> None:
        if self._stack:
            self._stack[-1][1].disable()
            path = self._stack[-1][2] + (span.name,)
        else:
            path = (span.name,)
        profile = (
            cProfile.Profile(self._timer)
            if self._timer is not None
            else cProfile.Profile()
        )
        self._stack.append((span, profile, path))
        profile.enable()

    def span_closed(self, span: Span) -> None:
        if not self._stack or self._stack[-1][0] is not span:
            # Attached mid-tree: a close for a span we never saw open.
            return
        _, profile, path = self._stack.pop()
        profile.disable()
        self._collect(path, profile)
        if self._stack:
            self._stack[-1][1].enable()

    # -- collection ------------------------------------------------------

    def _collect(self, path: Tuple[str, ...], profile: cProfile.Profile) -> None:
        funcs = self._stats.setdefault(path, {})
        for entry in profile.getstats():
            stat = funcs.setdefault(_frame_key(entry.code), _FuncStat())
            stat.inline += entry.inlinetime
            stat.cumulative += entry.totaltime
            stat.calls += entry.callcount
        self._m_spans.inc()

    # -- results ---------------------------------------------------------

    def folded(self) -> Dict[str, float]:
        """Collapsed stacks: ``span;subspan;file.py:func`` -> seconds.

        Exclusive (inline) time only, so summing every line under one
        span-path prefix reproduces that span's inclusive duration —
        the reconciliation contract the tests pin.
        """
        out: Dict[str, float] = {}
        for path, funcs in self._stats.items():
            base = ";".join(path)
            for key, stat in funcs.items():
                if stat.inline <= 0.0:
                    continue
                folded_key = f"{base};{key}"
                out[folded_key] = out.get(folded_key, 0.0) + stat.inline
        return out

    def folded_lines(self, scale: float = 1e6) -> List[str]:
        """The folded stacks as sorted ``stack value`` lines.

        ``scale`` converts seconds to the integer unit written (default
        microseconds, the flamegraph-tooling convention). Deterministic:
        lines are sorted and values rounded, so equal profiles serialize
        identically.
        """
        folded = self.folded()
        return [
            f"{stack} {round(value * scale)}"
            for stack, value in sorted(folded.items())
            if round(value * scale) > 0
        ]

    def write_folded(self, path_or_file: Any, scale: float = 1e6) -> int:
        """Write the folded stacks; returns the number of lines."""
        lines = self.folded_lines(scale=scale)
        if hasattr(path_or_file, "write"):
            fh: IO[str] = path_or_file
            fh.write("\n".join(lines) + "\n")
        else:
            with open(path_or_file, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        return len(lines)

    def phase_totals(self) -> Dict[str, float]:
        """Inclusive profiled seconds per span path (slash-joined).

        The profiled counterpart of
        :func:`repro.obs.profile.phase_timings`: ``model`` includes every
        function billed to ``model`` itself *and* to any span below it.
        """
        out: Dict[str, float] = {}
        for path, funcs in self._stats.items():
            exclusive = sum(stat.inline for stat in funcs.values())
            for depth in range(len(path)):
                prefix = "/".join(path[: depth + 1])
                out[prefix] = out.get(prefix, 0.0) + exclusive
        return out

    def function_rows(
        self, phase: Optional[str] = None, top: int = 20
    ) -> List[Dict[str, Any]]:
        """The hottest functions, exclusive-time first, as table rows.

        Args:
            phase: restrict to one slash-joined span path prefix
                (``model/stability``); ``None`` aggregates every span.
            top: row budget.
        """
        wanted: Optional[Tuple[str, ...]] = (
            tuple(phase.split("/")) if phase else None
        )
        merged: Dict[str, _FuncStat] = {}
        for path, funcs in self._stats.items():
            if wanted is not None and path[: len(wanted)] != wanted:
                continue
            for key, stat in funcs.items():
                agg = merged.setdefault(key, _FuncStat())
                agg.inline += stat.inline
                agg.cumulative += stat.cumulative
                agg.calls += stat.calls
        ranked = sorted(
            merged.items(), key=lambda item: (-item[1].inline, item[0])
        )
        return [
            {
                "function": key,
                "exclusive_s": stat.inline,
                "inclusive_s": stat.cumulative,
                "calls": stat.calls,
            }
            for key, stat in ranked[: max(0, top)]
        ]


def attach_profiler(
    tracer: Tracer,
    timer: Optional[Callable[[], Any]] = None,
    metrics: MetricsRegistry = NOOP_REGISTRY,
) -> SpanProfiler:
    """Construct a :class:`SpanProfiler` and hook it onto ``tracer``."""
    profiler = SpanProfiler(timer=timer, metrics=metrics)
    tracer.add_hook(profiler)
    return profiler


def render_function_table(
    profiler: SpanProfiler,
    phase: Optional[str] = None,
    top: int = 20,
    title: str = "hot functions",
    unit: str = "ms",
) -> str:
    """The human-readable ``repro profile`` function table.

    ``unit`` names the value column: ``"ms"`` (the default) scales the
    recorded seconds by 1000; any other unit (e.g. ``"events"`` under the
    deterministic timer) prints the raw values.
    """
    scale = 1000.0 if unit == "ms" else 1.0
    rows = profiler.function_rows(phase=phase, top=top)
    scope = f" in {phase}" if phase else ""
    if not rows:
        return f"{title}{scope}: (no profile collected)"
    lines = [
        f"{title}{scope}:",
        f"  {'function':<56} {'excl ' + unit:>12} {'incl ' + unit:>12} "
        f"{'calls':>9}",
    ]
    for row in rows:
        name = row["function"]
        if len(name) > 56:
            name = "..." + name[-53:]
        lines.append(
            f"  {name:<56} {row['exclusive_s'] * scale:>12.2f} "
            f"{row['inclusive_s'] * scale:>12.2f} {row['calls']:>9d}"
        )
    return "\n".join(lines)


def reconcile_phases(
    tracer: Tracer, profiler: SpanProfiler, min_seconds: float = 0.05
) -> List[Dict[str, Any]]:
    """Compare span-tree wall time with folded profile time per phase.

    Returns one row per span path at least ``min_seconds`` long:
    ``{"phase", "span_s", "profile_s", "rel_err"}``. The two clocks
    bracket the same region (the profile runs strictly inside the span),
    so large relative error means lost attribution — the property the
    acceptance tests pin at 5%.
    """
    from repro.obs.profile import phase_timings

    spans = phase_timings(tracer)
    profiled = profiler.phase_totals()
    rows: List[Dict[str, Any]] = []
    for path, span_s in sorted(spans.items()):
        if span_s < min_seconds:
            continue
        profile_s = profiled.get(path, 0.0)
        rel = abs(profile_s - span_s) / span_s if span_s > 0 else 0.0
        rows.append(
            {
                "phase": path,
                "span_s": span_s,
                "profile_s": profile_s,
                "rel_err": rel,
            }
        )
    return rows


def merge_folded(folds: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum several folded-stack dicts (repeat runs) into one."""
    out: Dict[str, float] = {}
    for fold in folds:
        for stack, value in fold.items():
            out[stack] = out.get(stack, 0.0) + value
    return out
