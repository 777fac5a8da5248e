"""Profiling presentation: turn a span tree into a phase-timing table.

The ``--profile`` CLI flag runs the pipeline with a real
:class:`~repro.obs.tracing.Tracer` and hands the result here; the same
helpers feed ``repro profile`` and the span-vs-profiler reconciliation
(:func:`repro.obs.profiler.reconcile_phases`), so what an operator reads
on the terminal and what the profiler is checked against are the same
numbers.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.tracing import Span, Tracer


def phase_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """Flatten the span forest into table rows (depth-first order).

    Each row carries the span's depth (for indentation), wall-clock
    duration, self time (minus children), and share of its root span.
    """
    rows: List[Dict[str, Any]] = []

    def visit(span: Span, depth: int, root_duration: float) -> None:
        share = span.duration / root_duration if root_duration > 0 else 0.0
        row: Dict[str, Any] = {
            "phase": span.name,
            "depth": depth,
            "wall_s": span.duration,
            "self_s": span.self_duration,
            "share": share,
        }
        if span.sim_duration is not None:
            row["sim_s"] = span.sim_duration
        if span.meta:
            row["meta"] = dict(span.meta)
        rows.append(row)
        for child in span.children:
            visit(child, depth + 1, root_duration)

    for root in tracer.roots:
        visit(root, 0, root.duration)
    return rows


def render_phase_table(tracer: Tracer, title: str = "phase timings") -> str:
    """The human-readable ``--profile`` table."""
    rows = phase_rows(tracer)
    if not rows:
        return f"{title}: (no spans recorded)"
    lines = [
        f"{title}:",
        f"  {'phase':<28} {'wall ms':>10} {'self ms':>10} {'share':>7}",
    ]
    for row in rows:
        indent = "  " * row["depth"]
        name = f"{indent}{row['phase']}"
        lines.append(
            f"  {name:<28} {row['wall_s'] * 1000:>10.2f} "
            f"{row['self_s'] * 1000:>10.2f} {row['share'] * 100:>6.1f}%"
        )
    return "\n".join(lines)


def phase_timings(tracer: Tracer) -> Dict[str, float]:
    """``{span path: wall seconds}`` for every span the tracer recorded.

    Paths are slash-joined (``model/app-signature``) and repeated spans
    accumulate, so the dict is stable across runs of the same pipeline.
    """
    out: Dict[str, float] = {}

    def visit(span: Span, path: str) -> None:
        full = f"{path}/{span.name}" if path else span.name
        out[full] = out.get(full, 0.0) + span.duration
        for child in span.children:
            visit(child, full)

    for root in tracer.roots:
        visit(root, "")
    return out
