"""Profiling presentation: turn a span tree into a phase-timing table.

The ``--profile`` CLI flag runs the pipeline with a real
:class:`~repro.obs.tracing.Tracer` and hands the result here.
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

