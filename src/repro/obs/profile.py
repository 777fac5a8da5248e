"""Profiling presentation: turn a span tree into a phase-timing table.

The ``--profile`` CLI flag runs the pipeline with a real
:class:`~repro.obs.tracing.Tracer` and hands the result here.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.export import iter_span_events
from repro.obs.tracing import Tracer


def phase_rows(tracer: Tracer) -> List[Dict[str, Any]]:
    """One table row per span of :func:`~repro.obs.export.iter_span_events`
    (depth-first order).

    Each row carries the span's depth (for indentation), wall-clock
    duration, self time (minus children), and share of its root span.
    """
    rows: List[Dict[str, Any]] = []
    root_duration = 0.0
    for event in iter_span_events(tracer):
        if event["depth"] == 0:
            root_duration = event["duration_s"]
        rows.append(
            {
                "phase": event["name"],
                "depth": event["depth"],
                "wall_s": event["duration_s"],
                "self_s": event["self_duration_s"],
                "share": event["duration_s"] / root_duration if root_duration > 0 else 0.0,
            }
        )
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
