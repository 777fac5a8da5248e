"""Terminal plotting: render CDFs and series as ASCII for bench reports.

The benchmark harness writes each figure's data rows to text files; these
helpers additionally render them as quick ASCII plots so a reader can see
the *shape* (the thing the reproduction targets) without leaving the
terminal. No plotting dependency needed or wanted.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.analysis.stats import EmpiricalCDF

#: Glyphs used for overlaid curves, in legend order.
CURVE_GLYPHS = "*o+x#@"


def ascii_cdf(
    curves: Dict[str, EmpiricalCDF],
    width: int = 60,
    height: int = 16,
    x_label: str = "value",
) -> str:
    """Render one or more CDF curves on a shared grid.

    Args:
        curves: legend label -> CDF; plotted with distinct glyphs.
        width/height: plot area size in characters.
        x_label: x-axis annotation.

    Returns:
        A multi-line string: the grid, an x-axis, and a legend.
    """
    non_empty = {k: c for k, c in curves.items() if c.samples}
    if not non_empty:
        return "(no data)"
    x_min = min(c.samples[0] for c in non_empty.values())
    x_max = max(c.samples[-1] for c in non_empty.values())
    if x_max <= x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for idx, (_label, cdf) in enumerate(non_empty.items()):
        glyph = CURVE_GLYPHS[idx % len(CURVE_GLYPHS)]
        for col in range(width):
            x = x_min + (x_max - x_min) * col / (width - 1)
            y = cdf(x)
            row = height - 1 - min(height - 1, int(y * (height - 1) + 0.5))
            if grid[row][col] == " ":
                grid[row][col] = glyph

    lines = []
    for i, row in enumerate(grid):
        frac = 1.0 - i / (height - 1)
        lines.append(f"{frac:4.2f} |" + "".join(row))
    lines.append("     +" + "-" * width)
    lines.append(f"      {x_min:<12.4g}{' ' * max(0, width - 26)}{x_max:>12.4g}")
    lines.append(f"      x: {x_label}")
    for idx, label in enumerate(non_empty):
        lines.append(f"      {CURVE_GLYPHS[idx % len(CURVE_GLYPHS)]} {label}")
    return "\n".join(lines)


def ascii_series(
    points: Sequence[Tuple[float, float]],
    width: int = 60,
    height: int = 12,
    y_label: str = "",
) -> str:
    """Render an (x, y) series as a scatter/step plot."""
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    if x_max <= x_min:
        x_max = x_min + 1.0
    if y_max <= y_min:
        y_max = y_min + 1.0

    grid = [[" "] * width for _ in range(height)]
    for x, y in points:
        col = min(width - 1, int((x - x_min) / (x_max - x_min) * (width - 1)))
        row = height - 1 - min(
            height - 1, int((y - y_min) / (y_max - y_min) * (height - 1) + 0.5)
        )
        grid[row][col] = "*"

    lines = []
    for i, row in enumerate(grid):
        value = y_max - (y_max - y_min) * i / (height - 1)
        lines.append(f"{value:10.3g} |" + "".join(row))
    lines.append(" " * 11 + "+" + "-" * width)
    lines.append(f"{'':11} {x_min:<12.4g}{' ' * max(0, width - 26)}{x_max:>12.4g}")
    if y_label:
        lines.append(f"{'':11} y: {y_label}")
    return "\n".join(lines)
