"""Topology heatmaps: the telemetry plane drawn over the network graph.

One self-contained HTML file (inline SVG, no scripts or external assets —
the same incident-ticket discipline as :mod:`repro.core.diff.html`, whose
stylesheet this report reuses). Links are colored by their retained-window
peak utilization and flagged when their loss process dropped packets;
switches are shaded by flow-table pressure. An injected hot link or a
hashing imbalance across ECMP paths is visible at a glance, which is the
point: the ISSUE-driving traffic-generation work (arXiv:2107.01398) calls
exactly these views the validation surface for large workloads.

Determinism: nodes are laid out by tier (hosts on the bottom row, every
other node on the row of its hop distance to the nearest host), so the same
topology always renders the same picture and tests can assert on output.
"""

from __future__ import annotations

import html as _html
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.obs.alerts import Alert
from repro.obs.telemetry import ComponentSeries, TelemetryPlane

if TYPE_CHECKING:  # pragma: no cover - obs must not import netsim at runtime
    from repro.netsim.topology import Topology

#: Heat ramp anchors, shared with the diff-report palette: healthy green,
#: warning amber, problem red.
_RAMP: Tuple[Tuple[float, Tuple[int, int, int]], ...] = (
    (0.0, (0x1A, 0x7F, 0x37)),
    (0.5, (0xF4, 0xB4, 0x00)),
    (1.0, (0xB4, 0x23, 0x18)),
)

_EXTRA_STYLE = """
svg { background: #fafafa; border: 1px solid #ddd; }
.edge { stroke-linecap: round; }
.edge.drops { stroke-dasharray: 7 4; }
.edge.idle { stroke: #d8d8d8; }
.node-label { font-size: 11px; fill: #222; }
.legend { font-size: 0.85rem; color: #555; }
"""


def heat_color(value: float) -> str:
    """Map a normalized heat in [0, 1] onto the green-amber-red ramp."""
    v = min(1.0, max(0.0, value))
    for (lo, lo_rgb), (hi, hi_rgb) in zip(_RAMP, _RAMP[1:]):
        if v <= hi:
            f = (v - lo) / (hi - lo)
            rgb = tuple(
                round(a + (b - a) * f) for a, b in zip(lo_rgb, hi_rgb)
            )
            return "#{:02x}{:02x}{:02x}".format(*rgb)
    return "#{:02x}{:02x}{:02x}".format(*_RAMP[-1][1])


def _esc(text: object) -> str:
    return _html.escape(str(text), quote=True)


def _layout(
    topology: Topology, width: float, height: float, margin: float
) -> Dict[str, Tuple[float, float]]:
    """Tiered positions: row = hop distance to the nearest host.

    Hosts fill the bottom row; a node no host reaches goes on the top
    row, so every link endpoint has a position. Rows are name-sorted and
    evenly spaced.
    """
    peers: Dict[str, List[str]] = {}
    for link in topology.links():
        peers.setdefault(link.a, []).append(link.b)
        peers.setdefault(link.b, []).append(link.a)
    tier = {host: 0 for host in topology.hosts()}
    frontier = list(tier)
    while frontier:
        reached = []
        for node in frontier:
            for peer in peers.get(node, ()):
                if peer not in tier:
                    tier[peer] = tier[node] + 1
                    reached.append(peer)
        frontier = reached
    top = max(tier.values(), default=0) + 1
    rows: Dict[int, List[str]] = {}
    for node in sorted(set(tier) | set(peers)):
        rows.setdefault(tier.get(node, top), []).append(node)
    y_step = (height - 2 * margin) / (max(rows, default=0) or 1)
    return {
        node: (
            margin + (i + 0.5) / len(row) * (width - 2 * margin),
            height - margin - r * y_step,
        )
        for r, row in rows.items()
        for i, node in enumerate(row)
    }


def _link_series(
    plane: TelemetryPlane, edge: str
) -> Tuple[Optional[ComponentSeries], Optional[ComponentSeries]]:
    return (
        plane.get("link", edge, "utilization"),
        plane.get("link", edge, "drops"),
    )


def topology_heatmap_svg(
    topology: Topology,
    plane: TelemetryPlane,
    width: int = 960,
    height: int = 620,
) -> str:
    """Render the topology as an inline SVG heatmap.

    Every link element carries ``data-component="a--b"`` (sorted-endpoint
    edge naming, matching evidence chains) so reports and tests can find
    a specific link; lossy links additionally get the ``drops`` class and
    a dashed stroke, which is how an injected link fault is visibly
    marked even when its utilization stays moderate.
    """
    margin = 48.0
    pos = _layout(topology, float(width), float(height), margin)
    out: List[str] = [
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" xmlns="http://www.w3.org/2000/svg" '
        'role="img" aria-label="topology heatmap">'
    ]

    for link in sorted(topology.links(), key=lambda lk: lk.key()):
        a, b = link.key()
        edge = f"{a}--{b}"
        (xa, ya), (xb, yb) = pos[a], pos[b]
        util_series, drop_series = _link_series(plane, edge)
        heat = util_series.peak_value() / 0.95 if util_series else 0.0
        dropped = drop_series.total if drop_series else 0.0
        classes = ["edge"]
        if dropped > 0:
            classes.append("drops")
        if util_series is None:
            classes.append("idle")
        stroke = heat_color(heat) if util_series else "#d8d8d8"
        if not link.up:
            classes.append("down")
            stroke = "#b42318"
        stroke_width = 1.5 + 4.5 * min(1.0, heat)
        title = f"{edge}: peak util {heat * 0.95:.2f}, drops {dropped:g}"
        out.append(
            f'<g><line class="{" ".join(classes)}" '
            f'data-component="{_esc(edge)}" '
            f'x1="{xa:.1f}" y1="{ya:.1f}" x2="{xb:.1f}" y2="{yb:.1f}" '
            f'stroke="{stroke}" stroke-width="{stroke_width:.2f}">'
            f"<title>{_esc(title)}</title></line></g>"
        )

    occ_peak = {
        dpid: series.peak_value()
        for dpid in topology.switches()
        for series in (plane.get("switch", dpid, "flowtable_occupancy"),)
        if series is not None
    }
    occ_max = max(occ_peak.values(), default=0.0) or 1.0
    for node, (x, y) in sorted(pos.items()):
        if node in occ_peak or node in set(topology.switches()):
            heat = occ_peak.get(node, 0.0) / occ_max
            fill = heat_color(heat) if node in occ_peak else "#f2f2f2"
            title = f"{node}: peak table occupancy {occ_peak.get(node, 0.0):g}"
            out.append(
                f'<g><circle class="node switch" data-component="{_esc(node)}" '
                f'cx="{x:.1f}" cy="{y:.1f}" r="11" fill="{fill}" '
                f'stroke="#555" stroke-width="1">'
                f"<title>{_esc(title)}</title></circle>"
                f'<text class="node-label" x="{x + 13:.1f}" y="{y + 4:.1f}">'
                f"{_esc(node)}</text></g>"
            )
        else:
            out.append(
                f'<g><circle class="node host" data-component="{_esc(node)}" '
                f'cx="{x:.1f}" cy="{y:.1f}" r="4" fill="#ccc" stroke="#999" '
                f'stroke-width="0.5"><title>{_esc(node)}</title></circle></g>'
            )
    out.append("</svg>")
    return "\n".join(out)


def _series_table(plane: TelemetryPlane, kind: str, limit: int = 12) -> str:
    """An HTML table of one kind's series, worst component first."""
    by_component: Dict[str, Dict[str, ComponentSeries]] = {}
    metrics: List[str] = []
    for series in plane:
        if series.kind != kind:
            continue
        by_component.setdefault(series.component, {})[series.metric] = series
        if series.metric not in metrics:
            metrics.append(series.metric)
    if not by_component:
        return ""
    ranked = sorted(
        by_component,
        key=lambda c: (-sum(s.peak_value() for s in by_component[c].values()), c),
    )
    out = [f"<h2>{_esc(kind)} telemetry</h2><table>"]
    out.append(
        "<tr><th>component</th>"
        + "".join(f"<th>{_esc(m)}</th>" for m in metrics)
        + "</tr>"
    )
    for component in ranked[:limit]:
        cells = [f"<td><code>{_esc(component)}</code></td>"]
        for metric in metrics:
            series = by_component[component].get(metric)
            if series is None or series.count == 0:
                cells.append("<td class='dark'>-</td>")
            elif series.counter:
                cells.append(
                    f"<td>{series.total:g} (peak {series.peak_value():g}/win)</td>"
                )
            else:
                peak = series.peak_window()
                p95 = peak.p95 if peak else series.last
                cells.append(
                    f"<td>last {series.last:.4g} &middot; p95 {p95:.4g} "
                    f"&middot; max {series.vmax:.4g}</td>"
                )
        out.append("<tr>" + "".join(cells) + "</tr>")
    if len(ranked) > limit:
        out.append(
            f"<tr><td class='dark' colspan='{len(metrics) + 1}'>"
            f"... and {len(ranked) - limit} more</td></tr>"
        )
    out.append("</table>")
    return "\n".join(out)


def heatmap_to_html(
    topology: Topology,
    plane: TelemetryPlane,
    alerts: Optional[List[Alert]] = None,
    title: str = "Telemetry heatmap",
) -> str:
    """Render the full heatmap report: SVG, legend, tables, alerts."""
    # Not at module load: core's signature stack imports obs.
    from repro.core.diff.html import _STYLE

    summary = plane.summary()
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}{_EXTRA_STYLE}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
        f"<p>{summary['series']} series &middot; {summary['samples']} samples "
        f"&middot; {summary['window_s']:g}s windows "
        f"(ring capacity {summary['capacity']})</p>",
        topology_heatmap_svg(topology, plane),
        "<p class='legend'>link color: peak utilization "
        f"(<span style='color:{heat_color(0.0)}'>idle</span> &rarr; "
        f"<span style='color:{heat_color(0.5)}'>busy</span> &rarr; "
        f"<span style='color:{heat_color(1.0)}'>saturated</span>); "
        "dashed = packet drops observed; switch fill: table pressure.</p>",
    ]
    if alerts:
        out.append("<h2>Telemetry alerts</h2><table>")
        out.append(
            "<tr><th>t (s)</th><th>rule</th><th>severity</th><th>message</th></tr>"
        )
        for alert in alerts[:20]:
            out.append(
                f"<tr><td>{alert.timestamp:g}</td><td>{_esc(alert.rule)}</td>"
                f"<td class='{'problem' if alert.severity >= 2 else ''}'>"
                f"{_esc(alert.severity)}</td>"
                f"<td>{_esc(alert.message)}</td></tr>"
            )
        if len(alerts) > 20:
            out.append(
                f"<tr><td class='dark' colspan='4'>... and "
                f"{len(alerts) - 20} more</td></tr>"
            )
        out.append("</table>")
    for kind in ("link", "switch", "controller", "app", "host"):
        table = _series_table(plane, kind)
        if table:
            out.append(table)
    out.append("</body></html>")
    return "\n".join(out)


def save_heatmap(
    path: str,
    topology: Topology,
    plane: TelemetryPlane,
    alerts: Optional[List[Alert]] = None,
    title: str = "Telemetry heatmap",
) -> None:
    """Write the heatmap report to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(heatmap_to_html(topology, plane, alerts=alerts, title=title))
