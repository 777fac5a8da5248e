"""Self-contained HTML rendering of a diagnosis report.

One static file, no external assets or scripts — suitable for attaching to
an incident ticket. The layout mirrors :meth:`DiagnosisReport.render`:
problem candidates with hints, unexplained changes, task-explained
changes, suspect ranking, and the dependency matrix.
"""

from __future__ import annotations

import html
from typing import List

from repro.core.diff.dependency import APP_KINDS, INFRA_KINDS
from repro.core.diff.report import DiagnosisReport

_STYLE = """
body { font-family: system-ui, sans-serif; margin: 2rem; color: #222; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 1.5rem; }
table { border-collapse: collapse; margin: 0.5rem 0; }
td, th { border: 1px solid #ccc; padding: 0.3rem 0.6rem; text-align: left; }
th { background: #f2f2f2; }
.healthy { color: #1a7f37; font-weight: 600; }
.problem { color: #b42318; font-weight: 600; }
.hint { background: #fff8e1; padding: 0.5rem 0.8rem; border-left: 3px solid #f4b400; }
.lit { background: #ffe0e0; font-weight: 600; text-align: center; }
.dark { color: #bbb; text-align: center; }
code { background: #f5f5f5; padding: 0 0.2rem; }
"""


def _esc(text: object) -> str:
    return html.escape(str(text))


def report_to_html(report: DiagnosisReport, title: str = "FlowDiff diagnosis") -> str:
    """Render the report as a complete standalone HTML document."""
    out: List[str] = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title>",
        f"<style>{_STYLE}</style>",
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
    ]

    if report.healthy:
        out.append("<p class='healthy'>No unexplained behavioral changes detected.</p>")
    else:
        out.append(
            f"<p class='problem'>{len(report.unknown_changes)} unexplained "
            "change(s) detected.</p>"
        )

    if report.problems:
        out.append("<h2>Candidate problems</h2><table>")
        out.append("<tr><th>problem</th><th>score</th><th>matched signatures</th></tr>")
        for p in report.problems:
            matched = ", ".join(sorted(k.value for k in p.matched))
            out.append(
                f"<tr><td>{_esc(p.problem)}</td><td>{p.score:.2f}</td>"
                f"<td>{_esc(matched)}</td></tr>"
            )
        out.append("</table>")
        if report.problems[0].hint:
            out.append(
                f"<p class='hint'><b>First response:</b> "
                f"{_esc(report.problems[0].hint)}</p>"
            )

    if report.unknown_changes:
        out.append("<h2>Unexplained changes</h2><table>")
        out.append(
            "<tr><th>signature</th><th>scope</th><th>description</th>"
            "<th>components</th></tr>"
        )
        for change in report.unknown_changes:
            out.append(
                f"<tr><td>{_esc(change.kind.value)}</td>"
                f"<td><code>{_esc(change.scope)}</code></td>"
                f"<td>{_esc(change.description)}</td>"
                f"<td>{_esc(', '.join(sorted(change.components)))}</td></tr>"
            )
        out.append("</table>")

    if report.known_changes:
        out.append("<h2>Known changes (explained by operator tasks)</h2><table>")
        out.append("<tr><th>change</th><th>explained by</th></tr>")
        for change, event in report.known_changes:
            out.append(
                f"<tr><td>{_esc(change.description)}</td>"
                f"<td>{_esc(event.name)} @ {event.t_start:.1f}s</td></tr>"
            )
        out.append("</table>")

    if report.component_ranking:
        out.append("<h2>Suspect components</h2><table>")
        out.append("<tr><th>component</th><th>associated changes</th></tr>")
        for component, score in report.component_ranking[:12]:
            out.append(
                f"<tr><td><code>{_esc(component)}</code></td><td>{score:g}</td></tr>"
            )
        out.append("</table>")

    if report.evidence:
        out.append("<h2>Evidence chains (flight recorder)</h2>")
        for chain in report.evidence:
            out.append(
                f"<h3><code>{_esc(chain.component)}</code> "
                f"(score {chain.score:g})</h3>"
            )
            for timeline in chain.timelines:
                out.append(f"<p>{_esc(timeline.describe())}</p>")
                out.append("<table>")
                out.append(
                    "<tr><th>t (s)</th><th>stage</th><th>switch</th>"
                    "<th>+latency (ms)</th><th>detail</th></tr>"
                )
                for event in timeline.events:
                    out.append(
                        f"<tr><td>{event.timestamp:.6f}</td>"
                        f"<td>{_esc(event.stage)}</td>"
                        f"<td><code>{_esc(event.dpid)}</code></td>"
                        f"<td>{event.latency * 1e3:.3f}</td>"
                        f"<td>{_esc(event.detail)}</td></tr>"
                    )
                out.append("</table>")

    out.append("<h2>Dependency matrix</h2><table>")
    out.append(
        "<tr><th></th>"
        + "".join(f"<th>{k.value}</th>" for k in INFRA_KINDS)
        + "</tr>"
    )
    for app, row in zip(APP_KINDS, report.dependency.cells):
        cells = "".join(
            f"<td class='{'lit' if v else 'dark'}'>{v}</td>" for v in row
        )
        out.append(f"<tr><th>{app.value}</th>{cells}</tr>")
    out.append("</table>")

    out.append("</body></html>")
    return "\n".join(out)


def save_html_report(report: DiagnosisReport, path: str, title: str = "FlowDiff diagnosis") -> None:
    """Write the HTML rendering to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report_to_html(report, title=title))
