"""The operator-facing diagnosis report.

FlowDiff "does not try to identify the root-cause of the problem, rather
it provides debugging information to assist root-cause analyses"
(Section I): the known/unknown change split, candidate problem types, the
dependency matrix, and ranked suspect components.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.core.diff.dependency import DependencyMatrix, ProblemInference
from repro.core.signatures.base import ChangeRecord, SignatureKind
from repro.core.tasks.detector import TaskEvent
from repro.obs.flightrec import FlowTimeline


@dataclass(frozen=True)
class EvidenceChain:
    """Flight-recorder evidence backing one ranked suspect component.

    007-style actionability: instead of only naming a suspect, the report
    attaches the causal timelines of the flows that implicate it, so the
    operator can read what those flows actually experienced (triggers,
    controller decisions, hops, expiries — and which stages went missing).

    Attributes:
        component: the suspect (host, switch, or ``"a--b"`` edge).
        score: the suspect's ranking score (change-association count).
        timelines: the selected per-flow causal chains (most anomalous
            first: incomplete chains, then slowest setups).
    """

    component: str
    score: float
    timelines: Tuple[FlowTimeline, ...] = ()

    def render(self) -> str:
        lines = [f"{self.component} (score {self.score:g}):"]
        for timeline in self.timelines:
            lines.append("  " + timeline.describe())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "score": self.score,
            "flows": [t.to_dict() for t in self.timelines],
        }


@dataclass(frozen=True)
class DiagnosisReport:
    """Everything FlowDiff hands the operator after a diff.

    Attributes:
        unknown_changes: signature changes no operator task explains — the
            debugging flags.
        known_changes: changes paired with the task events explaining them.
        task_events: the full task time series detected in the current log.
        problems: ranked candidate problem types.
        dependency: the application x infrastructure dependency matrix.
        component_ranking: suspect components, most implicated first.
        evidence: flight-recorder causal chains for the top suspects
            (attached by :func:`repro.core.diff.evidence.attach_evidence`;
            empty when no capture was available to reconstruct from).
    """

    unknown_changes: Tuple[ChangeRecord, ...]
    known_changes: Tuple[Tuple[ChangeRecord, TaskEvent], ...]
    task_events: Tuple[TaskEvent, ...]
    problems: Tuple[ProblemInference, ...]
    dependency: DependencyMatrix
    component_ranking: Tuple[Tuple[str, float], ...]
    evidence: Tuple[EvidenceChain, ...] = ()

    @property
    def healthy(self) -> bool:
        """True when every detected change was explained by a task."""
        return not self.unknown_changes

    def changed_kinds(self) -> Tuple[SignatureKind, ...]:
        """The distinct signature kinds among unknown changes, sorted."""
        return tuple(sorted({c.kind for c in self.unknown_changes}, key=lambda k: k.value))

    def render(self, max_items: int = 12) -> str:
        """A human-readable multi-section report."""
        lines: List[str] = ["FlowDiff diagnosis", "=" * 18]
        if self.healthy:
            lines.append("No unexplained behavioral changes detected.")
        else:
            lines.append(f"Unexplained changes ({len(self.unknown_changes)}):")
            for change in self.unknown_changes[:max_items]:
                lines.append(f"  - {change.brief()}")
            if len(self.unknown_changes) > max_items:
                lines.append(
                    f"  ... and {len(self.unknown_changes) - max_items} more"
                )
        if self.known_changes:
            lines.append(f"Known changes explained by tasks ({len(self.known_changes)}):")
            for change, event in self.known_changes[:max_items]:
                lines.append(
                    f"  - {change.brief()}  [task {event.name} "
                    f"@{event.t_start:.2f}-{event.t_end:.2f}s]"
                )
        if self.problems:
            lines.append("Candidate problem types:")
            for p in self.problems:
                lines.append(
                    f"  - {p.problem} (score {p.score:.2f}; "
                    f"matched {sorted(k.value for k in p.matched)})"
                )
            top_hint = self.problems[0].hint
            if top_hint:
                lines.append(f"First response: {top_hint}")
        if self.component_ranking:
            lines.append("Suspect components:")
            for component, score in self.component_ranking[:max_items]:
                lines.append(f"  - {component}: {score:g}")
        if self.evidence:
            lines.append("Evidence chains (flight recorder):")
            for chain in self.evidence:
                for line in chain.render().splitlines():
                    lines.append("  " + line)
        lines.append("Dependency matrix:")
        lines.append(self.dependency.render())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able representation for downstream tooling."""

        def change_dict(change: ChangeRecord) -> Dict[str, Any]:
            return {
                "kind": change.kind.value,
                "scope": change.scope,
                "description": change.description,
                "components": sorted(change.components),
                "magnitude": change.magnitude,
                "timestamp": change.timestamp,
                "direction": change.direction,
            }

        return {
            "healthy": self.healthy,
            "unknown_changes": [change_dict(c) for c in self.unknown_changes],
            "known_changes": [
                {
                    "change": change_dict(c),
                    "task": {
                        "name": e.name,
                        "t_start": e.t_start,
                        "t_end": e.t_end,
                        "hosts": sorted(e.hosts),
                    },
                }
                for c, e in self.known_changes
            ],
            "task_events": [
                {
                    "name": e.name,
                    "t_start": e.t_start,
                    "t_end": e.t_end,
                    "hosts": sorted(e.hosts),
                }
                for e in self.task_events
            ],
            "problems": [
                {
                    "problem": p.problem,
                    "hint": p.hint,
                    "score": p.score,
                    "matched": sorted(k.value for k in p.matched),
                    "missing": sorted(k.value for k in p.missing),
                    "unexpected": sorted(k.value for k in p.unexpected),
                }
                for p in self.problems
            ],
            "component_ranking": [
                {"component": c, "score": s} for c, s in self.component_ranking
            ],
            "evidence": [chain.to_dict() for chain in self.evidence],
            "dependency": [list(row) for row in self.dependency.cells],
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize the report as JSON text."""
        return json.dumps(self.to_dict(), indent=indent)
