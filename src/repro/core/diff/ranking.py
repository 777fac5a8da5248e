"""Component ranking for problem localization (Section IV-C).

"FlowDiff returns a set of edges and nodes that are related to each
infrastructure and application signature change. To localize the
operational problem that triggered these changes, we rank the components
based on the number of changes they are associated with."
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.signatures.base import ChangeRecord
from repro.obs.flightrec import FlowTimeline


def rank_components(
    changes: Sequence[ChangeRecord],
    weight_by_magnitude: bool = False,
) -> List[Tuple[str, float]]:
    """Rank implicated components by their change association count.

    Args:
        changes: the (unknown) changes to localize over.
        weight_by_magnitude: weight each association by the change's
            magnitude instead of counting 1 — an ablation knob; the paper
            uses plain counts.

    Returns:
        ``(component, score)`` pairs, highest score first; ties broken by
        component name for determinism.
    """
    scores: Dict[str, float] = {}
    for change in changes:
        weight = change.magnitude if weight_by_magnitude else 1.0
        for component in change.components:
            scores[component] = scores.get(component, 0.0) + weight
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))


def select_evidence_flows(
    timelines: Sequence[FlowTimeline], limit: int = 3
) -> List[FlowTimeline]:
    """Order a suspect's implicated flows by evidential value, keep ``limit``.

    Most anomalous first: chains with missing stages (a broken flow is the
    strongest localization evidence), then non-monotone chains (capture
    reordering), then the slowest setups — the same "worst first" ordering
    the component ranking itself uses for changes.
    """
    ranked = sorted(
        timelines,
        key=lambda t: (
            t.complete,           # incomplete chains first
            t.monotone,           # then reordered captures
            -t.total_latency,     # then slowest setup
            t.corr_id,            # deterministic tie-break
        ),
    )
    return list(ranked[: max(0, limit)])
