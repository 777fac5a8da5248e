"""The component-interaction (CI) application signature.

"The component interaction at a node in CG represents the number of flows
on each incoming or outgoing edge of the application node inside each
application group. We normalize the CI value to the total number of
communications to and from the node" (Section III-B). Comparison is the
chi-squared fitness test of Section IV-A, with the observed counts scaled
to the expected total so that workload-volume differences between the two
logs do not masquerade as structural changes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import chi_squared
from repro.core.events import FlowArrival
from repro.core.signatures.base import (
    ChangeRecord,
    JsonDict,
    Signature,
    SignatureKind,
    edge_component,
)

Edge = Tuple[str, str]
#: Per node: mapping from (direction, peer) to raw flow count.
NodeCounts = Dict[Tuple[str, str], int]


@dataclass(frozen=True)
class ComponentInteraction(Signature):
    """Normalized per-edge flow counts at each node of a group's CG."""

    #: node -> tuple of ((direction, peer), count), direction in {"in","out"}.
    counts: Tuple[Tuple[str, Tuple[Tuple[Tuple[str, str], int], ...]], ...]

    @classmethod
    def build(cls, arrivals: Sequence[FlowArrival]) -> "ComponentInteraction":
        """Count in/out flows per node from a group's arrivals."""
        per_node: Dict[str, NodeCounts] = {}
        flows_per_edge = Counter([arrival.flow[:2] for arrival in arrivals])
        for (src, dst), n in flows_per_edge.items():
            out_counts = per_node.setdefault(src, {})
            out_counts[("out", dst)] = out_counts.get(("out", dst), 0) + n
            in_counts = per_node.setdefault(dst, {})
            in_counts[("in", src)] = in_counts.get(("in", src), 0) + n
        return cls(
            counts=tuple(
                (node, tuple(sorted(counts.items())))
                for node, counts in sorted(per_node.items())
            )
        )

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "counts": [
                [node, [[list(k), v] for k, v in items]]
                for node, items in self.counts
            ]
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "ComponentInteraction":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            counts=tuple(
                (node, tuple(((k[0], k[1]), v) for k, v in items))
                for node, items in data["counts"]
            )
        )

    def node_counts(self, node: str) -> NodeCounts:
        """Raw (direction, peer) -> count mapping for ``node``."""
        for n, items in self.counts:
            if n == node:
                return dict(items)
        return {}

    def normalized(self, node: str) -> Dict[Tuple[str, str], float]:
        """Per-edge counts normalized by the node's total communications."""
        counts = self.node_counts(node)
        total = sum(counts.values())
        if total == 0:
            return {}
        return {k: v / total for k, v in counts.items()}

    def nodes(self) -> List[str]:
        """All nodes with interaction counts."""
        return [n for n, _ in self.counts]

    def chi2_at(self, other: "ComponentInteraction", node: str) -> float:
        """Chi-squared fitness of ``other``'s counts at ``node`` vs ours.

        The observed (current) counts are rescaled so their total matches
        the expected (baseline) total, making the statistic sensitive to
        *distribution* changes rather than workload volume.
        """
        expected = self.node_counts(node)
        observed = other.node_counts(node)
        keys = sorted(set(expected) | set(observed))
        exp_total = sum(expected.values())
        obs_total = sum(observed.values())
        if exp_total == 0 and obs_total == 0:
            return 0.0
        scale = exp_total / obs_total if obs_total else 1.0
        exp_vec = [float(expected.get(k, 0)) for k in keys]
        obs_vec = [observed.get(k, 0) * scale for k in keys]
        return chi_squared(obs_vec, exp_vec)

    def share_maps(self) -> Dict[str, Dict[Tuple[str, str], float]]:
        """:meth:`normalized` for every node, computed in one pass.

        ``distance`` needs every node's shares; per-node
        :meth:`normalized` calls would rescan ``counts`` each time.
        Shares use the same ``count / total`` division, so values are
        bit-identical to ``normalized``'s.
        """
        out: Dict[str, Dict[Tuple[str, str], float]] = {}
        for node, items in self.counts:
            total = 0
            for _key, value in items:
                total += value
            out[node] = (
                {key: value / total for key, value in items} if total else {}
            )
        return out

    def distance(self, other: "ComponentInteraction") -> float:
        """Maximum normalized-share drift across common nodes in [0, 1]."""
        worst = 0.0
        mine_all = self.share_maps()
        theirs_all = other.share_maps()
        for node in set(mine_all) & set(theirs_all):
            mine = mine_all[node]
            theirs = theirs_all[node]
            for key in set(mine) | set(theirs):
                worst = max(worst, abs(mine.get(key, 0.0) - theirs.get(key, 0.0)))
        return worst

    def diff(
        self, other: "ComponentInteraction", scope: str, *, chi2_threshold: float
    ) -> List[ChangeRecord]:
        """Per-node chi-squared comparisons against an operator threshold."""
        changes: List[ChangeRecord] = []
        for node in sorted(set(self.nodes()) | set(other.nodes())):
            chi2 = self.chi2_at(other, node)
            if chi2 > chi2_threshold:
                involved = {node}
                mine = self.normalized(node)
                theirs = other.normalized(node)
                for (direction, peer), _share in sorted(
                    set(mine.items()) ^ set(theirs.items())
                ):
                    involved.add(peer)
                    pair = (node, peer) if direction == "out" else (peer, node)
                    involved.add(edge_component(*pair))
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.CI,
                        scope=scope,
                        description=(
                            f"interaction shift at {node} (chi2={chi2:.2f})"
                        ),
                        components=frozenset(involved),
                        magnitude=chi2,
                    )
                )
        return changes
