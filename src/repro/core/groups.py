"""Application-group extraction (Section III-B).

FlowDiff organizes the data center's hosts into *application groups*: sets
of application nodes forming a connected communication graph. Hosts that
are connected **only** through special-purpose service nodes (DNS, NFS,
...) belong to separate groups — the operator-supplied ``special_nodes``
set is the domain knowledge that disambiguates them.

Group identity must also be matchable across two logs (L1 vs L2) even when
membership shifted (a crashed server drops out, an intruder appears);
:func:`match_groups` pairs groups by maximum member overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.events import FlowArrival


@dataclass(frozen=True)
class ApplicationGroup:
    """One application group and the shared services it touches.

    Attributes:
        members: the application hosts in the group.
        services: special-purpose nodes the group communicates with (not
            members; recorded for diagnosis context).
    """

    members: FrozenSet[str]
    services: FrozenSet[str]

    @property
    def key(self) -> str:
        """A deterministic identifier derived from the member set."""
        return "|".join(sorted(self.members))

    def __contains__(self, host: str) -> bool:
        return host in self.members

    def owns_edge(self, src: str, dst: str) -> bool:
        """Whether a flow between ``src`` and ``dst`` belongs to this group.

        Group-internal edges and edges between a member and a shared
        service both count; purely service-to-service traffic does not.
        """
        return (src in self.members and dst in self.members) or (
            src in self.members and dst in self.services
        ) or (src in self.services and dst in self.members)


def extract_groups(
    arrivals: Sequence[FlowArrival],
    special_nodes: Iterable[str] = (),
) -> List[ApplicationGroup]:
    """Partition hosts into application groups from observed flows.

    Union-find over flow endpoints, skipping unions through special nodes;
    each special node is then attributed (as a service) to every group any
    of its peers belongs to.

    Returns:
        Groups sorted by their deterministic key.
    """
    special = set(special_nodes)
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    service_peers: Dict[str, Set[str]] = {}
    # Flows repeat few edges: visit each once, in first-seen order (the
    # order nodes enter ``parent``).
    for src, dst in dict.fromkeys([arrival.flow[:2] for arrival in arrivals]):
        for node in (src, dst):
            if node not in special:
                parent.setdefault(node, node)
        if src in special and dst in special:
            continue
        if src in special:
            service_peers.setdefault(src, set()).add(dst)
        elif dst in special:
            service_peers.setdefault(dst, set()).add(src)
        else:
            union(src, dst)

    components: Dict[str, Set[str]] = {}
    for node in parent:
        components.setdefault(find(node), set()).add(node)

    groups = []
    for members in components.values():
        touched = frozenset(
            svc for svc, peers in service_peers.items() if peers & members
        )
        groups.append(
            ApplicationGroup(members=frozenset(members), services=touched)
        )
    groups.sort(key=lambda g: g.key)
    return groups


def match_groups(
    baseline: Sequence[ApplicationGroup],
    current: Sequence[ApplicationGroup],
) -> List[Tuple[Optional[ApplicationGroup], Optional[ApplicationGroup]]]:
    """Pair groups across two logs by maximum member overlap.

    Greedy maximum-Jaccard matching: each baseline group is paired with the
    unmatched current group sharing the most members (ties broken by key
    order). Unpaired groups on either side are returned with ``None``
    opposite them — a disappeared or newly appeared application.
    """
    pairs: List[Tuple[Optional[ApplicationGroup], Optional[ApplicationGroup]]] = []
    remaining = list(current)
    for base in baseline:
        best = None
        best_score = 0.0
        for cand in remaining:
            inter = len(base.members & cand.members)
            if inter == 0:
                continue
            score = inter / len(base.members | cand.members)
            if score > best_score:
                best, best_score = cand, score
        if best is not None:
            remaining.remove(best)
        pairs.append((base, best))
    for leftover in remaining:
        pairs.append((None, leftover))
    return pairs
