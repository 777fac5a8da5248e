"""The connectivity-graph (CG) application signature.

"A connectivity graph represents the communication relationship between
the servers where an application runs" (Section III-B), built from the
source/destination metadata of ``PacketIn`` messages. Comparison is the
paper's "simple graph matching algorithm, which returns the list of
missing or new edges" (Section IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.events import FlowArrival
from repro.core.signatures.base import (
    ChangeRecord,
    JsonDict,
    Signature,
    SignatureKind,
    decode_edge,
    edge_component,
    encode_edge,
)

Edge = Tuple[str, str]


@dataclass(frozen=True)
class ConnectivityGraph(Signature):
    """Directed host-level communication graph of one application group.

    Attributes:
        edges: observed (src, dst) pairs.
        first_seen: earliest arrival time per edge (drives the timestamps
            on new-edge change records, which task validation aligns with
            the task time series).
    """

    edges: FrozenSet[Edge]
    first_seen: Tuple[Tuple[Edge, float], ...] = ()

    @classmethod
    def build(cls, arrivals: Sequence[FlowArrival]) -> "ConnectivityGraph":
        """Build the CG from a group's flow arrivals."""
        first: Dict[Edge, float] = {}
        for flow, time, _ in arrivals:
            edge = flow[:2]
            seen = first.get(edge)
            if seen is None or time < seen:
                first[edge] = time
        return cls(
            edges=frozenset(first),
            first_seen=tuple(sorted(first.items())),
        )

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "edges": [encode_edge(e) for e in sorted(self.edges)],
            "first_seen": [[encode_edge(e), t] for e, t in self.first_seen],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "ConnectivityGraph":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            edges=frozenset(decode_edge(e) for e in data["edges"]),
            first_seen=tuple(
                (decode_edge(e), t) for e, t in data["first_seen"]
            ),
        )

    def first_seen_at(self, edge: Edge) -> Optional[float]:
        """When ``edge`` first appeared, or None if absent."""
        for e, t in self.first_seen:
            if e == edge:
                return t
        return None

    def nodes(self) -> Set[str]:
        """All endpoints appearing in the graph."""
        out: Set[str] = set()
        for a, b in self.edges:
            out.add(a)
            out.add(b)
        return out

    def distance(self, other: "ConnectivityGraph") -> float:
        """Normalized symmetric-difference distance in [0, 1]."""
        union = self.edges | other.edges
        if not union:
            return 0.0
        return len(self.edges ^ other.edges) / len(union)

    def diff(self, other: "ConnectivityGraph", scope: str) -> List[ChangeRecord]:
        """New and missing edges of ``other`` (current) vs ``self`` (baseline)."""
        changes: List[ChangeRecord] = []
        for edge in sorted(other.edges - self.edges):
            changes.append(
                ChangeRecord(
                    kind=SignatureKind.CG,
                    scope=scope,
                    description=f"new edge {edge[0]} -> {edge[1]}",
                    components=frozenset({edge[0], edge[1], edge_component(*edge)}),
                    magnitude=1.0,
                    timestamp=other.first_seen_at(edge),
                    direction="added",
                )
            )
        for edge in sorted(self.edges - other.edges):
            changes.append(
                ChangeRecord(
                    kind=SignatureKind.CG,
                    scope=scope,
                    description=f"missing edge {edge[0]} -> {edge[1]}",
                    components=frozenset({edge[0], edge[1], edge_component(*edge)}),
                    magnitude=1.0,
                    timestamp=None,
                    direction="removed",
                )
            )
        return changes
