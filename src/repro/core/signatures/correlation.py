"""The partial-correlation (PC) application signature.

"To quantify [dependency strength], we calculate the partial correlation
between adjacent edges for each CG using flow volume statistics. We divide
the logging interval into equal spaced epoch intervals and, using the
PacketIn messages during each epoch, we measure the flow count for each
edge in the CG and compute the correlation over these time series data
using the Pearson's coefficient" (Section III-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import pearson
from repro.analysis.timeseries import epoch_counts
from repro.core.events import FlowArrival
from repro.core.signatures.base import (
    ChangeRecord,
    JsonDict,
    Signature,
    SignatureKind,
    decode_pair,
    edge_component,
    encode_pair,
)

Edge = Tuple[str, str]
EdgePair = Tuple[Edge, Edge]


@dataclass(frozen=True)
class PartialCorrelation(Signature):
    """Pearson correlation of epoch flow counts between adjacent CG edges.

    Attributes:
        correlations: per adjacent edge pair (sharing a middle node, in
            cascade orientation ``(u, n), (n, w)``), the correlation of
            their per-epoch flow-count series.
        epoch: the epoch width used, in seconds.
    """

    correlations: Tuple[Tuple[EdgePair, float], ...]
    epoch: float = 1.0

    @classmethod
    def build(
        cls,
        arrivals: Sequence[FlowArrival],
        t_start: float,
        t_end: float,
        epoch: float = 1.0,
        min_count: int = 4,
    ) -> "PartialCorrelation":
        """Correlate adjacent edges' epoch count series.

        Edge pairs with fewer than ``min_count`` total observations on
        either edge are skipped (their correlation estimate would be
        noise).
        """
        times_by_edge: Dict[Edge, List[float]] = {}
        for arrival in arrivals:
            times_by_edge.setdefault((arrival.src, arrival.dst), []).append(arrival.time)
        series = {
            edge: epoch_counts(times, t_start, t_end, epoch)
            for edge, times in times_by_edge.items()
            if len(times) >= min_count
        }

        # Adjacent pairs: (u, n) feeding (n, w). Following the paper, the
        # coefficient is Pearson's over the two epoch-count series; at flow
        # granularity every other edge at the middle node (responses,
        # sibling requests) is itself causally tied to these series, so
        # conditioning on them as confounders would subtract real signal
        # rather than noise.
        out: Dict[EdgePair, float] = {}
        edges = sorted(series)
        by_src: Dict[str, List[Edge]] = {}
        for edge in edges:
            by_src.setdefault(edge[0], []).append(edge)
        for in_edge in edges:
            node = in_edge[1]
            for out_edge in by_src.get(node, []):
                if out_edge == in_edge or out_edge[1] == in_edge[0]:
                    continue  # skip self and pure reverses
                out[(in_edge, out_edge)] = pearson(
                    [float(c) for c in series[in_edge]],
                    [float(c) for c in series[out_edge]],
                )
        return cls(correlations=tuple(sorted(out.items())), epoch=epoch)

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "epoch": self.epoch,
            "correlations": [
                [encode_pair(p), r] for p, r in self.correlations
            ],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "PartialCorrelation":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            correlations=tuple(
                (decode_pair(p), r) for p, r in data["correlations"]
            ),
            epoch=data["epoch"],
        )

    def pairs(self) -> List[EdgePair]:
        """All correlated edge pairs."""
        return [p for p, _ in self.correlations]

    def value(self, pair: EdgePair) -> float:
        """The correlation for one pair; 0.0 when absent."""
        for p, r in self.correlations:
            if p == pair:
                return r
        return 0.0

    def value_map(self) -> Dict[EdgePair, float]:
        """All correlations as a dict (the linear batch form of ``value``).

        ``distance`` consumes this instead of calling :meth:`value` per
        pair, which rescans ``correlations``.
        """
        return dict(self.correlations)

    def distance(self, other: "PartialCorrelation") -> float:
        """Largest correlation delta across common pairs."""
        worst = 0.0
        mine = self.value_map()
        theirs = other.value_map()
        for pair in set(mine) & set(theirs):
            worst = max(worst, abs(mine[pair] - theirs[pair]))
        return worst

    def diff(
        self,
        other: "PartialCorrelation",
        scope: str,
        *,
        delta_threshold: float,
    ) -> List[ChangeRecord]:
        """Flag pairs whose dependency strength moved beyond the threshold."""
        changes: List[ChangeRecord] = []
        for pair in sorted(set(self.pairs()) & set(other.pairs())):
            base = self.value(pair)
            cur = other.value(pair)
            delta = abs(cur - base)
            if delta > delta_threshold:
                in_edge, out_edge = pair
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.PC,
                        scope=scope,
                        description=(
                            f"correlation {in_edge}->{out_edge} "
                            f"{base:.2f} -> {cur:.2f}"
                        ),
                        components=frozenset(
                            {
                                in_edge[1],
                                edge_component(*in_edge),
                                edge_component(*out_edge),
                            }
                        ),
                        magnitude=delta,
                    )
                )
        return changes
