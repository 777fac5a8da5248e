"""The flow-statistics (FS) application signature.

"We use the control traffic measurements to compute the flow duration, the
byte count, and the packet count of each flow corresponding to each
application group. We also measure max, min, and average flow counts and
volumes per unit of time" (Section III-B). Byte counts and durations come
from ``FlowRemoved`` counters; arrival rates from ``PacketIn`` timing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.stats import EmpiricalCDF, mean_std
from repro.analysis.timeseries import epoch_counts
from repro.core.events import FlowRecord
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
class RateSummary:
    """Max / min / average of a per-unit-time series."""

    maximum: float
    minimum: float
    average: float

    @classmethod
    def of(cls, series: Sequence[float]) -> "RateSummary":
        """Summarize a series; zeros for an empty one."""
        if not series:
            return cls(0.0, 0.0, 0.0)
        return cls(
            maximum=max(series),
            minimum=min(series),
            average=sum(series) / len(series),
        )


@dataclass(frozen=True)
class FlowStats(Signature):
    """Volume-dimension statistics of one application group's flows.

    Attributes:
        flow_count: number of flow occurrences observed.
        byte_mean/byte_std: per-flow byte-count moments.
        duration_mean/duration_std: per-flow duration moments.
        packet_mean: per-flow packet-count mean.
        flows_per_sec: max/min/avg flow arrivals per second.
        bytes_per_sec: max/min/avg volume per second.
        per_edge_bytes: total bytes per CG edge (localizes volume shifts).
    """

    flow_count: int
    byte_mean: float
    byte_std: float
    duration_mean: float
    duration_std: float
    packet_mean: float
    flows_per_sec: RateSummary
    bytes_per_sec: RateSummary
    per_edge_bytes: Tuple[Tuple[Edge, int], ...]

    @classmethod
    def build(
        cls,
        records: Sequence[FlowRecord],
        t_start: float,
        t_end: float,
        epoch: float = 1.0,
    ) -> "FlowStats":
        """Build FS over records of one group within ``[t_start, t_end)``."""
        with_counters = [r for r in records if r.byte_count > 0]
        byte_mean, byte_std = mean_std([float(r.byte_count) for r in with_counters])
        duration_mean, duration_std = mean_std([r.duration for r in with_counters])
        packet_mean, _ = mean_std([float(r.packet_count) for r in with_counters])

        times = [r.arrival.time for r in records]
        span = max(t_end - t_start, 1e-9)
        if times and span > epoch:
            counts = epoch_counts(times, t_start, t_end, epoch)
            flows_rate = RateSummary.of([c / epoch for c in counts])
        else:
            flows_rate = RateSummary.of([len(times) / span] if times else [])

        volume_series: List[float] = []
        if with_counters and span > epoch:
            buckets: Dict[int, float] = {}
            for r in with_counters:
                idx = int((r.arrival.time - t_start) // epoch)
                buckets[idx] = buckets.get(idx, 0.0) + r.byte_count
            n_buckets = int(span // epoch) or 1
            volume_series = [buckets.get(i, 0.0) / epoch for i in range(n_buckets)]
        bytes_rate = RateSummary.of(volume_series)
        # The series average is biased low in short windows: flows arriving
        # near the window end expire (and report their counters) *after*
        # it, so their volume is missing. byte_mean is unbiased (computed
        # only over counter-bearing flows) and the PacketIn-based flow rate
        # is complete, so their product is the unbiased volume rate.
        if with_counters:
            bytes_rate = RateSummary(
                maximum=bytes_rate.maximum,
                minimum=bytes_rate.minimum,
                average=byte_mean * flows_rate.average,
            )

        per_edge: Dict[Edge, int] = {}
        for r in with_counters:
            edge = (r.arrival.src, r.arrival.dst)
            per_edge[edge] = per_edge.get(edge, 0) + r.byte_count

        return cls(
            flow_count=len(records),
            byte_mean=byte_mean,
            byte_std=byte_std,
            duration_mean=duration_mean,
            duration_std=duration_std,
            packet_mean=packet_mean,
            flows_per_sec=flows_rate,
            bytes_per_sec=bytes_rate,
            per_edge_bytes=tuple(sorted(per_edge.items())),
        )

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "flow_count": self.flow_count,
            "byte_mean": self.byte_mean,
            "byte_std": self.byte_std,
            "duration_mean": self.duration_mean,
            "duration_std": self.duration_std,
            "packet_mean": self.packet_mean,
            "flows_per_sec": [
                self.flows_per_sec.maximum,
                self.flows_per_sec.minimum,
                self.flows_per_sec.average,
            ],
            "bytes_per_sec": [
                self.bytes_per_sec.maximum,
                self.bytes_per_sec.minimum,
                self.bytes_per_sec.average,
            ],
            "per_edge_bytes": [
                [encode_edge(e), b] for e, b in self.per_edge_bytes
            ],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "FlowStats":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            flow_count=data["flow_count"],
            byte_mean=data["byte_mean"],
            byte_std=data["byte_std"],
            duration_mean=data["duration_mean"],
            duration_std=data["duration_std"],
            packet_mean=data["packet_mean"],
            flows_per_sec=RateSummary(*data["flows_per_sec"]),
            bytes_per_sec=RateSummary(*data["bytes_per_sec"]),
            per_edge_bytes=tuple(
                (decode_edge(e), b) for e, b in data["per_edge_bytes"]
            ),
        )

    def scalar_summary(self) -> Tuple[float, float, float, float]:
        """The four scalars :meth:`distance` compares, in a fixed order.

        Kept next to ``distance`` so the two can never drift apart
        silently.
        """
        return (
            self.byte_mean,
            self.duration_mean,
            self.flows_per_sec.average,
            self.bytes_per_sec.average,
        )

    def distance(self, other: "FlowStats") -> float:
        """Maximum relative change across the scalar summaries."""
        return max(
            _relative(base, current)
            for base, current in zip(self.scalar_summary(), other.scalar_summary())
        )

    def diff(
        self, other: "FlowStats", scope: str, *, threshold: float
    ) -> List[ChangeRecord]:
        """Scalar comparisons with relative-change thresholds (Section IV-A)."""
        changes: List[ChangeRecord] = []
        scalars = [
            ("byte count mean", self.byte_mean, other.byte_mean),
            ("duration mean", self.duration_mean, other.duration_mean),
            (
                "flow rate avg",
                self.flows_per_sec.average,
                other.flows_per_sec.average,
            ),
            (
                "volume avg",
                self.bytes_per_sec.average,
                other.bytes_per_sec.average,
            ),
        ]
        for label, base, cur in scalars:
            rel = _relative(base, cur)
            if rel > threshold:
                components = self._changed_edges(other, threshold)
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.FS,
                        scope=scope,
                        description=(
                            f"{label} changed {base:.1f} -> {cur:.1f} "
                            f"({rel * 100.0:.0f}%)"
                        ),
                        components=components,
                        magnitude=rel,
                    )
                )
        return changes

    def _changed_edges(self, other: "FlowStats", threshold: float) -> frozenset:
        base = dict(self.per_edge_bytes)
        cur = dict(other.per_edge_bytes)
        out = set()
        for edge in set(base) | set(cur):
            if _relative(base.get(edge, 0), cur.get(edge, 0)) > threshold:
                out.add(edge[0])
                out.add(edge[1])
                out.add(edge_component(*edge))
        return frozenset(out)


def byte_cdf(records: Sequence[FlowRecord]) -> EmpiricalCDF:
    """Empirical CDF of per-flow byte counts (Figure 9(a)).

    Over the counter-bearing flows, as ``byte_mean`` is; it needs the
    records because the signature holds summaries, not samples.
    """
    return EmpiricalCDF.from_values(
        float(r.byte_count) for r in records if r.byte_count > 0
    )


def _relative(base: float, current: float) -> float:
    """Symmetric relative change; 0 when both are ~zero, 1 when one is."""
    denominator = max(abs(base), abs(current))
    if denominator < 1e-12:
        return 0.0
    return abs(current - base) / denominator
