"""Infrastructure signatures: PT, ISL, and CRT (Section III-C).

* **Physical topology (PT)**: "By combining PacketIn and FlowMod
  information from all switches that a flow traverses, we can determine
  the order of traversal and infer physical connectivity between them."
  Host attachment points come from the first/last switch of each flow.
* **Inter-switch latency (ISL)**: per Figure 3, the latency between
  consecutive switches on a flow's path is the gap between the upstream
  switch's FlowMod (its release time) and the downstream switch's
  PacketIn, summarized as mean and standard deviation because individual
  samples vary with switch processing times.
* **Controller response time (CRT)**: the PacketIn-to-FlowMod gap,
  also summarized by its first two moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.stats import mean_std
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

SwitchEdge = Tuple[str, str]


@dataclass(frozen=True)
class PhysicalTopology(Signature):
    """Inferred switch-level connectivity and host attachment points.

    Attributes:
        switch_links: undirected switch adjacency inferred from traversal
            order.
        host_attachment: host -> (first) switch it entered the fabric at.
        switch_observations: per switch, how many flow hops it reported —
            the evidence weight behind "this switch exists and is alive".
    """

    switch_links: FrozenSet[SwitchEdge]
    host_attachment: Tuple[Tuple[str, str], ...]
    switch_observations: Tuple[Tuple[str, int], ...] = ()

    @classmethod
    def build(cls, arrivals: Sequence[FlowArrival]) -> "PhysicalTopology":
        """Infer links from traversal order and attachments by majority.

        A log window can truncate a traversal mid-path (the tail hops land
        in the next window), which would mis-attribute a host's attachment
        switch if the first/last observation were trusted blindly — hence
        the per-host majority vote over all of its flows.
        """
        links = set()
        attach_votes: Dict[str, Dict[str, int]] = {}
        obs: Dict[str, int] = {}
        for arrival in arrivals:
            dpids = arrival.path_dpids
            for dpid in dpids:
                obs[dpid] = obs.get(dpid, 0) + 1
            for a, b in zip(dpids, dpids[1:]):
                links.add((a, b) if a <= b else (b, a))
            if dpids:
                src_votes = attach_votes.setdefault(arrival.src, {})
                src_votes[dpids[0]] = src_votes.get(dpids[0], 0) + 1
                dst_votes = attach_votes.setdefault(arrival.dst, {})
                dst_votes[dpids[-1]] = dst_votes.get(dpids[-1], 0) + 1
        attach = {
            host: max(sorted(votes), key=lambda sw: votes[sw])
            for host, votes in attach_votes.items()
        }
        return cls(
            switch_links=frozenset(links),
            host_attachment=tuple(sorted(attach.items())),
            switch_observations=tuple(sorted(obs.items())),
        )

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "links": [encode_edge(l) for l in sorted(self.switch_links)],
            "attachment": [list(a) for a in self.host_attachment],
            "observations": [list(o) for o in self.switch_observations],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "PhysicalTopology":
        """Rebuild from :meth:`to_dict` output.

        ``observations`` may be absent in payloads written before the
        field existed — it decodes as empty rather than failing.
        """
        return cls(
            switch_links=frozenset(decode_edge(l) for l in data["links"]),
            host_attachment=tuple(tuple(a) for a in data["attachment"]),
            switch_observations=tuple(
                (o[0], int(o[1])) for o in data.get("observations", [])
            ),
        )

    def observed_switches(self) -> FrozenSet[str]:
        """Every switch appearing in an inferred link or attachment."""
        out = set()
        for a, b in self.switch_links:
            out.add(a)
            out.add(b)
        for _, sw in self.host_attachment:
            out.add(sw)
        return frozenset(out)

    def attachment_of(self, host: str) -> Optional[str]:
        """The switch ``host`` was observed entering/leaving at."""
        for h, sw in self.host_attachment:
            if h == host:
                return sw
        return None

    def distance(self, other: "PhysicalTopology") -> float:
        """Normalized symmetric difference of inferred switch links."""
        union = self.switch_links | other.switch_links
        if not union:
            return 0.0
        return len(self.switch_links ^ other.switch_links) / len(union)

    def diff(
        self,
        other: "PhysicalTopology",
        min_switch_evidence: int = 10,
    ) -> List[ChangeRecord]:
        """Link/switch appearance and disappearance, host attachment moves.

        A switch that the baseline observed heavily (at least
        ``min_switch_evidence`` flow hops) but the current log never sees
        is reported as vanished — the primary evidence of switch failure.
        Links with a vanished endpoint are folded into that record rather
        than listed one by one.
        """
        changes: List[ChangeRecord] = []
        base_counts = dict(self.switch_observations)
        cur_observed = other.observed_switches()
        vanished = {
            sw
            for sw, count in base_counts.items()
            if count >= min_switch_evidence and sw not in cur_observed
        }
        if cur_observed:  # an empty current log is absence of data, not failure
            for sw in sorted(vanished):
                neighbour_links = [l for l in self.switch_links if sw in l]
                components = {sw}
                for link in neighbour_links:
                    components.update(link)
                    components.add(edge_component(*link))
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.PT,
                        scope="infrastructure",
                        description=(
                            f"switch {sw} no longer observed "
                            f"({base_counts[sw]} baseline observations)"
                        ),
                        components=frozenset(components),
                        magnitude=float(len(neighbour_links) or 1),
                        direction="removed",
                    )
                )
        for link in sorted(other.switch_links - self.switch_links):
            changes.append(
                ChangeRecord(
                    kind=SignatureKind.PT,
                    scope="infrastructure",
                    description=f"new switch link {link[0]} -- {link[1]}",
                    components=frozenset({link[0], link[1], edge_component(*link)}),
                    magnitude=1.0,
                    direction="added",
                )
            )
        # A link absent from the current log is only evidence of a problem
        # when both of its switches are still being observed — an idle
        # link (no flow happened to cross it in this window) is not a
        # topology change.
        still_observed = cur_observed
        for link in sorted(self.switch_links - other.switch_links):
            if link[0] not in still_observed or link[1] not in still_observed:
                continue  # folded into a vanished-switch record or idle
            changes.append(
                ChangeRecord(
                    kind=SignatureKind.PT,
                    scope="infrastructure",
                    description=f"missing switch link {link[0]} -- {link[1]}",
                    components=frozenset({link[0], link[1], edge_component(*link)}),
                    magnitude=1.0,
                    direction="removed",
                )
            )
        base_attach = dict(self.host_attachment)
        cur_attach = dict(other.host_attachment)
        for host in sorted(set(base_attach) & set(cur_attach)):
            if base_attach[host] != cur_attach[host]:
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.PT,
                        scope="infrastructure",
                        description=(
                            f"host {host} moved "
                            f"{base_attach[host]} -> {cur_attach[host]}"
                        ),
                        components=frozenset(
                            {host, base_attach[host], cur_attach[host]}
                        ),
                        magnitude=1.0,
                    )
                )
        return changes


@dataclass(frozen=True)
class InterSwitchLatency(Signature):
    """Mean/std/count of observed latency between adjacent switch pairs."""

    stats: Tuple[Tuple[SwitchEdge, Tuple[float, float, int]], ...]

    @classmethod
    def build(cls, arrivals: Sequence[FlowArrival]) -> "InterSwitchLatency":
        """Collect per-adjacent-pair latency samples from hop reports."""
        samples: Dict[SwitchEdge, List[float]] = {}
        for arrival in arrivals:
            hops = arrival.hops
            for up, down in zip(hops, hops[1:]):
                if up.flow_mod_at is None:
                    continue
                latency = down.packet_in_at - up.flow_mod_at
                if latency < 0:
                    continue
                a, b = up.dpid, down.dpid
                pair = (a, b) if a <= b else (b, a)
                samples.setdefault(pair, []).append(latency)
        stats = {}
        for pair, vals in samples.items():
            mean, std = mean_std(vals)
            stats[pair] = (mean, std, len(vals))
        return cls(stats=tuple(sorted(stats.items())))

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {
            "stats": [
                [encode_edge(pair), [mean, std, n]]
                for pair, (mean, std, n) in self.stats
            ]
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "InterSwitchLatency":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            stats=tuple(
                (decode_edge(pair), (stats[0], stats[1], stats[2]))
                for pair, stats in data["stats"]
            )
        )

    def pairs(self) -> List[SwitchEdge]:
        """All measured adjacent switch pairs."""
        return [p for p, _ in self.stats]

    def mean_of(self, pair: SwitchEdge) -> Optional[float]:
        """Mean latency for one pair, if measured."""
        for p, (mean, _, _) in self.stats:
            if p == pair:
                return mean
        return None

    def distance(self, other: "InterSwitchLatency") -> float:
        """Largest mean shift expressed in baseline standard deviations."""
        worst = 0.0
        base = dict(self.stats)
        for pair, (cur_mean, _, _) in other.stats:
            if pair not in base:
                continue
            mean, std, _ = base[pair]
            denom = max(std, mean * 0.1, 1e-6)
            worst = max(worst, abs(cur_mean - mean) / denom)
        return worst

    def diff(
        self, other: "InterSwitchLatency", *, sigma_threshold: float
    ) -> List[ChangeRecord]:
        """Flag pairs whose mean latency moved beyond N baseline sigmas."""
        changes: List[ChangeRecord] = []
        base = dict(self.stats)
        for pair, (cur_mean, _, n) in sorted(other.stats):
            if pair not in base or n < 3:
                continue
            mean, std, _ = base[pair]
            denom = max(std, mean * 0.1, 1e-6)
            score = abs(cur_mean - mean) / denom
            if score > sigma_threshold:
                changes.append(
                    ChangeRecord(
                        kind=SignatureKind.ISL,
                        scope="infrastructure",
                        description=(
                            f"latency {pair[0]} -- {pair[1]} "
                            f"{mean * 1000:.2f}ms -> {cur_mean * 1000:.2f}ms"
                        ),
                        components=frozenset({pair[0], pair[1], edge_component(*pair)}),
                        magnitude=score,
                    )
                )
        return changes


@dataclass(frozen=True)
class ControllerResponseTime(Signature):
    """Mean/std/count of PacketIn-to-FlowMod response times."""

    mean: float
    std: float
    count: int

    @classmethod
    def build(cls, arrivals: Sequence[FlowArrival]) -> "ControllerResponseTime":
        """Summarize PacketIn-to-FlowMod response times across all hops."""
        samples = [
            hop.flow_mod_at - hop.packet_in_at
            for arrival in arrivals
            for hop in arrival.hops
            if hop.flow_mod_at is not None and hop.flow_mod_at >= hop.packet_in_at
        ]
        mean, std = mean_std(samples)
        return cls(mean=mean, std=std, count=len(samples))

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding (see :mod:`repro.core.persist`)."""
        return {"mean": self.mean, "std": self.std, "count": self.count}

    @classmethod
    def from_dict(cls, data: JsonDict) -> "ControllerResponseTime":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(mean=data["mean"], std=data["std"], count=data["count"])

    def distance(self, other: "ControllerResponseTime") -> float:
        """Mean shift in baseline sigmas."""
        denom = max(self.std, self.mean * 0.1, 1e-6)
        return abs(other.mean - self.mean) / denom

    def diff(
        self, other: "ControllerResponseTime", *, sigma_threshold: float
    ) -> List[ChangeRecord]:
        """Flag a controller response-time regime change."""
        if self.count < 3 or other.count < 3:
            return []
        score = self.distance(other)
        if score <= sigma_threshold:
            return []
        return [
            ChangeRecord(
                kind=SignatureKind.CRT,
                scope="infrastructure",
                description=(
                    f"controller response time "
                    f"{self.mean * 1000:.2f}ms -> {other.mean * 1000:.2f}ms"
                ),
                components=frozenset({"controller"}),
                magnitude=score,
            )
        ]


@dataclass(frozen=True)
class InfrastructureSignature:
    """The infrastructure bundle built data-center-wide from one log.

    Attributes:
        pt/isl/crt: the three signatures of Section III-C.
        port_down_events: ``(timestamp, dpid, port)`` for every
            ``PortStatus(live=False)`` the controller logged — direct
            switch-reported evidence that corroborates inferred topology
            changes (a vanished switch plus its own down notification is a
            much stronger failure signal than either alone).
    """

    pt: PhysicalTopology
    isl: InterSwitchLatency
    crt: ControllerResponseTime
    port_down_events: Tuple[Tuple[float, str, int], ...] = ()

    def corroborated_dead_switches(self) -> FrozenSet[str]:
        """Switches that themselves reported a port/link going down."""
        return frozenset(dpid for _, dpid, _ in self.port_down_events)

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding of the whole bundle."""
        return {
            "pt": self.pt.to_dict(),
            "isl": self.isl.to_dict(),
            "crt": self.crt.to_dict(),
            "port_down_events": [list(e) for e in self.port_down_events],
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "InfrastructureSignature":
        """Rebuild from :meth:`to_dict` output.

        ``port_down_events`` decodes leniently (absent in payloads written
        before the field existed).
        """
        return cls(
            pt=PhysicalTopology.from_dict(data["pt"]),
            isl=InterSwitchLatency.from_dict(data["isl"]),
            crt=ControllerResponseTime.from_dict(data["crt"]),
            port_down_events=tuple(
                (float(t), str(d), int(p))
                for t, d, p in data.get("port_down_events", [])
            ),
        )


def build_infrastructure_signature(
    arrivals: Sequence[FlowArrival],
    port_down_events: Sequence[Tuple[float, str, int]] = (),
) -> InfrastructureSignature:
    """Build PT, ISL, and CRT from all flow arrivals in a log."""
    return InfrastructureSignature(
        pt=PhysicalTopology.build(arrivals),
        isl=InterSwitchLatency.build(arrivals),
        crt=ControllerResponseTime.build(arrivals),
        port_down_events=tuple(port_down_events),
    )
