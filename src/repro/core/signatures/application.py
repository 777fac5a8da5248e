"""The per-group application signature bundle and its builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.events import FlowRecord, extract_flow_records
from repro.core.groups import ApplicationGroup, extract_groups
from repro.core.signatures.base import JsonDict
from repro.core.signatures.connectivity import ConnectivityGraph
from repro.core.signatures.correlation import PartialCorrelation
from repro.core.signatures.delay import DelayDistribution
from repro.core.signatures.flowstats import FlowStats
from repro.core.signatures.interaction import ComponentInteraction
from repro.openflow.log import ControllerLog


#: ``group_records``: no decision yet about an edge's owning group.
_UNDECIDED = object()


@dataclass(frozen=True)
class SignatureConfig:
    """Knobs of application-signature construction.

    Attributes:
        epoch: epoch width for PC and FS rate series (seconds).
        dd_window: dependency pairing window for DD (seconds).
        dd_bin_width: DD histogram bin width (the paper plots 20 ms).
        occurrence_gap: gap separating two occurrences of one 5-tuple.
        special_nodes: shared-service hosts excluded from grouping.
    """

    epoch: float = 1.0
    dd_window: float = 1.0
    dd_bin_width: float = 0.02
    occurrence_gap: float = 1.0
    special_nodes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ApplicationSignature:
    """The five-component behavioral signature of one application group."""

    group: ApplicationGroup
    cg: ConnectivityGraph
    fs: FlowStats
    ci: ComponentInteraction
    dd: DelayDistribution
    pc: PartialCorrelation

    @property
    def key(self) -> str:
        """The owning group's deterministic key."""
        return self.group.key

    def to_dict(self) -> JsonDict:
        """The persisted-JSON encoding of the whole bundle.

        Delegates to each component's ``to_dict`` — the format is owned
        here and in those methods; :mod:`repro.core.persist` only frames
        the result with version and window metadata.
        """
        return {
            "group": {
                "members": sorted(self.group.members),
                "services": sorted(self.group.services),
            },
            "cg": self.cg.to_dict(),
            "fs": self.fs.to_dict(),
            "ci": self.ci.to_dict(),
            "dd": self.dd.to_dict(),
            "pc": self.pc.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: JsonDict) -> "ApplicationSignature":
        """Rebuild from :meth:`to_dict` output (exact round-trip)."""
        return cls(
            group=ApplicationGroup(
                members=frozenset(data["group"]["members"]),
                services=frozenset(data["group"]["services"]),
            ),
            cg=ConnectivityGraph.from_dict(data["cg"]),
            fs=FlowStats.from_dict(data["fs"]),
            ci=ComponentInteraction.from_dict(data["ci"]),
            dd=DelayDistribution.from_dict(data["dd"]),
            pc=PartialCorrelation.from_dict(data["pc"]),
        )


def group_records(
    records: Sequence[FlowRecord],
    groups: Sequence[ApplicationGroup],
) -> Dict[str, List[FlowRecord]]:
    """Attribute flow records to the application group owning their edge."""
    out: Dict[str, List[FlowRecord]] = {g.key: [] for g in groups}
    member_of: Dict[str, ApplicationGroup] = {}
    for group in groups:
        for host in group.members:
            member_of[host] = group
    # Per (src, dst) edge, the list of the group owning it, or None; flows
    # repeat few edges, so ownership is decided once per edge.
    owner: Dict[Tuple[str, str], Optional[List[FlowRecord]]] = {}
    for record in records:
        edge = record.arrival.flow[:2]
        bucket = owner.get(edge, _UNDECIDED)
        if bucket is _UNDECIDED:
            src, dst = edge
            group = member_of.get(src) or member_of.get(dst)
            bucket = owner[edge] = (
                out[group.key] if group is not None and group.owns_edge(src, dst) else None
            )
        if bucket is not None:
            bucket.append(record)
    return out


def build_application_signatures(
    log: ControllerLog,
    config: Optional[SignatureConfig] = None,
    window: Optional[Tuple[float, float]] = None,
    records: Optional[Sequence[FlowRecord]] = None,
) -> Dict[str, ApplicationSignature]:
    """Build every application group's signature bundle from a log.

    Args:
        log: the controller capture (or a window of one).
        config: construction knobs; defaults are the paper's settings.
        window: explicit ``[t_start, t_end)`` bounds; defaults to the log's
            span (needed so rate/epoch series are comparable across logs of
            different lengths).
        records: the log's flow records, when the caller already extracted
            them (``FlowDiff.model`` shares one extraction with the
            infrastructure signature).

    Returns:
        Mapping from group key to its :class:`ApplicationSignature`.
    """
    config = config or SignatureConfig()
    if records is None:
        records = extract_flow_records(log, config.occurrence_gap)
    arrivals = [r.arrival for r in records]
    groups = extract_groups(arrivals, config.special_nodes)
    t_start, t_end = window if window is not None else log.time_span

    by_group = group_records(records, groups)
    signatures: Dict[str, ApplicationSignature] = {}
    for group in groups:
        grp_records = by_group[group.key]
        grp_arrivals = [r.arrival for r in grp_records]
        signatures[group.key] = ApplicationSignature(
            group=group,
            cg=ConnectivityGraph.build(grp_arrivals),
            fs=FlowStats.build(grp_records, t_start, t_end, config.epoch),
            ci=ComponentInteraction.build(grp_arrivals),
            dd=DelayDistribution.build(
                grp_arrivals,
                window=config.dd_window,
                bin_width=config.dd_bin_width,
            ),
            pc=PartialCorrelation.build(
                grp_arrivals, t_start, t_end, epoch=config.epoch
            ),
        )
    return signatures
