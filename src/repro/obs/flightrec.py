"""The per-flow causal flight recorder: reconstruct event chains from a log.

FlowDiff's aggregate signature diffs tell an operator *that* behavior
changed; the flight recorder tells them *what one flow experienced*. Every
flow instance injected into the simulated network carries a correlation id
(:attr:`~repro.openflow.messages.ControlMessage.corr_id`) stamped onto the
PacketIn raised at each switch hop, the FlowMod/PacketOut replies, and the
eventual FlowRemoved. Reconstruction turns one capture into per-flow
timelines::

    trigger packet -> controller decision -> per-switch rule installs
                   -> forwarding hops -> expiry

with per-stage latencies, in the spirit of 007's per-flow evidence chains
(Arzani et al.) layered over the paper's controller-side capture.

Captures from controllers that do not stamp correlation ids (old files,
Ryu ingests) degrade gracefully: messages are grouped heuristically by
flow 5-tuple and occurrence gap, yielding synthetic (negative) ids.
Dropped or reordered control messages never abort reconstruction — the
resulting timeline simply reports itself incomplete or non-monotone,
which is itself diagnostic signal.

:class:`FlightRecorder` is an index, not a pile of chains: binding a
capture costs one pass that groups its messages by flow instance, and a
:class:`FlowTimeline` (sorted, formatted, latencies computed) is built the
first time something reads it. Asking for one correlation id builds one
chain; ``repro diff --evidence`` builds the chains of the flows that can
touch a ranked suspect, so it costs in proportion to the suspects' flows,
not to the capture.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import (
    Any,
    Callable,
    Collection,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
    overload,
)

from repro.core.occurrence import splits_occurrence
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    PacketIn,
    PacketOut,
)

#: Heuristic correlation: two occurrences of the same 5-tuple further apart
#: than this are distinct flow instances. Generous enough to keep a flow's
#: FlowRemoved (idle timeout + sweep period after the last packet) attached.
DEFAULT_OCCURRENCE_GAP = 10.0

#: The stages every whole chain has: trigger, decision, expiry.
_REQUIRED_STAGES = ("packet_in", "flow_mod", "flow_removed")


def _dropped_stages(stages: Collection[str]) -> Tuple[str, ...]:
    return tuple(s for s in _REQUIRED_STAGES if s not in stages)


def _causal(marks: Sequence[Tuple[str, str, float]]) -> bool:
    """Whether ``(stage, dpid, timestamp)`` marks in timestamp order respect
    causality: no hop's FlowMod before the PacketIn that triggered it, no
    expiry before the chain's trigger."""
    first_in: Dict[str, float] = {}
    for stage, dpid, timestamp in marks:
        if stage == "packet_in" and dpid not in first_in:
            first_in[dpid] = timestamp
    trigger = min(first_in.values()) if first_in else None
    for stage, dpid, timestamp in marks:
        if stage == "flow_mod" and dpid in first_in:
            if timestamp < first_in[dpid]:
                return False
        elif stage == "flow_removed" and trigger is not None:
            if timestamp < trigger:
                return False
    return True


@dataclass(frozen=True)
class TimelineEvent:
    """One stage of a flow's causal chain.

    Attributes:
        timestamp: controller-side time of the stage.
        stage: ``packet_in`` | ``flow_mod`` | ``packet_out`` |
            ``flow_stats`` | ``flow_removed``.
        dpid: switch the stage concerns.
        detail: human-readable stage specifics (ports, counters, reason).
        latency: seconds since the previous event in the timeline
            (0 for the first event; negative when the capture is reordered).
    """

    timestamp: float
    stage: str
    dpid: str
    detail: str
    latency: float = 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {
            "t": self.timestamp,
            "stage": self.stage,
            "dpid": self.dpid,
            "detail": self.detail,
            "latency_s": self.latency,
        }


@dataclass
class FlowTimeline:
    """The reconstructed causal chain of one flow instance.

    Attributes:
        corr_id: the correlation id (negative for heuristically grouped
            flows from captures without ids).
        flow: the flow 5-tuple, when any message carried one.
        events: the chain, sorted by (timestamp, causal stage order).
        synthetic: True when the grouping was heuristic, not id-based.
        annotations: occupancy/queue context sampled from a metrics
            registry (flow-table occupancy per hop, controller load).
    """

    corr_id: int
    flow: Optional[FlowKey] = None
    events: List[TimelineEvent] = field(default_factory=list)
    synthetic: bool = False
    annotations: Dict[str, float] = field(default_factory=dict)

    # -- chain structure ------------------------------------------------

    @property
    def t_start(self) -> float:
        return self.events[0].timestamp if self.events else 0.0

    @property
    def t_end(self) -> float:
        return self.events[-1].timestamp if self.events else 0.0

    @property
    def hops(self) -> Tuple[str, ...]:
        """Switches traversed, in PacketIn order (all dpids as fallback)."""
        seen: List[str] = []
        for event in self.events:
            if event.stage == "packet_in" and event.dpid not in seen:
                seen.append(event.dpid)
        if not seen:
            for event in self.events:
                if event.dpid not in seen:
                    seen.append(event.dpid)
        return tuple(seen)

    @property
    def complete(self) -> bool:
        """Trigger, decision, and expiry all present in the chain."""
        return not self.dropped_stages

    @property
    def monotone(self) -> bool:
        """Causal order is consistent with the timestamps.

        Events are stored timestamp-sorted, so a plain nondecreasing check
        would always pass; what a skewed or reordered capture breaks is
        *causality*: a hop's FlowMod timestamped before the PacketIn that
        triggered it, or an expiry before the chain's trigger.
        """
        return _causal([(e.stage, e.dpid, e.timestamp) for e in self.events])

    @property
    def dropped_stages(self) -> Tuple[str, ...]:
        """Expected-but-missing stages — the gaps in the chain."""
        return _dropped_stages({e.stage for e in self.events})

    def stage_events(self, stage: str) -> List[TimelineEvent]:
        return [e for e in self.events if e.stage == stage]

    def controller_latencies(self) -> List[float]:
        """Per-hop PacketIn -> FlowMod service latencies, in hop order."""
        out: List[float] = []
        pending: Dict[str, float] = {}
        for event in self.events:
            if event.stage == "packet_in":
                pending[event.dpid] = event.timestamp
            elif event.stage == "flow_mod" and event.dpid in pending:
                out.append(event.timestamp - pending.pop(event.dpid))
        return out

    @property
    def total_latency(self) -> float:
        """First-event to last-install latency (setup portion of the chain).

        Falls back to the whole span when no FlowMod is present.
        """
        mods = self.stage_events("flow_mod")
        if mods:
            return mods[-1].timestamp - self.t_start
        return self.t_end - self.t_start

    # -- rendering ------------------------------------------------------

    def describe(self) -> str:
        """The one-line summary used in listings and evidence chains."""
        flow = str(self.flow) if self.flow is not None else "<unknown flow>"
        state = "complete" if self.complete else (
            "missing " + "+".join(self.dropped_stages)
        )
        order = "" if self.monotone else ", REORDERED"
        tag = "~" if self.synthetic else ""
        return (
            f"corr={tag}{self.corr_id} {flow}: {len(self.events)} events, "
            f"{len(self.hops)} hop(s) [{'>'.join(self.hops)}], {state}{order}"
        )

    def render(self) -> str:
        """A multi-line, operator-facing timeline."""
        lines = [self.describe()]
        for event in self.events:
            lines.append(
                f"  {event.timestamp:12.6f}s  {event.stage:<12} "
                f"{event.dpid:<8} +{event.latency * 1e3:8.3f}ms  {event.detail}"
            )
        crts = self.controller_latencies()
        if crts:
            mean_ms = sum(crts) / len(crts) * 1e3
            lines.append(
                f"  controller decisions: {len(crts)}, mean {mean_ms:.3f}ms, "
                f"setup total {self.total_latency * 1e3:.3f}ms"
            )
        for key, value in sorted(self.annotations.items()):
            lines.append(f"  sample {key} = {value:g}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-able representation (what ``repro trace --json`` emits)."""
        return {
            "corr_id": self.corr_id,
            "flow": str(self.flow) if self.flow is not None else None,
            "synthetic": self.synthetic,
            "complete": self.complete,
            "monotone": self.monotone,
            "dropped_stages": list(self.dropped_stages),
            "hops": list(self.hops),
            "t_start": self.t_start,
            "t_end": self.t_end,
            "setup_latency_s": self.total_latency,
            "controller_latencies_s": self.controller_latencies(),
            "events": [e.to_dict() for e in self.events],
            "annotations": dict(self.annotations),
        }


# ----------------------------------------------------------------------
# What the recorder knows about each message class
# ----------------------------------------------------------------------


def _match_flow(msg: Any) -> Optional[FlowKey]:
    """The 5-tuple a rule message concerns, when its match names one flow."""
    match = msg.match
    if isinstance(match, Match) and match.is_microflow:
        return FlowKey(
            src=match.src,
            dst=match.dst,
            src_port=match.src_port,
            dst_port=match.dst_port,
            proto=match.proto or "tcp",
        )
    return None


def _packet_in_detail(msg: PacketIn) -> str:
    return f"table miss, in_port={msg.in_port}"


def _flow_mod_detail(msg: FlowMod) -> str:
    return f"install out_port={msg.out_port} idle={msg.idle_timeout:g}s" + (
        f" reply_to=#{msg.in_reply_to}" if msg.in_reply_to is not None else ""
    )


def _packet_out_detail(msg: PacketOut) -> str:
    return f"release buffered packet out_port={msg.out_port}"


def _flow_removed_detail(msg: FlowRemoved) -> str:
    return (
        f"expired ({msg.reason.value}) after {msg.duration:g}s, "
        f"{msg.byte_count}B/{msg.packet_count}pkt"
    )


def _flow_stats_detail(msg: FlowStatsReply) -> str:
    return f"counter poll: {msg.byte_count}B/{msg.packet_count}pkt"


class _Kind(NamedTuple):
    """One row of :data:`_KINDS`: a message class as a chain stage."""

    stage: str
    #: breaks timestamp ties into causal order
    order: int
    #: the flow identity a message carries, if recoverable
    flow: Callable[[Any], Optional[FlowKey]]
    detail: Callable[[Any], str]


#: Keyed on ``type(msg)`` (the message classes have no subclasses); a
#: class that is not here (PortStatus, the bare base) is no part of any
#: flow's chain.
_KINDS: Dict[type, _Kind] = {
    PacketIn: _Kind("packet_in", 0, attrgetter("flow"), _packet_in_detail),
    FlowMod: _Kind("flow_mod", 1, _match_flow, _flow_mod_detail),
    PacketOut: _Kind("packet_out", 2, attrgetter("flow"), _packet_out_detail),
    FlowStatsReply: _Kind("flow_stats", 3, _match_flow, _flow_stats_detail),
    FlowRemoved: _Kind("flow_removed", 4, _match_flow, _flow_removed_detail),
}


# ----------------------------------------------------------------------
# Grouping (cheap, whole capture) and building (on demand, one chain)
# ----------------------------------------------------------------------


def _causal_key(msg: ControlMessage) -> Tuple[float, int]:
    return msg.timestamp, _KINDS[type(msg)].order


def _chain_flow(messages: Sequence[ControlMessage]) -> Optional[FlowKey]:
    """The 5-tuple of the first message, in causal order, that carries one.

    ``messages`` is in log (timestamp) order, so only the stage order among
    the messages sharing the earliest flow-carrying timestamp is left to
    settle — normally the scan stops at the second message.
    """
    best: Optional[FlowKey] = None
    best_at = 0.0
    best_order = 0
    for msg in messages:
        if best is not None and msg.timestamp > best_at:
            break
        kind = _KINDS[type(msg)]
        if best is None or kind.order < best_order:
            flow = kind.flow(msg)
            if flow is not None:
                best, best_at, best_order = flow, msg.timestamp, kind.order
    return best


class _Group(NamedTuple):
    """The messages of one flow instance — a chain not built yet.

    Field order is sort order: groups compare by ``(t_start, corr_id)``
    and, ids being unique, never reach ``messages``.
    """

    t_start: float
    corr_id: int
    #: in log order, every one of a class in :data:`_KINDS`
    messages: List[ControlMessage]
    synthetic: bool

    def flow(self) -> Optional[FlowKey]:
        return _chain_flow(self.messages)

    def names(self) -> Set[str]:
        """Every switch and flow endpoint the chain could name."""
        names = {msg.dpid for msg in self.messages}
        flow = self.flow()
        if flow is not None:
            names.update(flow.endpoints())
        return names

    def complete(self) -> bool:
        return not _dropped_stages({_KINDS[type(m)].stage for m in self.messages})

    def monotone(self) -> bool:
        return _causal(
            [(_KINDS[type(m)].stage, m.dpid, m.timestamp) for m in self.messages]
        )


def _build_timeline(
    corr_id: int, messages: Sequence[ControlMessage], synthetic: bool
) -> FlowTimeline:
    timeline = FlowTimeline(
        corr_id=corr_id, flow=_chain_flow(messages), synthetic=synthetic
    )
    prev: Optional[float] = None
    for msg in sorted(messages, key=_causal_key):
        kind = _KINDS[type(msg)]
        latency = 0.0 if prev is None else msg.timestamp - prev
        timeline.events.append(
            TimelineEvent(
                timestamp=msg.timestamp,
                stage=kind.stage,
                dpid=msg.dpid,
                detail=kind.detail(msg),
                latency=latency,
            )
        )
        prev = msg.timestamp
    return timeline


def _annotate(timeline: FlowTimeline, metrics: MetricsRegistry) -> None:
    """Attach occupancy/queue context from a registry snapshot.

    The registry holds end-of-run occupancy state (flow-table entries per
    hop, controller load factor, response-latency distribution); attaching
    it here gives each chain the "how loaded was the machinery" context
    the ISSUE calls queue/occupancy counters.
    """
    for dpid in timeline.hops:
        gauge = metrics.get("flowtable_entries", dpid=dpid)
        if gauge is not None:
            timeline.annotations[f"flowtable_entries{{dpid={dpid}}}"] = float(
                gauge.value
            )
    load = metrics.get("controller_load_factor")
    if load is not None:
        timeline.annotations["controller_load_factor"] = float(load.value)
    response = metrics.get("controller_response_seconds")
    if isinstance(response, Histogram) and response.count:
        timeline.annotations["controller_response_mean_s"] = response.mean


def _group_messages(log: ControllerLog, occurrence_gap: float) -> List[_Group]:
    """One pass over the capture: its flow instances, by ``(t_start, corr_id)``.

    Messages with correlation ids are grouped exactly; the remainder fall
    back to (5-tuple, occurrence-gap) grouping with synthetic negative ids.
    """
    by_corr: Dict[int, List[ControlMessage]] = defaultdict(list)
    loose: Dict[FlowKey, List[ControlMessage]] = defaultdict(list)
    kinds = _KINDS
    for msg in log:
        if type(msg) not in kinds:
            continue
        corr_id = msg.corr_id
        if corr_id is not None:
            by_corr[corr_id].append(msg)
            continue
        flow = kinds[type(msg)].flow(msg)
        if flow is not None:
            loose[flow].append(msg)

    groups = [
        _Group(msgs[0].timestamp, cid, msgs, False) for cid, msgs in by_corr.items()
    ]
    next_synthetic = -1
    for flow in sorted(loose, key=str):
        bucket: List[ControlMessage] = []
        for msg in loose[flow]:
            if bucket and splits_occurrence(
                bucket[-1].timestamp, msg.timestamp, occurrence_gap
            ):
                groups.append(_Group(bucket[0].timestamp, next_synthetic, bucket, True))
                next_synthetic -= 1
                bucket = []
            bucket.append(msg)
        groups.append(_Group(bucket[0].timestamp, next_synthetic, bucket, True))
        next_synthetic -= 1
    groups.sort()
    return groups


class _Chains(Sequence[FlowTimeline]):
    """Some of a recorder's chains, by ``(t_start, corr_id)``.

    Its length is known without building anything; an index builds one
    chain and a slice builds (and returns a list of) only the slice.
    """

    def __init__(self, recorder: "FlightRecorder", groups: List[_Group]) -> None:
        self._recorder = recorder
        self._groups = groups

    def __len__(self) -> int:
        return len(self._groups)

    @overload
    def __getitem__(self, index: int) -> FlowTimeline: ...

    @overload
    def __getitem__(self, index: slice) -> List[FlowTimeline]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[FlowTimeline, List[FlowTimeline]]:
        build = self._recorder._build
        if isinstance(index, slice):
            return [build(group) for group in self._groups[index]]
        return build(self._groups[index])

    def __iter__(self) -> Iterator[FlowTimeline]:
        return map(self._recorder._build, self._groups)


class FlightRecorder:
    """A capture bound to the chains that can be reconstructed from it.

    >>> recorder = FlightRecorder.from_log(log)
    >>> recorder.timeline(corr_id=12).render()
    >>> [t for t in recorder.timelines if not t.complete]

    Chains are built when first read and kept, so the same
    :class:`FlowTimeline` object comes back every time.
    """

    def __init__(
        self, groups: List[_Group], metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.metrics = metrics
        self._groups = groups
        self._by_id = {group.corr_id: group for group in groups}
        self._built: Dict[int, FlowTimeline] = {}
        #: ``_names[i]`` is ``_groups[i].names()``, once a component is asked for
        self._names: Optional[List[Set[str]]] = None

    @classmethod
    def from_log(
        cls,
        log: ControllerLog,
        metrics: Optional[MetricsRegistry] = None,
        occurrence_gap: float = DEFAULT_OCCURRENCE_GAP,
    ) -> "FlightRecorder":
        """Bind a capture: one grouping pass, no chain built yet.

        Args:
            log: the controller capture.
            metrics: optional registry whose occupancy instruments annotate
                each chain (see :func:`_annotate`).
            occurrence_gap: heuristic-mode split threshold in seconds.
        """
        return cls(_group_messages(log, occurrence_gap), metrics=metrics)

    def _build(self, group: _Group) -> FlowTimeline:
        timeline = self._built.get(group.corr_id)
        if timeline is None:
            timeline = _build_timeline(group.corr_id, group.messages, group.synthetic)
            if self.metrics is not None:
                _annotate(timeline, self.metrics)
            self._built[group.corr_id] = timeline
        return timeline

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def timelines(self) -> Sequence[FlowTimeline]:
        """Every chain, sorted by start time; indexing, slicing or
        iterating builds what it reaches and no more."""
        return _Chains(self, self._groups)

    def timeline(self, corr_id: int) -> Optional[FlowTimeline]:
        """The chain for one correlation id, or None."""
        group = self._by_id.get(corr_id)
        return None if group is None else self._build(group)

    def for_flow(self, needle: str) -> Sequence[FlowTimeline]:
        """Chains whose 5-tuple rendering contains ``needle``.

        ``needle`` may be a full ``src:port->dst:port/proto`` string or any
        substring of it (a host name, ``"->S8"``, a port, ...).
        """
        matching = []
        for group in self._groups:
            flow = group.flow()
            if flow is not None and needle in str(flow):
                matching.append(group)
        return _Chains(self, matching)

    def for_component(self, component: str) -> List[FlowTimeline]:
        """Chains implicating a host, switch, or edge (``"a--b"``).

        A chain matches a switch when it traverses it, a host when the
        host is a flow endpoint, and an edge when it traverses both
        endpoints consecutively (or touches the endpoint, for host-switch
        edges). Every one of those needs the component, or the first end
        of the edge, among the chain's switches and endpoints — only the
        groups that pass that are built and put to the exact test.
        """
        if self._names is None:
            self._names = [group.names() for group in self._groups]
        parts = {component, component.split("--", 1)[0]}
        out = []
        for group, names in zip(self._groups, self._names):
            if parts.isdisjoint(names):
                continue
            timeline = self._build(group)
            if _timeline_touches(timeline, component):
                out.append(timeline)
        return out

    def incomplete(self) -> Sequence[FlowTimeline]:
        """Chains with missing stages — the broken flows."""
        return _Chains(self, [g for g in self._groups if not g.complete()])

    def summary(self) -> Dict[str, int]:
        """Counts handy for the CLI footer and tests (builds no chain)."""
        complete = sum(1 for g in self._groups if g.complete())
        return {
            "flows": len(self._groups),
            "complete": complete,
            "incomplete": len(self._groups) - complete,
            "synthetic": sum(1 for g in self._groups if g.synthetic),
            "reordered": sum(1 for g in self._groups if not g.monotone()),
        }


def reconstruct(
    log: ControllerLog,
    metrics: Optional[MetricsRegistry] = None,
    occurrence_gap: float = DEFAULT_OCCURRENCE_GAP,
) -> List[FlowTimeline]:
    """Every flow's causal timeline, built now, sorted by start time."""
    return list(FlightRecorder.from_log(log, metrics, occurrence_gap).timelines)


def _timeline_touches(timeline: FlowTimeline, component: str) -> bool:
    hops = timeline.hops
    if component in hops:
        return True
    if timeline.flow is not None and component in timeline.flow.endpoints():
        return True
    if "--" in component:
        a, b = component.split("--", 1)
        for x, y in zip(hops, hops[1:]):
            if {x, y} == {a, b}:
                return True
        # Host--switch edges: the host side never appears as a hop.
        endpoints = timeline.flow.endpoints() if timeline.flow is not None else ()
        if (a in hops and b in endpoints) or (b in hops and a in endpoints):
            return True
    return False
