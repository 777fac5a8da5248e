"""Decoding controller logs into flow-level observations.

The raw controller log is message-granular: one ``PacketIn`` per switch a
new flow traverses, paired ``FlowMod`` replies, and eventual
``FlowRemoved`` notifications. Signature building needs *flow-level*
observations instead:

* a :class:`FlowArrival` — one occurrence of a flow entering the network,
  carrying its start time and per-switch hop reports in traversal order
  (the Figure 3 pattern), from which the connectivity, interaction, delay,
  and correlation signatures and the physical-topology / ISL inference all
  derive;
* a :class:`FlowRecord` — an arrival joined with its ``FlowRemoved``
  counters (bytes, packets, duration), feeding the flow-statistics
  signature.

A 5-tuple can recur (connection reuse after entry expiry, periodic jobs);
occurrences of the same key separated by more than ``occurrence_gap`` are
distinct arrivals. :func:`extract_flow_records` reads the sorted log
twice: one loop buckets the ``PacketIn`` and ``FlowMod`` messages, after
which one loop over the ``PacketIn`` messages pairs replies and groups
occurrences; then ``log.flow_removed()`` scans it again for the expiry
reports, which :func:`join_flow_records` indexes and joins to the
arrivals in one loop over them. (``FlowDiff.model`` makes one more scan,
for ``PortStatus``.)

:class:`HopReport`, :class:`FlowArrival`, :class:`FlowRecord` and the
:class:`~repro.openflow.match.FlowKey` they carry are named tuples — one
is built per capture line / ``PacketIn`` / flow / record in every modeling
pass, and a tuple is the cheapest immutable record Python has (no
``__dict__``, and the cyclic collector stops tracking one that holds only
atoms). So each compares equal to a plain tuple of the same fields, and
``dataclasses.replace`` / ``fields`` do not apply to them (``_replace`` and
``_fields`` do).
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.occurrence import splits_occurrence
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey
from repro.openflow.messages import FlowMod, FlowRemoved, PacketIn


class HopReport(NamedTuple):
    """One switch's report of a flow occurrence (a named tuple).

    Attributes:
        dpid: the reporting switch.
        in_port: ingress port from the ``PacketIn``.
        packet_in_at: controller timestamp of the ``PacketIn``.
        flow_mod_at: controller timestamp of the paired ``FlowMod`` (None
            when the controller dropped the request).
        out_port: egress port from the ``FlowMod`` (None when dropped).
    """

    dpid: str
    in_port: int
    packet_in_at: float
    flow_mod_at: Optional[float] = None
    out_port: Optional[int] = None


class FlowArrival(NamedTuple):
    """One occurrence of a flow, as seen through control traffic (a named tuple).

    Attributes:
        flow: the 5-tuple.
        time: arrival time (first ``PacketIn`` timestamp).
        hops: per-switch reports in traversal order.
    """

    flow: FlowKey
    time: float
    hops: Tuple[HopReport, ...]

    # Conveniences for readers; the signature builders' loops unpack the
    # tuple and slice ``flow[:2]`` instead of calling a getter per arrival.
    src = property(attrgetter("flow.src"), doc="Source endpoint.")
    dst = property(attrgetter("flow.dst"), doc="Destination endpoint.")

    @property
    def path_dpids(self) -> Tuple[str, ...]:
        """Switch dpids in traversal order."""
        return tuple([h.dpid for h in self.hops])


class FlowRecord(NamedTuple):
    """A flow occurrence joined with its final counters (a named tuple).

    Attributes:
        arrival: the occurrence.
        byte_count: bytes matched (max across reporting switches, since
            every on-path switch sees the full flow).
        packet_count: packets matched.
        duration: entry active time, approximating flow duration.
    """

    arrival: FlowArrival
    byte_count: int
    packet_count: int
    duration: float


#: Deterministic ordering for arrival lists: ``(time, flow key)``.
#: The flow-key tiebreak makes the order independent of the order flows
#: were closed in, so every extraction emits byte-identical arrival
#: sequences even when two flows start at the same timestamp.
arrival_sort_key: Callable[[FlowArrival], Tuple[float, FlowKey]] = itemgetter(1, 0)

_dpid = itemgetter(0)  # of a HopReport

#: Builds a named tuple from a tuple of its fields without the generated
#: ``__new__`` (a Python call per object); the result is the same object.
_new_tuple = tuple.__new__


def extract_flow_arrivals(
    log: ControllerLog, occurrence_gap: float = 1.0
) -> List[FlowArrival]:
    """Group per-switch ``PacketIn``/``FlowMod`` messages into flow arrivals.

    Messages with the same 5-tuple within ``occurrence_gap`` seconds of the
    previous report belong to one occurrence (the flow traversing its
    path); a larger gap starts a new occurrence. ``FlowMod`` replies are
    paired via their ``in_reply_to`` buffer id when present (the last
    reply logged for an id wins), falling back to (dpid, order) matching.

    A message without flow identity is skipped: a ``PacketIn`` whose
    ``flow`` is null joins no occurrence, and an unpaired ``FlowMod``
    whose ``match`` is null pairs with nothing.

    Returns:
        Arrivals sorted by time.
    """
    # One pass over the sorted log buckets what pairing needs.
    pins: List[PacketIn] = []
    mods_by_reply: Dict[int, FlowMod] = {}
    unpaired_mods: Dict[str, List[FlowMod]] = {}
    for msg in log:
        kind = type(msg)
        if kind is PacketIn:
            if msg.flow is not None:
                pins.append(msg)
        elif kind is FlowMod:
            if msg.in_reply_to is not None:
                mods_by_reply[msg.in_reply_to] = msg
            elif msg.match is not None:
                unpaired_mods.setdefault(msg.dpid, []).append(msg)

    arrivals: List[FlowArrival] = []
    # Per open flow, its hops so far; the last one's ``packet_in_at`` is
    # when the flow was last seen.
    open_runs: Dict[FlowKey, List[HopReport]] = {}
    for pin in pins:
        flow = pin.flow
        ts = pin.timestamp
        mod = mods_by_reply.get(pin.buffer_id)
        if mod is None:
            candidates = unpaired_mods.get(pin.dpid, [])
            for i, cand in enumerate(candidates):
                if cand.timestamp >= ts and cand.match.matches(flow):
                    mod = candidates.pop(i)
                    break
        if mod is None:
            hop = _new_tuple(HopReport, (pin.dpid, pin.in_port, ts, None, None))
        else:
            hop = _new_tuple(HopReport, (pin.dpid, pin.in_port, ts, mod.timestamp, mod.out_port))
        run = open_runs.get(flow)
        if run is None:
            open_runs[flow] = [hop]
        elif splits_occurrence(run[-1].packet_in_at, ts, occurrence_gap):
            arrivals.append(_new_tuple(FlowArrival, (flow, run[0].packet_in_at, tuple(run))))
            open_runs[flow] = [hop]
        else:
            run.append(hop)

    for flow, run in open_runs.items():
        arrivals.append(_new_tuple(FlowArrival, (flow, run[0].packet_in_at, tuple(run))))
    arrivals.sort(key=arrival_sort_key)
    return arrivals


def extract_flow_records(
    log: ControllerLog, occurrence_gap: float = 1.0
) -> List[FlowRecord]:
    """Join flow arrivals with their ``FlowRemoved`` counters.

    Each arrival takes the earliest unconsumed ``FlowRemoved`` whose match
    covers the flow and whose timestamp follows the arrival; the byte and
    packet counts are maximized across the on-path switches that reported.
    Arrivals with no expiry report in the log window keep zero counters
    (they are still useful for structural signatures).
    """
    arrivals = extract_flow_arrivals(log, occurrence_gap)
    return join_flow_records(arrivals, log.flow_removed())


def join_flow_records(
    arrivals: List[FlowArrival], removed: List[FlowRemoved]
) -> List[FlowRecord]:
    """Join already-extracted arrivals with time-ordered expiry reports.

    ``removed`` must be in log (time) order — consumption cursors rely
    on it. A report whose ``match`` is null has no flow identity and
    joins nothing.
    """
    # Index expiry reports for O(1) joining, keyed flow-first so the hot
    # loop hashes each arrival's flow once rather than once per hop. Keys
    # are plain 5-tuples, which hash and compare equal to the arrival's
    # ``FlowKey``. Microflow matches are keyed by their exact 5-tuple per
    # dpid, each bucket a ``[cursor, report, ...]`` list whose cursor (the
    # next unconsumed report's index) moves as reports are taken; wildcard
    # matches (rare in reactive deployments) fall back to a small linear
    # list.
    exact: Dict[tuple, Dict[str, list]] = {}
    wildcards: List[List] = []  # [FlowRemoved, consumed_flag]
    for fr in removed:
        m = fr.match
        if m is None:
            continue
        key = (m.src, m.dst, m.src_port, m.dst_port, m.proto)
        by_dpid = exact.get(key)
        if by_dpid is None:
            # Only a key not indexed yet can be a wildcard.
            if None in key:
                wildcards.append([fr, False])
            else:
                exact[key] = {fr.dpid: [1, fr]}
            continue
        bucket = by_dpid.get(fr.dpid)
        if bucket is None:
            by_dpid[fr.dpid] = [1, fr]
        else:
            bucket.append(fr)

    records: List[FlowRecord] = []
    for arrival in arrivals:
        flow, t, hops = arrival
        by_dpid = exact.get(flow)
        if not by_dpid and not wildcards:
            records.append(_new_tuple(FlowRecord, (arrival, 0, 0, 0.0)))
            continue
        best_bytes = 0
        best_packets = 0
        best_duration = 0.0
        on_path = set(map(_dpid, hops))
        taken_dpids: set = set()
        if by_dpid:
            for dpid in on_path:
                bucket = by_dpid.get(dpid)
                if bucket is None:
                    continue
                i = bucket[0]
                n = len(bucket)
                while i < n and bucket[i].timestamp < t:
                    i += 1
                if i < n:
                    fr = bucket[i]
                    bucket[0] = i + 1
                    taken_dpids.add(dpid)
                    # Like ``max``: only a strictly greater value (never a
                    # NaN, never an equal one of another type) replaces.
                    if fr.byte_count > best_bytes:
                        best_bytes = fr.byte_count
                    if fr.packet_count > best_packets:
                        best_packets = fr.packet_count
                    if fr.duration > best_duration:
                        best_duration = fr.duration
        for item in wildcards:
            fr, consumed = item
            if consumed or fr.timestamp < t:
                continue
            if fr.dpid not in on_path or fr.dpid in taken_dpids:
                continue
            if not fr.match.matches(flow):
                continue
            # At most one expiry report per switch belongs to one arrival;
            # later reports for the same 5-tuple describe re-occurrences.
            item[1] = True
            taken_dpids.add(fr.dpid)
            if fr.byte_count > best_bytes:
                best_bytes = fr.byte_count
            if fr.packet_count > best_packets:
                best_packets = fr.packet_count
            if fr.duration > best_duration:
                best_duration = fr.duration
        records.append(_new_tuple(FlowRecord, (arrival, best_bytes, best_packets, best_duration)))
    return records


def timed_flows(log: ControllerLog, dedup_window: float = 0.0) -> List[Tuple[float, FlowKey]]:
    """Flatten a log into (time, flow) pairs, one per flow arrival.

    The representation task mining consumes. ``dedup_window`` > 0 collapses
    repeat reports of the same 5-tuple within the window (the per-switch
    PacketIn fan-out), keeping the first. A ``PacketIn`` whose ``flow`` is
    null has no flow identity and is skipped, as in
    :func:`extract_flow_arrivals`.
    """
    out: List[Tuple[float, FlowKey]] = []
    last: Dict[FlowKey, float] = {}
    for pin in log.packet_ins():
        if pin.flow is None:
            continue
        prev = last.get(pin.flow)
        if prev is not None and dedup_window > 0 and pin.timestamp - prev <= dedup_window:
            continue
        last[pin.flow] = pin.timestamp
        out.append((pin.timestamp, pin.flow))
    return out
