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
distinct arrivals. Extraction reads the sorted log once: one loop buckets
the ``PacketIn`` and ``FlowMod`` messages, and one loop over the
``PacketIn`` messages pairs replies and groups occurrences.

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

from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

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

    # C-level getters: six signature builders read these once per arrival.
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


def arrival_sort_key(arrival: FlowArrival) -> Tuple[float, FlowKey]:
    """Deterministic ordering for arrival lists: (time, flow key).

    The flow-key tiebreak makes the order independent of the order
    flows were closed in, so every extraction emits byte-identical
    arrival sequences even when two flows start at the same timestamp.
    """
    return (arrival.time, arrival.flow)


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
            hop = HopReport(pin.dpid, pin.in_port, ts)
        else:
            hop = HopReport(pin.dpid, pin.in_port, ts, mod.timestamp, mod.out_port)
        run = open_runs.get(flow)
        if run is None:
            open_runs[flow] = [hop]
        elif splits_occurrence(run[-1].packet_in_at, ts, occurrence_gap):
            arrivals.append(FlowArrival(flow, run[0].packet_in_at, tuple(run)))
            open_runs[flow] = [hop]
        else:
            run.append(hop)

    for flow, run in open_runs.items():
        arrivals.append(FlowArrival(flow, run[0].packet_in_at, tuple(run)))
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

    The single joining implementation, shared by
    :func:`extract_flow_records` and the interval views stability
    assessment slices out of one extraction
    (:func:`interval_flow_records_from_arrivals`).
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
        if None in key:
            wildcards.append([fr, False])
        else:
            exact.setdefault(key, {}).setdefault(fr.dpid, [1]).append(fr)

    records: List[FlowRecord] = []
    for arrival in arrivals:
        best_bytes = 0
        best_packets = 0
        best_duration = 0.0
        t = arrival.time
        on_path = {h.dpid for h in arrival.hops}
        taken_dpids: set = set()
        by_dpid = exact.get(arrival.flow)
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
            if not fr.match.matches(arrival.flow):
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
        records.append(FlowRecord(arrival, best_bytes, best_packets, best_duration))
    return records


def partition_log(
    log: ControllerLog,
    bounds: Sequence[Tuple[float, float]],
) -> Tuple[Optional[List[List[FlowRemoved]]], Optional[str]]:
    """Bucket a log's ``FlowRemoved`` messages by time interval, or decline.

    Returns ``(removed_by_interval, None)`` on success and
    ``(None, reason)`` when interval views cannot be sliced out of the
    log's full-window arrivals without changing pairing semantics:
    ``FlowMod`` replies lacking ``in_reply_to`` (the ordered fallback
    consumption is stateful across the whole window) or duplicate reply
    ids (the winning reply would depend on the slice). Messages before
    the first upper bound land in interval 0 and messages at or after
    the last lower bound land in the final interval, so ``bounds`` must
    cover the log's full time span.
    """
    n = len(bounds)
    reply_ids: set = set()
    removed_by_interval: List[List[FlowRemoved]] = [[] for _ in range(n)]
    uppers = [b for _, b in bounds]
    idx = 0
    for msg in log:
        kind = type(msg)
        if kind is FlowRemoved:
            ts = msg.timestamp
            while idx < n - 1 and ts >= uppers[idx]:
                idx += 1
            removed_by_interval[idx].append(msg)
        elif kind is FlowMod:
            reply_id = msg.in_reply_to
            if reply_id is None:
                return None, "flowmod_without_reply_id"
            if reply_id in reply_ids:
                return None, "duplicate_flowmod_reply_id"
            reply_ids.add(reply_id)
    return removed_by_interval, None


def interval_flow_records_from_arrivals(
    arrivals: Sequence[FlowArrival],
    removed: Sequence[FlowRemoved],
    a: float,
    b: float,
) -> List[FlowRecord]:
    """The ``[a, b)`` interval view sliced out of full-window arrivals.

    Mirrors what a ``log.window(a, b)`` rebuild would extract: only
    reports with ``a <= ts < b`` exist, so runs are truncated at the
    interval bounds and ``FlowMod`` pairings outside ``[a, b)`` are
    dropped (the hop keeps its ``PacketIn`` but loses the reply, exactly
    as if the controller had never answered inside the slice);
    ``removed`` is filtered to the slice the same way. A full-window
    run's hops are time-ordered, so the hops falling inside ``[a, b)``
    are a contiguous slice, and the occurrence-gap splits between them
    are the same ones per-interval grouping would make. Valid only when
    every ``FlowMod`` pairing came via a unique ``in_reply_to`` (the
    :func:`partition_log` precondition) — positional fallback pairing is
    window-dependent and would diverge.

    Arrivals wholly inside the interval are reused as-is, so the common
    case allocates nothing per arrival.
    """
    out: List[FlowArrival] = []
    for arrival in arrivals:
        hops = arrival.hops
        if a <= hops[0].packet_in_at and hops[-1].packet_in_at < b:
            if all(
                h.flow_mod_at is None or a <= h.flow_mod_at < b for h in hops
            ):
                out.append(arrival)
                continue
            ihops = list(hops)
        else:
            ihops = [h for h in hops if a <= h.packet_in_at < b]
            if not ihops:
                continue
        out.append(
            FlowArrival(
                flow=arrival.flow,
                time=ihops[0].packet_in_at,
                hops=tuple(
                    h
                    if h.flow_mod_at is None or a <= h.flow_mod_at < b
                    else HopReport(
                        dpid=h.dpid,
                        in_port=h.in_port,
                        packet_in_at=h.packet_in_at,
                    )
                    for h in ihops
                ),
            )
        )
    out.sort(key=arrival_sort_key)
    return join_flow_records(out, [r for r in removed if r.timestamp < b])


def timed_flows(log: ControllerLog, dedup_window: float = 0.0) -> List[Tuple[float, FlowKey]]:
    """Flatten a log into (time, flow) pairs, one per flow arrival.

    The representation task mining consumes. ``dedup_window`` > 0 collapses
    repeat reports of the same 5-tuple within the window (the per-switch
    PacketIn fan-out), keeping the first.
    """
    out: List[Tuple[float, FlowKey]] = []
    last: Dict[FlowKey, float] = {}
    for pin in log.packet_ins():
        prev = last.get(pin.flow)
        if prev is not None and dedup_window > 0 and pin.timestamp - prev <= dedup_window:
            continue
        last[pin.flow] = pin.timestamp
        out.append((pin.timestamp, pin.flow))
    return out
