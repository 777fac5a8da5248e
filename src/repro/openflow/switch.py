"""The programmable switch: lookup, miss detection, counters, expiry.

A switch is deliberately thin: all policy lives in the controller. The
switch model exposes exactly the behaviours FlowDiff's measurements depend
on — table misses produce ``PacketIn`` metadata, matched packets update
entry counters (feeding ``FlowRemoved`` totals), and expiry surfaces entries
with their reasons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowRemovedReason


@dataclass(frozen=True, slots=True)
class TableMiss:
    """The metadata a switch reports to the controller on a table miss.

    ``corr_id`` is the flight-recorder correlation id of the flow instance
    whose packet missed; the controller copies it onto the PacketIn and
    its FlowMod/PacketOut replies so the causal chain stays linked.
    """

    dpid: str
    flow: FlowKey
    in_port: int
    corr_id: Optional[int] = None


class OpenFlowSwitch:
    """A programmable switch identified by a datapath id (dpid).

    Ports are integers; the mapping from port number to attached neighbour
    (another switch or a host) is owned by the network simulator's topology
    — the switch itself only knows port numbers, as real OpenFlow switches
    do.

    Attributes:
        dpid: datapath identifier, unique within a network.
        table: the switch's single flow table.
        live: False once the switch has failed (it then drops everything
            and emits nothing, which is how switch failure becomes visible
            to FlowDiff as missing control traffic and topology changes).
    """

    def __init__(
        self,
        dpid: str,
        metrics: MetricsRegistry = NOOP_REGISTRY,
    ) -> None:
        self.dpid = dpid
        self.metrics = metrics
        self.table = FlowTable(metrics=metrics, dpid=dpid)
        self.live = True
        #: Per-port cumulative byte counters.
        self.port_bytes: Dict[int, int] = {}
        #: Count of PacketIn events raised, for control-load accounting.
        self.miss_count = 0

    def process_packet(
        self,
        key: FlowKey,
        in_port: int,
        now: float,
        nbytes: int,
        npackets: int = 1,
        corr_id: Optional[int] = None,
    ) -> Tuple[Optional[int], Optional[TableMiss]]:
        """Process an arriving packet (or packet burst) at ``now``.

        Returns ``(out_port, miss)``: on a table hit, the entry's output
        port and ``None``; on a miss, ``(None, TableMiss)`` which the
        network forwards to the controller as a ``PacketIn``. A dead switch
        returns ``(None, None)`` — the packet is silently dropped.
        """
        if not self.live:
            return None, None
        entry = self.table.lookup(key, now)
        if entry is None:
            self.miss_count += 1
            return None, TableMiss(
                dpid=self.dpid, flow=key, in_port=in_port, corr_id=corr_id
            )
        entry.record_match(now, nbytes, npackets)
        self.port_bytes[entry.out_port] = (
            self.port_bytes.get(entry.out_port, 0) + nbytes
        )
        return entry.out_port, None

    def install(
        self,
        match: Match,
        out_port: int,
        now: float,
        idle_timeout: float = 5.0,
        hard_timeout: float = 0.0,
        priority: int = 0,
        send_flow_removed: bool = True,
        corr_id: Optional[int] = None,
    ) -> FlowEntry:
        """Install a flow entry, returning it for counter inspection."""
        entry = FlowEntry(
            match=match,
            out_port=out_port,
            priority=priority,
            idle_timeout=idle_timeout,
            hard_timeout=hard_timeout,
            created_at=now,
            send_flow_removed=send_flow_removed,
            corr_id=corr_id,
        )
        self.table.install(entry)
        return entry

    def expire(self, now: float) -> List[Tuple[FlowEntry, FlowRemovedReason]]:
        """Evict expired entries, returning those that must emit FlowRemoved."""
        if not self.live:
            return []
        return [
            (entry, reason)
            for entry, reason in self.table.collect_expired(now)
            if entry.send_flow_removed
        ]

    def fail(self) -> None:
        """Take the switch down; its table contents are lost."""
        self.live = False
        self.table = FlowTable(metrics=self.metrics, dpid=self.dpid)

    def recover(self) -> None:
        """Bring the switch back with an empty table."""
        self.live = True
