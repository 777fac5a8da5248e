"""Control messages exchanged between switches and the controller.

FlowDiff captures ``PacketIn``, ``FlowMod``, and ``FlowRemoved`` messages at
the controller and uses them to build data-center-wide signatures
(Section III-A). ``PacketOut`` appears in the inter-switch latency model of
Figure 3. All messages carry the *controller-side* timestamp, which is the
only clock the paper assumes (it never requires synchronized switch clocks).

Messages are immutable records; the :class:`~repro.openflow.log.ControllerLog`
orders them by timestamp with arrival order as tie-breaker.

Each class is a frozen slotted dataclass whose ``__init__`` is compiled by
:func:`~repro.openflow.frozen.slot_init`: it stores every argument
through its slot's member descriptor instead of one
``object.__setattr__`` per field, which halves the cost of the three
messages the simulator builds per table miss and of the one the decoder
builds per capture line. Fields, defaults, ``==``, ``hash``, ``repr`` and
``FrozenInstanceError`` are the dataclass's own. Callers build messages
positionally, in field order: ``timestamp``, ``dpid``, ``corr_id``, then
the subclass's fields.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.openflow.frozen import slot_init
from repro.openflow.match import FlowKey, Match


class FlowModCommand(enum.Enum):
    """The subset of OpenFlow flow-mod commands the substrate uses."""

    ADD = "add"
    DELETE = "delete"


class FlowRemovedReason(enum.Enum):
    """Why a flow entry was evicted from a switch table."""

    IDLE_TIMEOUT = "idle_timeout"
    HARD_TIMEOUT = "hard_timeout"
    DELETE = "delete"


@slot_init
@dataclass(frozen=True, slots=True)
class ControlMessage:
    """Base class for all control messages.

    Attributes:
        timestamp: controller-side wall-clock time in seconds.
        dpid: datapath identifier of the switch the message concerns.
        corr_id: flight-recorder correlation id. Every flow instance
            injected into the simulated network is assigned one id at its
            source; the id rides along the PacketIn raised at each hop,
            the FlowMod/PacketOut replies, and the eventual FlowRemoved,
            so the full causal chain of one flow can be reconstructed from
            the log alone (:mod:`repro.obs.flightrec`). ``None`` for
            messages outside any flow's causal chain (e.g. PortStatus) and
            for captures taken from controllers that do not stamp ids.
    """

    timestamp: float
    dpid: str
    corr_id: Optional[int] = None


@slot_init
@dataclass(frozen=True, slots=True)
class PacketIn(ControlMessage):
    """A table-miss notification from a switch to the controller.

    Sent when a packet arrives at a switch with no matching flow-table
    entry. Carries the flow metadata FlowDiff mines: the 5-tuple and the
    ingress port (used for physical-topology inference, Section III-C).
    """

    flow: FlowKey = field(default=None)  # type: ignore[assignment]
    in_port: int = 0
    buffer_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class PacketOut(ControlMessage):
    """A controller instruction to release a buffered packet out a port."""

    flow: FlowKey = field(default=None)  # type: ignore[assignment]
    out_port: int = 0
    buffer_id: int = 0


@slot_init
@dataclass(frozen=True, slots=True)
class FlowMod(ControlMessage):
    """A controller instruction installing (or deleting) a flow entry.

    The output port recorded here combines with the ``PacketIn`` ingress
    port to reconstruct the order in which a flow traversed switches and
    hence the physical topology (Section III-C).
    """

    match: Match = field(default=None)  # type: ignore[assignment]
    out_port: int = 0
    idle_timeout: float = 5.0
    hard_timeout: float = 0.0
    priority: int = 0
    command: FlowModCommand = FlowModCommand.ADD
    #: The PacketIn this FlowMod responds to, if any; lets consumers pair the
    #: two for controller-response-time estimation without heuristics.
    in_reply_to: Optional[int] = None


@slot_init
@dataclass(frozen=True, slots=True)
class FlowRemoved(ControlMessage):
    """An expiry notification carrying the entry's final counters.

    The paper uses the byte count and duration reported here as the
    flow-statistics signature input and as the per-link utilization proxy
    (Sections III-A and III-B).
    """

    match: Match = field(default=None)  # type: ignore[assignment]
    duration: float = 0.0
    byte_count: int = 0
    packet_count: int = 0
    reason: FlowRemovedReason = FlowRemovedReason.IDLE_TIMEOUT


@slot_init
@dataclass(frozen=True, slots=True)
class PortStatus(ControlMessage):
    """A link up/down notification for a switch port."""

    port: int = 0
    live: bool = True


@slot_init
@dataclass(frozen=True, slots=True)
class FlowStatsReply(ControlMessage):
    """A polled per-entry counter snapshot (OFPST_FLOW style).

    The controller "can also poll flow counters on switches to learn
    utilization" (Section I); the network simulator supports periodic
    polling which yields these records.
    """

    match: Match = field(default=None)  # type: ignore[assignment]
    byte_count: int = 0
    packet_count: int = 0
    duration: float = 0.0


@slot_init
@dataclass(frozen=True, slots=True)
class EchoRequest(ControlMessage):
    """A liveness probe; its absence of reply signals switch failure."""

    replied: bool = True
