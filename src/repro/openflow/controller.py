"""A reactive centralized controller in the style of NOX's routing module.

The controller receives ``PacketIn`` table-miss reports, consults a routing
function supplied by the network (shortest path over the current topology),
and replies with a ``FlowMod`` installing the forwarding entry plus a
``PacketOut`` releasing the buffered packet — the reactive deployment the
paper assumes (Section III-A, Figure 3).

Response-time model
-------------------

The controller response time (CRT) is itself a FlowDiff infrastructure
signature, so the model must be controllable: a base service time, a
jitter term, and an M/M/1-style load factor that grows with the recent
PacketIn arrival rate. The controller-overload fault simply scales the
service time, which shifts CRT without touching any application signature —
exactly the separation Figure 2(b) relies on.

Matches
-------

In microflow mode every hop of a flow gets an exact-match entry for the
same 5-tuple, so the controller builds that flow's :class:`Match` once and
keeps it in a dict keyed by the flow's :class:`FlowKey`: every ``FlowMod``
for the flow, on any switch and at any later time, carries that one object
(and so does each entry's ``FlowRemoved``). A ``Match`` is immutable, so
sharing it changes no message; the dict grows with the distinct flows,
each of which the log already holds a ``FlowMod`` for. Wildcard mode
builds a destination match per miss.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Optional

import random

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn, PacketOut
from repro.openflow.switch import TableMiss

#: A routing function: (dpid, flow) -> output port, or None to drop.
RouteFn = Callable[[str, FlowKey], Optional[int]]


@dataclass
class ControllerConfig:
    """Tunable parameters of the reactive controller.

    Attributes:
        base_response: intrinsic PacketIn service time in seconds.
        response_jitter: uniform jitter added to each response, in seconds.
        capacity: PacketIn messages per second the controller can sustain;
            the load factor of the response time grows as the recent arrival
            rate approaches this capacity (Section V-C cites ~100K req/s for
            production controllers; the lab default is far smaller so load
            effects are observable in small simulations).
        idle_timeout: soft timeout given to installed entries.
        hard_timeout: hard timeout given to installed entries (0 = none).
        use_microflow_rules: install exact-match entries when True; install
            destination-wildcard entries when False (Section VI trade-off).
        load_window: seconds of PacketIn history used to estimate load.
    """

    base_response: float = 0.001
    response_jitter: float = 0.0005
    capacity: float = 10000.0
    idle_timeout: float = 5.0
    hard_timeout: float = 0.0
    use_microflow_rules: bool = True
    load_window: float = 1.0


@dataclass(slots=True)
class ControllerReply:
    """The controller's reaction to one table miss.

    Attributes:
        flow_mod: the installation instruction (None when the route is
            unknown and the packet is dropped).
        packet_out: the buffered-packet release (paired with the flow mod).
        ready_at: the time the reply reaches the switch (PacketIn arrival
            plus response time); the network resumes packet forwarding then.
    """

    flow_mod: Optional[FlowMod]
    packet_out: Optional[PacketOut]
    ready_at: float


class Controller:
    """A logically centralized reactive OpenFlow controller.

    Every message the controller sends or receives is recorded in
    :attr:`log` with its controller-side timestamp; that log is what
    FlowDiff consumes.
    """

    def __init__(
        self,
        route_fn: RouteFn,
        config: Optional[ControllerConfig] = None,
        rng: Optional[random.Random] = None,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        name: str = "c0",
    ) -> None:
        self.route_fn = route_fn
        self.name = name
        self.config = config or ControllerConfig()
        self.rng = rng or random.Random(0)
        self.log = ControllerLog()
        self.live = True
        #: Multiplier applied to the service time; the overload fault
        #: raises it, and recovery restores it to 1.0.
        self.overload_factor = 1.0
        self._recent_arrivals: Deque[float] = deque()
        self._busy_until = 0.0
        #: The microflow match of each flow seen, shared by the FlowMods
        #: of every hop on its path and of every later instance.
        self._matches: Dict[FlowKey, Match] = {}
        # Message-mix counters plus the two live-health signals the paper's
        # CRT signature models: service latency and load inflation.
        self.metrics = metrics
        self._m_packet_in = metrics.counter("controller_messages_total", kind="packet_in")
        self._m_flow_mod = metrics.counter("controller_messages_total", kind="flow_mod")
        self._m_packet_out = metrics.counter("controller_messages_total", kind="packet_out")
        self._m_dropped = metrics.counter("controller_unroutable_total")
        self._m_dead = metrics.counter("controller_dead_misses_total")
        self._m_response = metrics.histogram("controller_response_seconds")
        self._m_load = metrics.gauge("controller_load_factor")

    # ------------------------------------------------------------------
    # Response-time model
    # ------------------------------------------------------------------

    def _load_factor(self, now: float) -> float:
        """Estimate the M/M/1-style service-time inflation at ``now``."""
        window_start = now - self.config.load_window
        while self._recent_arrivals and self._recent_arrivals[0] < window_start:
            self._recent_arrivals.popleft()
        rate = len(self._recent_arrivals) / self.config.load_window
        utilization = min(0.95, rate / self.config.capacity)
        factor = 1.0 / (1.0 - utilization)
        self._m_load.set(factor)
        return factor

    def response_time(self, now: float) -> float:
        """Sample the time to service one PacketIn arriving at ``now``."""
        base = self.config.base_response * self.overload_factor
        jitter = self.rng.uniform(0.0, self.config.response_jitter)
        return (base + jitter) * self._load_factor(now)

    # ------------------------------------------------------------------
    # PacketIn handling
    # ------------------------------------------------------------------

    def handle_miss(self, miss: TableMiss, arrived_at: float) -> ControllerReply:
        """Service a table miss that reached the controller at ``arrived_at``.

        Logs the ``PacketIn`` immediately and, after the modeled response
        time (plus any queueing behind an in-flight request), logs and
        returns the ``FlowMod`` + ``PacketOut`` pair. A dead controller
        neither logs the ``PacketIn`` (the log is captured at the controller)
        nor replies, which surfaces as a vanishing control-message stream —
        the controller-failure problem class of Figure 2(b).
        """
        # Messages are built positionally, so the arguments follow the
        # dataclass field order: timestamp, dpid, corr_id, then the
        # subclass's own fields.
        packet_in = PacketIn(
            arrived_at, miss.dpid, miss.corr_id, miss.flow, miss.in_port, self.log_seq()
        )
        if not self.live:
            self._m_dead.inc()
            return ControllerReply(flow_mod=None, packet_out=None, ready_at=float("inf"))
        self.log.append(packet_in)
        self._m_packet_in.inc()
        self._recent_arrivals.append(arrived_at)

        start = max(arrived_at, self._busy_until)
        done = start + self.response_time(arrived_at)
        self._busy_until = done
        self._m_response.observe(done - arrived_at)

        out_port = self.route_fn(miss.dpid, miss.flow)
        if out_port is None:
            # Unknown destination: drop (no rule installed). Still counts
            # as controller work, hence the busy-time update above.
            self._m_dropped.inc()
            return ControllerReply(flow_mod=None, packet_out=None, ready_at=done)

        if self.config.use_microflow_rules:
            match = self._matches.get(miss.flow) or self._microflow(miss.flow)
        else:
            match = Match.destination(miss.flow.dst)
        flow_mod = FlowMod(
            done,
            miss.dpid,
            miss.corr_id,
            match,
            out_port,
            self.config.idle_timeout,
            self.config.hard_timeout,
            0,  # priority
            FlowModCommand.ADD,
            packet_in.buffer_id,  # in_reply_to
        )
        packet_out = PacketOut(
            done, miss.dpid, miss.corr_id, miss.flow, out_port, packet_in.buffer_id
        )
        self.log.append(flow_mod)
        self.log.append(packet_out)
        self._m_flow_mod.inc()
        self._m_packet_out.inc()
        return ControllerReply(flow_mod=flow_mod, packet_out=packet_out, ready_at=done)

    def _microflow(self, flow: FlowKey) -> Match:
        match = self._matches[flow] = Match.exact(flow)
        return match

    def log_seq(self) -> int:
        """A monotonically increasing id used to pair requests and replies."""
        return len(self.log)

    def fail(self) -> None:
        """Crash the controller: misses go unanswered until recovery."""
        self.live = False

    def recover(self) -> None:
        """Restore the controller."""
        self.live = True
