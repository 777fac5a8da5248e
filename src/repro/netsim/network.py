"""The simulated flow-based network: switches, controller, and forwarding.

This module binds a :class:`~repro.netsim.topology.Topology` to OpenFlow
switches and a reactive controller and exposes one host-facing operation:
:meth:`Network.send_flow`. Sending a flow reproduces the control-plane
choreography of the paper's Figure 3:

1. the first packet reaches the ingress switch; a table miss raises a
   ``PacketIn`` that reaches the controller after the control-channel
   latency;
2. the controller services it (response-time model), logs a ``FlowMod`` +
   ``PacketOut``, and the entry is installed after another control-channel
   traversal;
3. the packet resumes toward the next hop, where the same dance repeats —
   so "for a new flow, such reporting is performed by all the switches
   along the path";
4. the flow body streams for its duration, refreshing entry counters and
   idle timeouts at checkpoints;
5. after the soft timeout a sweeper evicts the entry and the switch emits a
   ``FlowRemoved`` carrying total bytes and duration.

Legacy switches forward transparently (latency only, no control traffic),
matching the paper's hybrid-deployment observation that problem
localization granularity degrades across non-OpenFlow segments.

Routes are computed per host pair (``_route_cache``) and chosen per flow
(``_flow_paths``): a flow's first sight resolves its hosts, looks up or
computes the pair's shortest paths and, under ECMP, picks one by a
``crc32`` of its 5-tuple; every later miss of that flow, at any switch
on the path, reads the choice back. Every fault hook that changes
topology or liveness calls :meth:`Network.invalidate_routes`, which
clears both.

Fault hooks (:meth:`fail_switch`, :meth:`fail_link`, :meth:`shutdown_host`,
:meth:`block_port`, :meth:`migrate_host`, plus controller overload via
:attr:`controller`) are the primitives the :mod:`repro.faults` injectors
drive.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field
from functools import reduce
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.topology import Topology
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.netsim.transport import TransportModel
from repro.openflow.controller import Controller, ControllerConfig
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, FlowRemoved, PortStatus
from repro.openflow.switch import OpenFlowSwitch

#: A route: node names from source host to destination host.
Path = Tuple[str, ...]

#: What :attr:`Network._flow_paths` gives for a flow not seen since the
#: routes were last invalidated (``None`` is a flow with no path).
_UNCHOSEN: Any = object()


@dataclass(frozen=True, slots=True)
class FlowRequest:
    """One application-level flow to be carried by the network.

    Attributes:
        key: the 5-tuple identity.
        size_bytes: payload size; drives counters and utilization.
        duration: how long the flow body streams, in seconds.
    """

    key: FlowKey
    size_bytes: int = 1000
    duration: float = 0.01


@dataclass(frozen=True, slots=True)
class FlowResult:
    """The outcome of a delivered (or failed) flow.

    Attributes:
        request: the originating request.
        delivered: whether the head of the flow reached the destination.
        started_at: send time.
        head_arrived_at: when the first packet reached the destination
            (includes controller stalls on the path).
        completed_at: when the full body finished, including
            retransmission delay.
        path: node names traversed, hosts included.
        observed_bytes: byte count as seen by switch counters
            (retransmissions included).
    """

    request: FlowRequest
    delivered: bool
    started_at: float
    head_arrived_at: float
    completed_at: float
    path: Tuple[str, ...]
    observed_bytes: int


@dataclass
class NetworkConfig:
    """Network-wide tunables.

    Attributes:
        control_latency: one-way switch-to-controller channel delay.
        controller: reactive controller parameters.
        n_controllers: number of controller instances; switches are
            partitioned across them round-robin (the Section VI
            distributed-controller deployment). Each instance keeps its
            own capture; :attr:`Network.log` merges them, reproducing the
            FlowVisor-style synchronization the paper describes.
        ecmp: hash flows across all equal-cost shortest paths instead of
            always using the first — exercises the redundant aggregation
            and core layers of multi-rooted trees.
        expiry_sweep: period of the FlowRemoved sweeper, bounding how stale
            an expiry notification can be.
        body_checkpoint: fraction of the idle timeout at which long flows
            refresh their entries (keeps entries alive for the body).
        seed: RNG seed for transport sampling and controller jitter.
    """

    control_latency: float = 0.0005
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    n_controllers: int = 1
    ecmp: bool = False
    expiry_sweep: float = 0.25
    body_checkpoint: float = 0.5
    seed: int = 1


#: The sender's completion callback for :meth:`Network.send_flow`.
OnComplete = Callable[[FlowResult], None]


class Network:
    """A flow-based data center network bound to a simulator clock."""

    def __init__(
        self,
        topology: Topology,
        sim: Optional[Simulator] = None,
        config: Optional[NetworkConfig] = None,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        telemetry: object = None,  # Unread; bench/ (frozen) passes it.
    ) -> None:
        self.topology = topology
        self.metrics = metrics
        self.sim = sim or Simulator(metrics=metrics)
        self.config = config or NetworkConfig()
        self.rng = random.Random(self.config.seed)
        self.transport = TransportModel()
        self.switches: Dict[str, OpenFlowSwitch] = {
            name: OpenFlowSwitch(name, metrics=metrics)
            for name in topology.switches()
        }
        n_controllers = max(1, self.config.n_controllers)
        self.controllers = [
            Controller(
                route_fn=self._route,
                config=self.config.controller,
                rng=random.Random(self.config.seed + 1 + i),
                metrics=metrics,
                name=f"c{i}",
            )
            for i in range(n_controllers)
        ]
        self._m_flow_removed = metrics.counter(
            "controller_messages_total", kind="flow_removed"
        )
        self._controller_of: Dict[str, Controller] = {
            dpid: self.controllers[i % n_controllers]
            for i, dpid in enumerate(sorted(self.switches))
        }
        self._dead_hosts: Set[str] = set()
        self._blocked: Set[Tuple[str, int]] = set()
        self._host_of_ip: Dict[str, str] = {
            topology.ip_of(h): h for h in topology.hosts()
        }
        self._route_cache: Dict[Tuple[str, str], Optional[List[Path]]] = {}
        #: Each flow's pick from its host pair's routes: a flow misses at
        #: every switch on its path, and each miss asks for its next hop.
        self._flow_paths: Dict[FlowKey, Optional[Path]] = {}
        self._sweeper_running = False
        self.flows_sent = 0
        self.flows_delivered = 0
        #: Flight-recorder correlation ids: one per injected flow instance,
        #: stamped onto every control message in that flow's causal chain.
        self._next_corr_id = 1

    # ------------------------------------------------------------------
    # Convenience accessors
    # ------------------------------------------------------------------

    @property
    def controller(self) -> Controller:
        """The primary controller (the only one in the default deployment)."""
        return self.controllers[0]

    def controller_for(self, dpid: str) -> Controller:
        """The controller instance managing switch ``dpid``."""
        return self._controller_of.get(dpid, self.controllers[0])

    @property
    def log(self) -> ControllerLog:
        """The (merged) controller capture — FlowDiff's input.

        With a single controller this is its live log; with a distributed
        control plane the per-instance captures are merged on access,
        which is the offline synchronization Section VI calls for.
        """
        return reduce(
            ControllerLog.merged_with, (controller.log for controller in self.controllers)
        )

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self.sim.now

    def host_for_ip(self, ip: str) -> Optional[str]:
        """Resolve a flow endpoint identifier to a topology host node."""
        return self._host_of_ip.get(ip, ip if ip in self.topology else None)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def _dead_nodes(self) -> Set[str]:
        dead = set(self._dead_hosts)
        dead.update(name for name, sw in self.switches.items() if not sw.live)
        return dead

    def _path_of(self, flow: FlowKey) -> Optional[Path]:
        """The flow's path (``None`` when it has none), chosen on its first
        sight and kept in :attr:`_flow_paths` until :meth:`invalidate_routes`."""
        path = self._flow_paths.get(flow, _UNCHOSEN)
        if path is _UNCHOSEN:
            path = self._flow_paths[flow] = self._choose_path(flow)
        return path

    def _choose_path(self, flow: FlowKey) -> Optional[Path]:
        src_host = self.host_for_ip(flow.src)
        dst_host = self.host_for_ip(flow.dst)
        if src_host is None or dst_host is None:
            return None
        key = (src_host, dst_host)
        if key not in self._route_cache:
            # Cached paths are tuples: every flow on the pair shares one,
            # and nothing downstream mutates it.
            if self.config.ecmp:
                self._route_cache[key] = [
                    tuple(p)
                    for p in self.topology.all_shortest_paths(
                        src_host, dst_host, dead_nodes=self._dead_nodes()
                    )
                ] or None
            else:
                path = self.topology.path(
                    src_host, dst_host, dead_nodes=self._dead_nodes()
                )
                self._route_cache[key] = [tuple(path)] if path else None
        paths = self._route_cache[key]
        if not paths:
            return None
        if len(paths) == 1:
            return paths[0]
        # ECMP: a stable per-flow hash keeps every switch on the chosen
        # path agreeing on the route (zlib.crc32 rather than hash(), which
        # is salted per process and would break run-to-run determinism).
        digest = zlib.crc32(str(flow).encode())
        return paths[digest % len(paths)]

    def _route(self, dpid: str, flow: FlowKey) -> Optional[int]:
        """The controller's routing function: next-hop port for a miss."""
        path = self._path_of(flow)
        if path is None or dpid not in path:
            return None
        idx = path.index(dpid)
        if idx + 1 >= len(path):
            return None
        return self.topology.port_to(dpid, path[idx + 1])

    def invalidate_routes(self) -> None:
        """Drop cached paths after any topology or liveness change."""
        self._route_cache.clear()
        self._flow_paths.clear()

    # ------------------------------------------------------------------
    # Flow forwarding
    # ------------------------------------------------------------------

    def send_flow(
        self,
        request: FlowRequest,
        on_complete: Optional[Callable[[FlowResult], None]] = None,
    ) -> None:
        """Inject a flow at its source host at the current simulation time.

        The flow is forwarded asynchronously through scheduled events;
        ``on_complete`` fires when the body finishes (or immediately, with
        ``delivered=False``, when the flow cannot enter the network).
        """
        self.flows_sent += 1
        started = self.sim.now
        key = request.key
        corr_id = self._next_corr_id
        self._next_corr_id += 1
        src_host = self.host_for_ip(key.src)
        dst_host = self.host_for_ip(key.dst)

        path: Optional[Path] = None
        if not (
            src_host is None
            or dst_host is None
            or src_host in self._dead_hosts
            or dst_host in self._dead_hosts
            or (dst_host, key.dst_port) in self._blocked
            or (src_host, key.src_port) in self._blocked
        ):
            path = self._path_of(key)
        if path is None:
            self.sim.schedule_in(
                0.0, self._finish, on_complete, self._failed_result(request, started, ())
            )
            return

        self._forward_head(request, path, 1, started, on_complete, corr_id)

    def _finish(self, on_complete: Optional[OnComplete], result: FlowResult) -> None:
        """Account a finished flow and hand its result to the sender."""
        if result.delivered:
            self.flows_delivered += 1
        if on_complete is not None:
            on_complete(result)

    def _forward_head(
        self,
        request: FlowRequest,
        path: Path,
        hop_index: int,
        at: float,
        on_done: Optional[OnComplete],
        corr_id: Optional[int] = None,
    ) -> None:
        """Advance the flow's first packet from node ``hop_index - 1``.

        Each recursion step crosses one link and processes one node. The
        head packet carries a nominal MSS of bytes; the body is accounted
        separately once the head has arrived. ``on_done`` is the sender's
        ``on_complete``, handed to :meth:`_finish` when the flow ends.

        Hops, installs, body checkpoints and completions are scheduled as
        bound methods plus arguments, never closures: a closure per hop
        allocates a function and a cell per captured name, and those were
        most of what the cyclic GC traversed during a run.
        """
        prev = path[hop_index - 1]
        node = path[hop_index]
        link = self.topology.link(prev, node)
        if not link.up:
            self.sim.schedule_in(
                0.0, self._finish, on_done, self._failed_result(request, at, path)
            )
            return
        arrive = at + link.effective_latency(self.sim.now)
        self.sim.schedule_at(
            arrive, self._process_at_node, request, path, hop_index, on_done, corr_id
        )

    def _process_at_node(
        self,
        request: FlowRequest,
        path: Path,
        hop_index: int,
        on_done: Optional[OnComplete],
        corr_id: Optional[int] = None,
    ) -> None:
        node = path[hop_index]
        now = self.sim.now
        key = request.key

        if hop_index == len(path) - 1:
            self._deliver_body(request, path, head_arrived=now, on_done=on_done)
            return

        if self.topology.is_openflow(node):
            switch = self.switches[node]
            in_port = self.topology.port_to(node, path[hop_index - 1])
            head_bytes = min(request.size_bytes, self.transport.mss)
            out_port, miss = switch.process_packet(
                key, in_port, now, head_bytes, corr_id=corr_id
            )
            if miss is not None:
                if not switch.live:
                    self._finish(on_done, self._failed_result(request, now, path))
                    return
                reply = self.controller_for(node).handle_miss(
                    miss, arrived_at=now + self.config.control_latency
                )
                if reply.flow_mod is None:
                    # Route unknown (e.g. destination just died): drop.
                    self._finish(on_done, self._failed_result(request, now, path))
                    return
                self.sim.schedule_at(
                    reply.ready_at + self.config.control_latency,
                    self._install_and_continue,
                    switch,
                    reply.flow_mod,
                    head_bytes,
                    request,
                    path,
                    hop_index,
                    on_done,
                    corr_id,
                )
                return
            if out_port is None:
                self._finish(on_done, self._failed_result(request, now, path))
                return
            self._forward_head(request, path, hop_index + 1, now, on_done, corr_id)
        else:
            # Legacy switch: transparent store-and-forward, no control plane.
            self._forward_head(request, path, hop_index + 1, now, on_done, corr_id)

    def _install_and_continue(
        self,
        switch: OpenFlowSwitch,
        flow_mod: FlowMod,
        head_bytes: int,
        request: FlowRequest,
        path: Path,
        hop_index: int,
        on_done: Optional[OnComplete],
        corr_id: Optional[int],
    ) -> None:
        """Apply the controller's reply at ``switch`` and resume the head."""
        now = self.sim.now
        entry = switch.install(
            match=flow_mod.match,
            out_port=flow_mod.out_port,
            now=now,
            idle_timeout=flow_mod.idle_timeout,
            hard_timeout=flow_mod.hard_timeout,
            corr_id=flow_mod.corr_id,
        )
        entry.record_match(now, head_bytes)
        self._ensure_sweeper()
        self._forward_head(request, path, hop_index + 1, now, on_done, corr_id)

    def _deliver_body(
        self,
        request: FlowRequest,
        path: Path,
        head_arrived: float,
        on_done: Optional[OnComplete],
    ) -> None:
        """Stream the flow body, apply transport effects, finish the flow."""
        links = [
            self.topology.link(a, b) for a, b in zip(path, path[1:])
        ]
        outcome = self.transport.apply(
            request.size_bytes,
            [lk.loss_rate for lk in links],
            self.rng,
        )
        duration = max(request.duration, 1e-6)
        completed = head_arrived + duration + outcome.extra_delay
        for lk in links:
            lk.record_traffic(head_arrived, outcome.observed_bytes, duration)

        body_bytes = max(0, outcome.observed_bytes - self.transport.mss)
        body_packets = max(0, self.transport.packets_for(request.size_bytes) - 1)
        self._schedule_body_accounting(
            request.key, path, head_arrived, completed, body_bytes, body_packets
        )

        result = FlowResult(
            request=request,
            delivered=outcome.delivered,
            started_at=head_arrived,  # refined below
            head_arrived_at=head_arrived,
            completed_at=completed,
            path=path,
            observed_bytes=outcome.observed_bytes,
        )
        self.sim.schedule_at(completed, self._finish, on_done, result)

    def _schedule_body_accounting(
        self,
        key: FlowKey,
        path: Path,
        start: float,
        end: float,
        body_bytes: int,
        body_packets: int,
    ) -> None:
        """Credit body bytes to switch entries at idle-timeout-safe checkpoints.

        Long flows refresh their entries before the soft timeout can fire,
        so a FlowRemoved reports the full transfer exactly once, with a
        duration close to the real flow duration — the property the
        flow-statistics signature depends on.
        """
        idle = self.config.controller.idle_timeout
        step = max(idle * self.config.body_checkpoint, 1e-3)
        per = 1
        t = start + step
        while t < end:
            per += 1
            t += step
        share_bytes = body_bytes // per
        share_packets = max(1, body_packets // per) if body_packets else 0
        switch_nodes = [self.switches[n] for n in path if n in self.switches]

        # Every checkpoint credits the same share through one method; it
        # reads the clock at execution time.
        t = start + step
        while t < end:
            self.sim.schedule_at(
                t, self._credit_body, switch_nodes, key, share_bytes, share_packets
            )
            t += step
        self.sim.schedule_at(
            end, self._credit_body, switch_nodes, key, share_bytes, share_packets
        )

    def _credit_body(
        self,
        switch_nodes: List[OpenFlowSwitch],
        key: FlowKey,
        share_bytes: int,
        share_packets: int,
    ) -> None:
        """One body checkpoint: credit a share to each live entry on the path."""
        now = self.sim.now
        for switch in switch_nodes:
            if not switch.live:
                continue
            entry = switch.table.lookup(key, now)
            if entry is not None:
                entry.record_match(now, share_bytes, share_packets)

    def _failed_result(
        self, request: FlowRequest, at: float, path: Path
    ) -> FlowResult:
        return FlowResult(
            request=request,
            delivered=False,
            started_at=at,
            head_arrived_at=at,
            completed_at=at,
            path=path,
            observed_bytes=0,
        )

    # ------------------------------------------------------------------
    # FlowRemoved sweeper
    # ------------------------------------------------------------------

    def _ensure_sweeper(self) -> None:
        if self._sweeper_running:
            return
        self._sweeper_running = True
        self.sim.schedule_in(self.config.expiry_sweep, self._sweep)

    def _sweep(self) -> None:
        now = self.sim.now
        pending = 0
        for switch in self.switches.values():
            for entry, reason in switch.expire(now):
                # Positional, in field order (see repro.openflow.messages).
                self.controller_for(switch.dpid).log.append(
                    FlowRemoved(
                        now + self.config.control_latency,
                        switch.dpid,
                        entry.corr_id,
                        entry.match,
                        entry.duration,
                        entry.byte_count,
                        entry.packet_count,
                        reason,
                    )
                )
                self._m_flow_removed.inc()
            pending += len(switch.table)
        if pending > 0 or self.sim.pending() > 0:
            self.sim.schedule_in(self.config.expiry_sweep, self._sweep)
        else:
            self._sweeper_running = False

    # ------------------------------------------------------------------
    # Proactive / wildcard deployment modes (Section VI)
    # ------------------------------------------------------------------

    def proactive_install_all_pairs(
        self, idle_timeout: float = 0.0, send_flow_removed: bool = False
    ) -> int:
        """Pre-install destination-based rules on every switch.

        With no timeouts and muted FlowRemoved, this reproduces the
        proactive deployment in which FlowDiff loses application visibility
        (Section VI): no misses, hence no PacketIn stream.

        Returns:
            The number of rules installed.
        """
        installed = 0
        now = self.sim.now
        for host in self.topology.hosts():
            for dpid, switch in self.switches.items():
                port = self._route_any_dst(dpid, host)
                if port is None:
                    continue
                switch.install(
                    match=Match.destination(self.topology.ip_of(host)),
                    out_port=port,
                    now=now,
                    idle_timeout=idle_timeout,
                    hard_timeout=0.0,
                    send_flow_removed=send_flow_removed,
                )
                installed += 1
        return installed

    def _route_any_dst(self, dpid: str, dst_host: str) -> Optional[int]:
        path = self.topology.path(dpid, dst_host, dead_nodes=self._dead_nodes())
        if path is None or len(path) < 2:
            return None
        return self.topology.port_to(dpid, path[1])

    # ------------------------------------------------------------------
    # Fault hooks
    # ------------------------------------------------------------------

    def fail_switch(self, name: str) -> None:
        """Take an OpenFlow switch down (its table is lost) and reroute."""
        self.switches[name].fail()
        self.controller_for(name).log.append(
            PortStatus(
                timestamp=self.sim.now + self.config.control_latency,
                dpid=name,
                port=0,
                live=False,
            )
        )
        self.invalidate_routes()

    def recover_switch(self, name: str) -> None:
        """Bring a switch back with an empty table."""
        self.switches[name].recover()
        self.invalidate_routes()

    def fail_link(self, a: str, b: str) -> None:
        """Sever the link between adjacent nodes and reroute."""
        self.topology.link(a, b).fail()
        self.invalidate_routes()

    def recover_link(self, a: str, b: str) -> None:
        """Restore a severed link."""
        self.topology.link(a, b).recover()
        self.invalidate_routes()

    def set_link_loss(self, a: str, b: str, loss_rate: float) -> None:
        """Set per-packet loss on a link (the Figure 9 `tc` fault)."""
        self.topology.link(a, b).loss_rate = loss_rate

    def shutdown_host(self, host: str) -> None:
        """Power a host/VM off: it stops sending and receiving."""
        self._dead_hosts.add(host)
        self.invalidate_routes()

    def boot_host(self, host: str) -> None:
        """Bring a host back online."""
        self._dead_hosts.discard(host)
        self.invalidate_routes()

    def block_port(self, host: str, port: int) -> None:
        """Firewall a (host, port): flows to or from it never enter."""
        self._blocked.add((host, port))

    def unblock_port(self, host: str, port: int) -> None:
        """Remove a firewall rule."""
        self._blocked.discard((host, port))

    def migrate_host(self, host: str, new_switch: str) -> None:
        """Re-home a host onto another switch (the VM-migration effect)."""
        self.topology.move_host(host, new_switch)
        self.invalidate_routes()

    def host_is_up(self, host: str) -> bool:
        """Whether the host is currently powered on."""
        return host not in self._dead_hosts
