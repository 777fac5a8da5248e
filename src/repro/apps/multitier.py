"""Multi-tier applications: the request pipeline over the simulated network.

A request enters the front tier (e.g. a web server), which after its
processing delay opens (or reuses) a connection to the next tier, and so on
to the deepest tier; responses then flow back up the chain. Every new
connection is a fresh 5-tuple and therefore a new flow, which triggers the
``PacketIn`` cascade FlowDiff mines. A *reused* connection re-sends data on
an existing 5-tuple — a switch-table hit that produces **no** control
traffic while the entry is alive, which is exactly how connection reuse
erodes measurement completeness in the paper (Section V-B1).

The per-tier parameters mirror the paper's experimental knobs:

* ``reuse_prob`` -- the R(m, n) connection-reuse ratios of Figure 10;
* per-server processing delays (via :class:`~repro.apps.servers.ServerFarm`)
  -- the 60 ms ground-truth delay;
* ``balancer`` -- linear (round-robin) versus non-linear (random skew)
  decision logic, which is what makes the component-interaction signature
  stable or unstable (Section III-B).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps.servers import ServerFarm
from repro.apps.services import ServiceDirectory
from repro.netsim.network import FlowRequest, FlowResult, Network
from repro.openflow.match import FlowKey

#: First ephemeral port handed out by the per-host allocator.
EPHEMERAL_BASE = 20000


@dataclass(frozen=True)
class TierSpec:
    """One tier of a multi-tier application.

    Attributes:
        name: human-readable tier role (``"web"``, ``"app"``, ``"db"``).
        servers: host node names serving this tier.
        port: the tier's listen port.
        reuse_prob: probability that a request to the *next* tier reuses an
            existing connection instead of opening a new one.
        balancer: ``"round_robin"`` (linear decision logic, stable CI) or
            ``"random"`` / ``"skewed"`` (unstable CI).
        request_size: bytes sent downstream per request.
        response_size: bytes returned upstream per response.
    """

    name: str
    servers: Tuple[str, ...]
    port: int
    reuse_prob: float = 0.0
    balancer: str = "round_robin"
    request_size: int = 500
    response_size: int = 2000


@dataclass(frozen=True)
class RequestOutcome:
    """The end-to-end outcome of one client request.

    Attributes:
        completed: whether the response made it back to the client.
        started_at: request start time.
        finished_at: response completion time (equals ``started_at`` when
            the request died).
        hops: the server chain the request traversed.
    """

    completed: bool
    started_at: float
    finished_at: float
    hops: Tuple[str, ...]

    @property
    def response_time(self) -> float:
        """Client-perceived latency in seconds."""
        return self.finished_at - self.started_at


@dataclass
class _Connection:
    """A pooled connection: the concrete 5-tuple between two endpoints."""

    key: FlowKey
    last_used: float = 0.0


class MultiTierApp:
    """A multi-tier application bound to a simulated network.

    Args:
        name: application name (used in diagnostics only).
        tiers: front-to-back tier specifications.
        network: the substrate carrying the flows.
        farm: per-server behaviour registry (processing delays, faults).
        seed: RNG seed for balancing, reuse, and service-time sampling.
        services: optional service directory; when provided together with
            ``dns_lookup_prob``, requests are preceded by a DNS flow,
            creating the shared-service edges the grouping step must not
            merge on.
        flow_duration: body-streaming time of each hop's flow.
    """

    def __init__(
        self,
        name: str,
        tiers: Sequence[TierSpec],
        network: Network,
        farm: Optional[ServerFarm] = None,
        seed: int = 7,
        services: Optional[ServiceDirectory] = None,
        dns_lookup_prob: float = 0.0,
        flow_duration: float = 0.002,
    ) -> None:
        if not tiers:
            raise ValueError("an application needs at least one tier")
        self.name = name
        self.tiers = list(tiers)
        self.network = network
        self.farm = farm or ServerFarm()
        self.rng = random.Random(seed)
        self.services = services
        self.dns_lookup_prob = dns_lookup_prob
        self.flow_duration = flow_duration
        self._rr_index: Dict[int, int] = {}
        self._next_port: Dict[str, int] = {}
        self._pools: Dict[Tuple[str, str, int], List[_Connection]] = {}
        self.requests_started = 0
        self.requests_completed = 0

    # ------------------------------------------------------------------
    # Server selection and connection management
    # ------------------------------------------------------------------

    def _pick_server(self, tier_idx: int) -> str:
        tier = self.tiers[tier_idx]
        servers = [
            s
            for s in tier.servers
            if self.network.host_is_up(s) and not self.farm.behavior(s).crashed
        ]
        if not servers:
            # All down: requests will target the first configured server and
            # fail there, which is what a real client would experience.
            return tier.servers[0]
        if tier.balancer == "round_robin":
            idx = self._rr_index.get(tier_idx, 0)
            self._rr_index[tier_idx] = idx + 1
            return servers[idx % len(servers)]
        if tier.balancer == "skewed":
            # Non-linear decision logic: heavily favour the first server but
            # drift over time — the CI-unstable case of Section V-B1.
            weights = [2.0 ** (len(servers) - i) for i in range(len(servers))]
            return self.rng.choices(servers, weights=weights, k=1)[0]
        return self.rng.choice(servers)

    def _ephemeral_port(self, host: str) -> int:
        port = self._next_port.get(host, EPHEMERAL_BASE)
        self._next_port[host] = port + 1 if port < 60000 else EPHEMERAL_BASE
        return port

    def _connection(
        self, src: str, dst: str, dst_port: int, reuse_prob: float
    ) -> FlowKey:
        """Return the 5-tuple for one downstream hop, pooling connections."""
        pool = self._pools.setdefault((src, dst, dst_port), [])
        if pool and self.rng.random() < reuse_prob:
            conn = self.rng.choice(pool)
            conn.last_used = self.network.now
            return conn.key
        key = FlowKey(
            src=src,
            dst=dst,
            src_port=self._ephemeral_port(src),
            dst_port=dst_port,
        )
        pool.append(_Connection(key=key, last_used=self.network.now))
        if len(pool) > 32:
            pool.pop(0)
        return key

    # ------------------------------------------------------------------
    # Request pipeline
    # ------------------------------------------------------------------

    def handle_request(
        self,
        client_host: str,
        client_reuse: float = 0.0,
        on_done: Optional[Callable[[RequestOutcome], None]] = None,
    ) -> None:
        """Issue one client request at the current simulation time.

        The request cascades through every tier and the response returns to
        the client; ``on_done`` receives the end-to-end outcome.
        """
        self.requests_started += 1
        started = self.network.now
        hops: List[str] = [client_host]

        def fail() -> None:
            if on_done is not None:
                on_done(
                    RequestOutcome(
                        completed=False,
                        started_at=started,
                        finished_at=self.network.now,
                        hops=tuple(hops),
                    )
                )

        def begin_front_tier() -> None:
            front = self.tiers[0]
            server = self._pick_server(0)
            hops.append(server)
            key = self._connection(client_host, server, front.port, client_reuse)
            self._send(
                key,
                size=front.request_size,
                on_complete=lambda res: self._at_tier(
                    res, tier_idx=0, chain=[key], hops=hops, fail=fail, done=finish
                ),
            )

        def finish() -> None:
            self.requests_completed += 1
            if on_done is not None:
                on_done(
                    RequestOutcome(
                        completed=True,
                        started_at=started,
                        finished_at=self.network.now,
                        hops=tuple(hops),
                    )
                )

        if (
            self.services is not None
            and self.dns_lookup_prob > 0
            and self.rng.random() < self.dns_lookup_prob
        ):
            dns_key = FlowKey(
                src=client_host,
                dst=self.services.host("DNS"),
                src_port=self._ephemeral_port(client_host),
                dst_port=self.services.port("DNS"),
                proto="udp",
            )
            self._send(dns_key, size=120, on_complete=lambda _res: begin_front_tier())
        else:
            begin_front_tier()

    def _send(
        self, key: FlowKey, size: int, on_complete: Callable[[FlowResult], None]
    ) -> None:
        self.network.send_flow(
            FlowRequest(key=key, size_bytes=size, duration=self.flow_duration),
            on_complete=on_complete,
        )

    def _at_tier(
        self,
        result: FlowResult,
        tier_idx: int,
        chain: List[FlowKey],
        hops: List[str],
        fail: Callable[[], None],
        done: Callable[[], None],
    ) -> None:
        """The request has arrived at tier ``tier_idx``'s server."""
        if not result.delivered:
            fail()
            return
        server = result.request.key.dst
        behavior = self.farm.behavior(server)
        if behavior.crashed or not self.network.host_is_up(server):
            fail()
            return
        service_time = behavior.service_time(self.rng)

        if tier_idx + 1 < len(self.tiers):

            def forward() -> None:
                nxt = self.tiers[tier_idx + 1]
                nxt_server = self._pick_server(tier_idx + 1)
                hops.append(nxt_server)
                key = self._connection(
                    server, nxt_server, nxt.port, self.tiers[tier_idx].reuse_prob
                )
                chain.append(key)
                self._send(
                    key,
                    size=nxt.request_size,
                    on_complete=lambda res: self._at_tier(
                        res, tier_idx + 1, chain, hops, fail, done
                    ),
                )

            self.network.sim.schedule_in(service_time, forward)
        else:

            def respond() -> None:
                self._respond(chain, len(chain) - 1, fail, done)

            self.network.sim.schedule_in(service_time, respond)

    def _respond(
        self,
        chain: List[FlowKey],
        hop_idx: int,
        fail: Callable[[], None],
        done: Callable[[], None],
    ) -> None:
        """Send the response for hop ``hop_idx`` back upstream."""
        if hop_idx < 0:
            done()
            return
        tier = self.tiers[min(hop_idx, len(self.tiers) - 1)]
        reverse = chain[hop_idx].reversed()

        def next_up(result: FlowResult) -> None:
            if not result.delivered:
                fail()
                return
            self._respond(chain, hop_idx - 1, fail, done)

        self._send(reverse, size=tier.response_size, on_complete=next_up)

    # ------------------------------------------------------------------
    # Introspection helpers used by experiments
    # ------------------------------------------------------------------

    def expected_edges(self) -> List[Tuple[str, str]]:
        """Server-to-server edges the connectivity graph should contain."""
        edges = []
        for a, b in zip(self.tiers, self.tiers[1:]):
            for sa in a.servers:
                for sb in b.servers:
                    edges.append((sa, sb))
        return edges
