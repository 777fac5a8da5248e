"""Topology model and builders for the paper's experimental networks.

A :class:`Topology` is a graph of hosts, programmable (OpenFlow) switches,
and legacy switches, with a :class:`~repro.netsim.links.Link` per edge and
deterministic per-node port numbering (ports are what ``PacketIn`` /
``FlowMod`` messages carry, and what physical-topology inference
reconstructs).

Builders:

* :func:`lab_testbed` -- the paper's NEC lab: 25 physical servers plus five
  VMs connected through seven OpenFlow switches (two "hardware", five
  "software") and two legacy D-Link switches, with every server pair
  separated by at least one OpenFlow switch (Section V).
* :func:`paper_tree` -- the scalability-study network: 320 servers in racks
  of 20, one ToR per rack, every four ToRs dual-homed to two aggregation
  switches, all eight aggregation switches connected to two cores
  (Section V, "Simulation").
* :func:`fat_tree` -- a standard k-ary fat-tree, for topology-sensitivity
  ablations.
* :func:`linear_topology` -- a minimal chain, for unit tests.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.netsim.links import Link

HOST = "host"
SWITCH = "switch"  # OpenFlow-programmable
LEGACY = "legacy"  # traditional, non-programmable


class Topology:
    """A data center topology: typed nodes, links, and port numbering."""

    def __init__(self) -> None:
        #: Node attributes: ``kind`` for every node, ``ip`` for hosts.
        self._nodes: Dict[str, Dict[str, str]] = {}
        #: The graph: ``_adj[a][b]`` is the :class:`Link` joining ``a`` and
        #: ``b`` (the same object as ``_adj[b][a]``); every node has a row.
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._ports: Dict[str, Dict[str, int]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_host(self, name: str, ip: Optional[str] = None) -> None:
        """Add a server/VM node; ``ip`` defaults to the node name."""
        self._nodes[name] = {"kind": HOST, "ip": ip or name}
        self._adj.setdefault(name, {})

    def add_switch(self, name: str, programmable: bool = True) -> None:
        """Add a switch node (programmable = OpenFlow, else legacy)."""
        self._nodes[name] = {"kind": SWITCH if programmable else LEGACY}
        self._adj.setdefault(name, {})

    def add_link(
        self,
        a: str,
        b: str,
        latency: float = 0.0005,
        bandwidth: float = 125_000_000.0,
        loss_rate: float = 0.0,
    ) -> Link:
        """Connect two existing nodes, assigning the next free port on each.

        Raises:
            KeyError: if either endpoint has not been added.
        """
        for node in (a, b):
            if node not in self:
                raise KeyError(f"unknown node {node!r}")
        link = Link(a=a, b=b, latency=latency, bandwidth=bandwidth, loss_rate=loss_rate)
        self._adj[a][b] = self._adj[b][a] = link
        for node, peer in ((a, b), (b, a)):
            ports = self._ports.setdefault(node, {})
            if peer not in ports:
                ports[peer] = len(ports) + 1
        return link

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def __contains__(self, node: object) -> bool:
        """Whether ``node`` names a host or switch of this topology."""
        return node in self._nodes

    def kind(self, node: str) -> str:
        """Return the node kind: ``host``, ``switch``, or ``legacy``."""
        return self._nodes[node]["kind"]

    def ip_of(self, node: str) -> str:
        """The address flows to ``node`` carry (the name itself by default)."""
        return self._nodes[node].get("ip", node)

    def is_openflow(self, node: str) -> bool:
        """True for programmable switches."""
        return self.kind(node) == SWITCH

    def _of_kind(self, kind: str) -> List[str]:
        return sorted(n for n, d in self._nodes.items() if d["kind"] == kind)

    def hosts(self) -> List[str]:
        """All host node names, sorted for determinism."""
        return self._of_kind(HOST)

    def switches(self) -> List[str]:
        """All OpenFlow switch names, sorted."""
        return self._of_kind(SWITCH)

    def link(self, a: str, b: str) -> Link:
        """The link between adjacent nodes ``a`` and ``b``.

        Raises:
            KeyError: if the nodes are not adjacent.
        """
        return self._adj[a][b]

    def links(self) -> List[Link]:
        """All links, in deterministic key order."""
        return [
            self._adj[a][b]
            for a in sorted(self._adj)
            for b in sorted(self._adj[a])
            if a <= b
        ]

    def port_to(self, node: str, neighbor: str) -> int:
        """The port number on ``node`` that faces ``neighbor``."""
        return self._ports[node][neighbor]

    def attachment_switch(self, host: str) -> Optional[str]:
        """The first switch (OpenFlow or legacy) adjacent to ``host``."""
        for peer in sorted(self._adj[host]):
            if self.kind(peer) != HOST:
                return peer
        return None

    def path(
        self,
        src: str,
        dst: str,
        dead_nodes: Iterable[str] = (),
    ) -> Optional[List[str]]:
        """Shortest live path from ``src`` to ``dst``, or None if severed.

        Honors downed links and dead switches; the controller recomputes
        routes through this, so failing a switch reroutes traffic (visible
        to FlowDiff as a physical-topology change) or, absent an alternate
        path, disconnects the endpoints.
        """
        paths = self.all_shortest_paths(src, dst, dead_nodes)
        return paths[0] if paths else None

    def all_shortest_paths(
        self,
        src: str,
        dst: str,
        dead_nodes: Iterable[str] = (),
        limit: int = 8,
    ) -> List[List[str]]:
        """The lexically first ``limit`` equal-cost live paths, sorted.

        The substrate's ECMP building block: multi-rooted trees (the
        paper's dual aggregation/core layers) offer several equal-cost
        paths, and hashing flows across them is how real fabrics spread
        load. Which paths survive the ``limit`` depends on node names
        only, never on construction order, so path selection is stable.

        A breadth-first search from ``dst`` over live nodes and links
        gives every node its hop distance; the paths are then walked out
        of ``src`` in name order, each hop one step closer, which yields
        them already sorted and stops at ``limit``. Returns ``[]`` for an
        unknown, dead or unreachable endpoint and ``[[src]]`` when
        ``src == dst``.
        """
        dead = set(dead_nodes)
        if src in dead or dst in dead or src not in self or dst not in self:
            return []
        dist = {dst: 0}
        frontier = [dst]
        while frontier and src not in dist:
            reached = []
            for node in frontier:
                for peer, link in self._adj[node].items():
                    if link.up and peer not in dist and peer not in dead:
                        dist[peer] = dist[node] + 1
                        reached.append(peer)
            frontier = reached
        if src not in dist:
            return []
        paths: List[List[str]] = []
        stack = [[src]]
        while stack and len(paths) < limit:
            path = stack.pop()
            node = path[-1]
            if node == dst:
                paths.append(path)
                continue
            closer = dist[node] - 1
            # Reverse name order onto a stack pops in name order.
            stack.extend(
                path + [peer]
                for peer in sorted(self._adj[node], reverse=True)
                if dist.get(peer) == closer and self._adj[node][peer].up
            )
        return paths

    def move_host(self, host: str, new_switch: str, **link_kwargs) -> None:
        """Re-home a host onto a different switch (VM migration's effect)."""
        for peer in self._adj[host]:
            del self._adj[peer][host]
        self._adj[host] = {}
        # Port maps keep historical entries; re-adding assigns a fresh port,
        # mirroring how a migrated VM shows up on a new physical port.
        self.add_link(host, new_switch, **link_kwargs)


# ----------------------------------------------------------------------
# Builders
# ----------------------------------------------------------------------


def linear_topology(
    n_switches: int = 3,
    hosts_per_switch: int = 2,
    latency: float = 0.0005,
) -> Topology:
    """A chain of OpenFlow switches with hosts hanging off each.

    Hosts are named ``h<i>``, switches ``sw<i>``; the minimal fixture used
    throughout the unit tests.
    """
    topo = Topology()
    for i in range(1, n_switches + 1):
        topo.add_switch(f"sw{i}")
        if i > 1:
            topo.add_link(f"sw{i - 1}", f"sw{i}", latency=latency)
    h = 0
    for i in range(1, n_switches + 1):
        for _ in range(hosts_per_switch):
            h += 1
            topo.add_host(f"h{h}")
            topo.add_link(f"h{h}", f"sw{i}", latency=latency / 5)
    return topo


def lab_testbed(latency: float = 0.0005, hybrid: bool = False) -> Topology:
    """The paper's NEC lab data center (Section V, "Lab data center").

    25 physical servers (``S1``..``S25``) plus five VMs (``VM1``..``VM5``),
    seven OpenFlow switches (``ofs1``/``ofs2`` model the hardware NEC
    PF5240s, ``ofs3``..``ofs7`` the software switches) and two legacy
    D-Link switches. Legacy switches attach to OpenFlow edge switches so
    that any server-to-server path crosses at least one OpenFlow switch.

    With ``hybrid=True`` only the two aggregation-level switches stay
    OpenFlow-enabled and every edge switch becomes legacy — the
    incremental deployment of Section VI, "where the aggregation switches
    are OpenFlow-enabled [which is] already in production". Measurement
    granularity coarsens accordingly.
    """
    topo = Topology()
    for i in (1, 2):
        topo.add_switch(f"ofs{i}")
    for i in range(3, 8):
        topo.add_switch(f"ofs{i}", programmable=not hybrid)
    for i in (1, 2):
        topo.add_switch(f"dlink{i}", programmable=False)
    # Two-level core: both hardware switches interconnect and uplink every
    # software edge switch.
    topo.add_link("ofs1", "ofs2", latency=latency)
    for i in range(3, 8):
        topo.add_link(f"ofs{i}", "ofs1", latency=latency)
        topo.add_link(f"ofs{i}", "ofs2", latency=latency)
    topo.add_link("dlink1", "ofs3", latency=latency)
    topo.add_link("dlink2", "ofs5", latency=latency)

    edge_cycle = ["ofs3", "ofs4", "ofs5", "ofs6", "ofs7", "dlink1", "dlink2"]
    for idx in range(1, 26):
        host = f"S{idx}"
        topo.add_host(host)
        topo.add_link(host, edge_cycle[(idx - 1) % len(edge_cycle)], latency=latency / 5)
    for idx in range(1, 6):
        vm = f"VM{idx}"
        topo.add_host(vm)
        topo.add_link(vm, edge_cycle[(idx - 1) % 5], latency=latency / 5)
    return topo


def paper_tree(
    racks: int = 16,
    servers_per_rack: int = 20,
    latency: float = 0.0005,
) -> Topology:
    """The 320-server tree of the scalability study (Section V).

    Each rack of ``servers_per_rack`` servers connects to a ToR switch;
    every four ToRs are dual-homed to two aggregation switches; all
    aggregation switches connect to two core switches.
    """
    topo = Topology()
    topo.add_switch("core1")
    topo.add_switch("core2")
    n_groups = max(1, racks // 4)
    for g in range(n_groups):
        for s in (1, 2):
            agg = f"agg{g + 1}_{s}"
            topo.add_switch(agg)
            topo.add_link(agg, "core1", latency=latency)
            topo.add_link(agg, "core2", latency=latency)
    server = 0
    for r in range(racks):
        tor = f"tor{r + 1}"
        topo.add_switch(tor)
        group = min(r // 4, n_groups - 1)
        topo.add_link(tor, f"agg{group + 1}_1", latency=latency)
        topo.add_link(tor, f"agg{group + 1}_2", latency=latency)
        for _ in range(servers_per_rack):
            server += 1
            host = f"srv{server}"
            topo.add_host(host)
            topo.add_link(host, tor, latency=latency / 5)
    return topo


def fat_tree(k: int = 4, latency: float = 0.0005) -> Topology:
    """A standard k-ary fat-tree (k pods, (k/2)^2 cores, k^3/4 hosts).

    Used by ablation benchmarks to check that signature extraction is not
    tied to the paper's specific tree.

    Raises:
        ValueError: if ``k`` is not a positive even number.
    """
    if k <= 0 or k % 2:
        raise ValueError(f"fat-tree arity must be positive and even, got {k}")
    topo = Topology()
    half = k // 2
    cores = [f"core{i + 1}" for i in range(half * half)]
    for c in cores:
        topo.add_switch(c)
    host_idx = 0
    for pod in range(k):
        aggs = [f"p{pod}_agg{i}" for i in range(half)]
        edges = [f"p{pod}_edge{i}" for i in range(half)]
        for a in aggs + edges:
            topo.add_switch(a)
        for i, agg in enumerate(aggs):
            for j in range(half):
                topo.add_link(agg, cores[i * half + j], latency=latency)
            for edge in edges:
                topo.add_link(agg, edge, latency=latency)
        for edge in edges:
            for _ in range(half):
                host_idx += 1
                host = f"ft_h{host_idx}"
                topo.add_host(host)
                topo.add_link(host, edge, latency=latency / 5)
    return topo
