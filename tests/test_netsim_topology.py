"""Unit tests for topology construction, routing, and builders."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim.topology import (
    Topology,
    fat_tree,
    lab_testbed,
    linear_topology,
    paper_tree,
)


class TestTopologyBasics:
    def test_add_and_query_kinds(self):
        topo = Topology()
        topo.add_host("h1")
        topo.add_switch("sw1")
        topo.add_switch("legacy1", programmable=False)
        assert topo.hosts() == ["h1"]
        assert topo.is_openflow("sw1")
        assert not topo.is_openflow("legacy1")
        assert topo.switches() == ["sw1"]

    def test_link_requires_known_nodes(self):
        topo = Topology()
        topo.add_host("h1")
        with pytest.raises(KeyError):
            topo.add_link("h1", "nope")

    def test_port_assignment_deterministic(self):
        topo = Topology()
        topo.add_switch("sw1")
        for h in ("h1", "h2", "h3"):
            topo.add_host(h)
            topo.add_link(h, "sw1")
        assert topo.port_to("sw1", "h1") == 1
        assert topo.port_to("sw1", "h2") == 2
        assert topo.port_to("sw1", "h3") == 3

    def test_attachment_switch(self):
        topo = linear_topology(2, 1)
        assert topo.attachment_switch("h1") == "sw1"

    def test_link_lookup(self):
        topo = linear_topology(2, 1)
        link = topo.link("sw1", "sw2")
        assert link.key() == ("sw1", "sw2")
        assert topo.link("sw2", "sw1") is link
        with pytest.raises(KeyError):
            topo.link("sw1", "h2")


class TestRouting:
    def test_shortest_path(self):
        topo = linear_topology(3, 1)
        path = topo.path("h1", "h3")
        assert path == ["h1", "sw1", "sw2", "sw3", "h3"]

    def test_path_avoids_dead_switch(self):
        topo = lab_testbed()
        # Path between hosts on different edge switches crosses a core;
        # killing ofs1 must still leave the ofs2 core path.
        p1 = topo.path("S1", "S2")
        assert p1 is not None
        p2 = topo.path("S1", "S2", dead_nodes={"ofs1"})
        assert p2 is not None
        assert "ofs1" not in p2

    def test_path_none_when_disconnected(self):
        topo = linear_topology(2, 1)
        topo.link("sw1", "sw2").fail()
        assert topo.path("h1", "h2") is None

    def test_path_honors_downed_link(self):
        topo = lab_testbed()
        topo.link("ofs3", "ofs1").fail()
        path = topo.path("S1", "S3")
        assert path is not None
        assert ("ofs3", "ofs1") not in list(zip(path, path[1:]))

    def test_dead_endpoint_unreachable(self):
        topo = linear_topology(2, 1)
        assert topo.path("h1", "h2", dead_nodes={"h2"}) is None

    def test_move_host(self):
        topo = linear_topology(3, 1)
        assert topo.attachment_switch("h1") == "sw1"
        topo.move_host("h1", "sw3")
        assert topo.attachment_switch("h1") == "sw3"
        assert topo.path("h1", "h3") == ["h1", "sw3", "h3"]


class TestEqualCostPaths:
    """The ECMP set: the lexically first ``limit`` shortest paths, sorted."""

    def test_paper_tree_cross_group(self):
        paths = paper_tree().all_shortest_paths("srv1", "srv320")
        assert len(paths) == 8
        assert paths == sorted(paths)
        assert paths[0] == ["srv1", "tor1", "agg1_1", "core1", "agg4_1", "tor16", "srv320"]
        assert paths[-1] == ["srv1", "tor1", "agg1_2", "core2", "agg4_2", "tor16", "srv320"]

    def test_paper_tree_same_group(self):
        assert paper_tree().all_shortest_paths("srv1", "srv21") == [
            ["srv1", "tor1", "agg1_1", "tor2", "srv21"],
            ["srv1", "tor1", "agg1_2", "tor2", "srv21"],
        ]

    def test_lab_dual_core(self):
        assert lab_testbed().all_shortest_paths("S1", "S2") == [
            ["S1", "ofs3", "ofs1", "ofs4", "S2"],
            ["S1", "ofs3", "ofs2", "ofs4", "S2"],
        ]

    def test_fat_tree_cross_pod(self):
        paths = fat_tree(4).all_shortest_paths("ft_h1", "ft_h9")
        assert [p[2:4] for p in paths] == [
            ["p0_agg0", "core1"],
            ["p0_agg0", "core2"],
            ["p0_agg1", "core3"],
            ["p0_agg1", "core4"],
        ]

    def test_degenerate_endpoints(self):
        topo = fat_tree(4)
        assert topo.all_shortest_paths("ft_h1", "ft_h1") == [["ft_h1"]]
        assert topo.all_shortest_paths("ft_h1", "nope") == []
        assert topo.all_shortest_paths("nope", "ft_h1") == []
        assert topo.all_shortest_paths("ft_h1", "ft_h9", dead_nodes={"ft_h1"}) == []

    def test_limit_keeps_the_lexically_first(self):
        topo = fat_tree(4)
        dead = {"p0_agg0"}
        every = topo.all_shortest_paths("core1", "ft_h1", dead_nodes=dead, limit=100)
        assert len(every) == 12
        assert every == sorted(every)
        assert topo.all_shortest_paths("core1", "ft_h1", dead_nodes=dead) == every[:8]
        assert topo.path("core1", "ft_h1", dead_nodes=dead) == every[0]

    def test_faults_remove_exactly_the_paths_that_cross_them(self):
        topo = paper_tree()
        healthy = topo.all_shortest_paths("srv1", "srv320")
        assert topo.all_shortest_paths("srv1", "srv320", dead_nodes={"core1"}) == [
            p for p in healthy if "core1" not in p
        ]
        topo.link("tor1", "agg1_2").fail()
        assert topo.all_shortest_paths("srv1", "srv320") == [
            p for p in healthy if p[2] != "agg1_2"
        ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_brute_force_on_small_graphs(self, data):
        n = data.draw(st.integers(2, 8))
        nodes = [f"n{i}" for i in range(n)]
        pairs = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1 :]]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True))
        down = set(data.draw(st.lists(st.sampled_from(pairs), unique=True)))
        dead = set(data.draw(st.lists(st.sampled_from(nodes), unique=True)))
        src, dst = data.draw(st.sampled_from(nodes)), data.draw(st.sampled_from(nodes))
        limit = data.draw(st.integers(1, 8))

        topo = Topology()
        for node in nodes:
            topo.add_switch(node)
        for a, b in edges:
            topo.add_link(a, b)
            if (a, b) in down:
                topo.link(a, b).fail()

        live = {frozenset(e) for e in edges if e not in down and not dead & set(e)}
        simple = []

        def extend(path):
            if path[-1] == dst:
                simple.append(path)
                return
            for nxt in nodes:
                if nxt not in path and frozenset((path[-1], nxt)) in live:
                    extend(path + [nxt])

        if src not in dead and dst not in dead:
            extend([src])
        shortest = min(map(len, simple), default=0)
        expected = sorted(p for p in simple if len(p) == shortest)[:limit]
        assert topo.all_shortest_paths(src, dst, dead_nodes=dead, limit=limit) == expected


class TestBuilders:
    def test_lab_testbed_dimensions(self):
        topo = lab_testbed()
        assert len(topo.hosts()) == 30  # 25 servers + 5 VMs
        assert len(topo.switches()) == 7
        ends = {n for link in topo.links() for n in (link.a, link.b)}
        assert {n for n in ends if topo.kind(n) == "legacy"} == {"dlink1", "dlink2"}

    def test_lab_testbed_openflow_on_every_path(self):
        """Every server pair path crosses at least one OpenFlow switch."""
        topo = lab_testbed()
        hosts = topo.hosts()[:8]
        for i, a in enumerate(hosts):
            for b in hosts[i + 1 :]:
                path = topo.path(a, b)
                assert path is not None
                assert any(topo.is_openflow(n) for n in path)

    def test_paper_tree_dimensions(self):
        topo = paper_tree()
        assert len(topo.hosts()) == 320
        tors = [s for s in topo.switches() if s.startswith("tor")]
        aggs = [s for s in topo.switches() if s.startswith("agg")]
        cores = [s for s in topo.switches() if s.startswith("core")]
        assert len(tors) == 16
        assert len(aggs) == 8
        assert len(cores) == 2

    def test_paper_tree_wiring(self):
        topo = paper_tree()
        # Each ToR dual-homed to its group's two aggregation switches.
        assert topo.link("tor1", "agg1_1").up
        assert topo.link("tor1", "agg1_2").up
        # All aggs connect to both cores.
        for g in range(1, 5):
            for s in (1, 2):
                assert topo.link(f"agg{g}_{s}", "core1").up
                assert topo.link(f"agg{g}_{s}", "core2").up

    def test_paper_tree_connectivity(self):
        topo = paper_tree()
        assert topo.path("srv1", "srv320") is not None

    def test_fat_tree_dimensions(self):
        topo = fat_tree(4)
        assert len(topo.hosts()) == 16  # k^3/4
        assert len(topo.switches()) == 4 + 4 * 4  # 4 cores + 8 agg + 8 edge

    def test_fat_tree_validation(self):
        with pytest.raises(ValueError):
            fat_tree(3)
        with pytest.raises(ValueError):
            fat_tree(0)

    def test_fat_tree_connectivity(self):
        topo = fat_tree(4)
        hosts = topo.hosts()
        assert topo.path(hosts[0], hosts[-1]) is not None

    def test_linear_topology_shape(self):
        topo = linear_topology(4, 2)
        assert len(topo.hosts()) == 8
        assert len(topo.switches()) == 4
