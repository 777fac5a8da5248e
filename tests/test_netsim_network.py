"""Integration tests for the network: control-plane choreography and faults."""

import pytest

from repro.netsim.network import FlowRequest, Network, NetworkConfig
from repro.netsim.topology import lab_testbed, linear_topology
from repro.openflow.controller import ControllerConfig
from repro.openflow.match import FlowKey
from repro.openflow.messages import FlowRemovedReason


def make_network(n_switches=3, hosts_per_switch=2, **config_kwargs):
    topo = linear_topology(n_switches, hosts_per_switch)
    return Network(topo, config=NetworkConfig(**config_kwargs))


def send_and_run(net, key, size=5000, duration=0.02, until=30.0):
    results = []
    net.send_flow(
        FlowRequest(key=key, size_bytes=size, duration=duration),
        on_complete=results.append,
    )
    net.sim.run(until=until)
    return results[0]


def test_a_telemetry_plane_is_accepted_and_unread():
    """``bench/`` still hands the network a plane; it changes nothing."""
    from repro.obs.telemetry import NOOP_TELEMETRY, TelemetryPlane

    logs = []
    for telemetry in (None, NOOP_TELEMETRY, TelemetryPlane()):
        net = Network(linear_topology(3, 2), telemetry=telemetry)
        send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        logs.append([repr(m) for m in net.log])
        assert not hasattr(net, "telemetry")
    assert logs[0] and logs[0] == logs[1] == logs[2]


class TestForwarding:
    def test_flow_crosses_every_switch(self):
        net = make_network()
        result = send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        assert result.delivered
        assert result.path == ("h1", "sw1", "sw2", "sw3", "h5")

    def test_one_packet_in_per_switch(self):
        """Figure 3: every on-path switch reports the new flow."""
        net = make_network()
        send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        pins = net.log.packet_ins()
        assert [p.dpid for p in pins] == ["sw1", "sw2", "sw3"]
        # Timestamps strictly increase along the path.
        stamps = [p.timestamp for p in pins]
        assert stamps == sorted(stamps)

    def test_second_flow_same_key_hits_table(self):
        net = make_network()
        key = FlowKey("h1", "h5", 40000, 80)
        send_and_run(net, key, until=1.0)
        before = len(net.log.packet_ins())
        net.send_flow(FlowRequest(key=key, size_bytes=100, duration=0.001))
        net.sim.run(until=2.0)
        assert len(net.log.packet_ins()) == before  # no new misses

    def test_expired_entry_triggers_new_packet_in(self):
        net = make_network()
        key = FlowKey("h1", "h5", 40000, 80)
        send_and_run(net, key, until=30.0)  # entries expired by now
        before = len(net.log.packet_ins())
        net.send_flow(FlowRequest(key=key, size_bytes=100, duration=0.001))
        net.sim.run(until=60.0)
        assert len(net.log.packet_ins()) == before + 3

    def test_flow_removed_carries_full_byte_count(self):
        net = make_network()
        send_and_run(net, FlowKey("h1", "h5", 40000, 80), size=25000)
        removed = net.log.flow_removed()
        assert len(removed) == 3
        for fr in removed:
            assert fr.byte_count == 25000
            assert fr.reason == FlowRemovedReason.IDLE_TIMEOUT

    def test_flow_removed_duration_close_to_flow_duration(self):
        net = make_network()
        send_and_run(net, FlowKey("h1", "h5", 40000, 80), duration=2.0, until=60.0)
        for fr in net.log.flow_removed():
            assert fr.duration == pytest.approx(2.0, abs=0.5)

    def test_long_flow_entry_stays_alive(self):
        """Body checkpoints refresh idle timeouts across a long flow."""
        net = make_network()
        result = send_and_run(
            net, FlowKey("h1", "h5", 40000, 80), size=50000, duration=20.0, until=90.0
        )
        assert result.delivered
        # One FlowRemoved per switch, not multiple from mid-flow expiry.
        assert len(net.log.flow_removed()) == 3

    def test_unknown_destination_fails(self):
        net = make_network()
        result = send_and_run(net, FlowKey("h1", "ghost", 40000, 80))
        assert not result.delivered

    def test_counters(self):
        net = make_network()
        send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        assert net.flows_sent == 1
        assert net.flows_delivered == 1


class TestDeploymentModes:
    def test_wildcard_rules_reduce_packet_ins(self):
        reactive = make_network()
        send_and_run(reactive, FlowKey("h1", "h5", 40000, 80), until=1.0)
        reactive.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 41000, 81), size_bytes=100, duration=0.001)
        )
        reactive.sim.run(until=2.0)
        micro_pins = len(reactive.log.packet_ins())

        wild_cfg = NetworkConfig(
            controller=ControllerConfig(use_microflow_rules=False)
        )
        wild = Network(linear_topology(3, 2), config=wild_cfg)
        send_and_run(wild, FlowKey("h1", "h5", 40000, 80), until=1.0)
        wild.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 41000, 81), size_bytes=100, duration=0.001)
        )
        wild.sim.run(until=2.0)
        assert len(wild.log.packet_ins()) < micro_pins

    def test_proactive_deployment_silences_control_traffic(self):
        net = make_network()
        installed = net.proactive_install_all_pairs()
        assert installed > 0
        result = send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        assert result.delivered
        assert len(net.log.packet_ins()) == 0
        assert len(net.log.flow_removed()) == 0

class TestFaultHooks:
    def test_switch_failure_reroutes_or_drops(self):
        topo = lab_testbed()
        net = Network(topo)
        key = FlowKey("S1", "S3", 40000, 80)
        r1 = send_and_run(net, key, until=5.0)
        assert r1.delivered
        assert "ofs1" in r1.path or "ofs2" in r1.path
        crossed = "ofs1" if "ofs1" in r1.path else "ofs2"
        net.fail_switch(crossed)
        r2 = []
        net.send_flow(
            FlowRequest(key=FlowKey("S1", "S3", 41000, 80), size_bytes=100, duration=0.01),
            on_complete=r2.append,
        )
        net.sim.run(until=40.0)
        assert r2[0].delivered
        assert crossed not in r2[0].path

    def test_switch_failure_disconnects_without_alternative(self):
        net = make_network()  # linear: sw2 is a cut vertex
        net.fail_switch("sw2")
        result = send_and_run(net, FlowKey("h1", "h5", 40000, 80))
        assert not result.delivered

    def test_link_failure_and_recovery(self):
        net = make_network()
        net.fail_link("sw1", "sw2")
        assert not send_and_run(net, FlowKey("h1", "h5", 40000, 80), until=40.0).delivered
        net.recover_link("sw1", "sw2")
        r = []
        net.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 42000, 80), size_bytes=100, duration=0.01),
            on_complete=r.append,
        )
        net.sim.run(until=80.0)
        assert r[0].delivered

    def test_route_cache_bounded_by_routed_pairs(self):
        """Invalidation drops stale routes instead of stranding a generation."""
        net = Network(lab_testbed())
        pairs = [("S1", "S3"), ("S2", "S4"), ("S3", "S1")]

        def traffic(sport, until):
            for src, dst in pairs:
                net.send_flow(
                    FlowRequest(key=FlowKey(src, dst, sport, 80), size_bytes=100, duration=0.01)
                )
            net.sim.run(until=until)

        traffic(40000, 5.0)
        net.fail_link("ofs3", "ofs1")
        traffic(41000, 10.0)
        net.recover_link("ofs3", "ofs1")
        traffic(42000, 15.0)
        assert 0 < len(net._route_cache) <= len(pairs)

    def test_host_shutdown_blocks_flows(self):
        net = make_network()
        net.shutdown_host("h5")
        assert not send_and_run(net, FlowKey("h1", "h5", 40000, 80)).delivered
        net.boot_host("h5")
        r = []
        net.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 43000, 80), size_bytes=100, duration=0.01),
            on_complete=r.append,
        )
        net.sim.run(until=60.0)
        assert r[0].delivered

    def test_firewall_blocks_port_only(self):
        net = make_network()
        net.block_port("h5", 3306)
        assert not send_and_run(net, FlowKey("h1", "h5", 40000, 3306), until=1.0).delivered
        r = []
        net.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 40001, 80), size_bytes=100, duration=0.01),
            on_complete=r.append,
        )
        net.sim.run(until=30.0)
        assert r[0].delivered

    def test_link_loss_inflates_observed_bytes(self):
        net = make_network(seed=5)
        net.set_link_loss("sw1", "sw2", 0.3)
        total = 0
        for i in range(30):
            result = send_and_run(
                net,
                FlowKey("h1", "h5", 40000 + i, 80),
                size=14600,
                until=net.sim.now + 60.0,
            )
            if result.delivered:
                total += result.observed_bytes - 14600
        assert total > 0

    def test_migrate_host_changes_path(self):
        net = make_network()
        r1 = send_and_run(net, FlowKey("h1", "h5", 40000, 80), until=5.0)
        net.migrate_host("h5", "sw1")
        r2 = []
        net.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 41000, 80), size_bytes=100, duration=0.01),
            on_complete=r2.append,
        )
        net.sim.run(until=40.0)
        assert r2[0].path == ("h1", "sw1", "h5")

    def test_controller_failure_blackholes_new_flows(self):
        net = make_network()
        net.controller.fail()
        results = []
        net.send_flow(
            FlowRequest(key=FlowKey("h1", "h5", 40000, 80), size_bytes=100, duration=0.01),
            on_complete=results.append,
        )
        net.sim.run(until=10.0)
        assert results and not results[0].delivered
        assert len(net.log.flow_mods()) == 0  # no replies from a dead brain
        assert len(net.log.packet_ins()) == 0  # ... and no log: it lives there


class TestECMP:
    def test_ecmp_spreads_flows_across_cores(self):
        """With ECMP on the paper tree, both core switches carry traffic."""
        from repro.netsim.topology import paper_tree

        topo = paper_tree(racks=4, servers_per_rack=2)
        net = Network(topo, config=NetworkConfig(ecmp=True))
        for i in range(40):
            net.send_flow(
                FlowRequest(
                    key=FlowKey("srv1", "srv8", 40000 + i, 80),
                    size_bytes=1000,
                    duration=0.005,
                )
            )
        net.sim.run(until=30.0)
        dpids = {p.dpid for p in net.log.packet_ins()}
        assert {"core1", "core2"} <= dpids or {
            "agg1_1",
            "agg1_2",
        } <= dpids, f"only one fabric side used: {sorted(dpids)}"

    def test_ecmp_flow_path_is_stable(self):
        """The same 5-tuple always hashes to the same path."""
        from repro.netsim.topology import paper_tree

        def run_once():
            topo = paper_tree(racks=4, servers_per_rack=2)
            net = Network(topo, config=NetworkConfig(ecmp=True))
            done = []
            net.send_flow(
                FlowRequest(
                    key=FlowKey("srv1", "srv8", 41000, 80),
                    size_bytes=1000,
                    duration=0.005,
                ),
                on_complete=done.append,
            )
            net.sim.run(until=30.0)
            return done[0].path

        assert run_once() == run_once()

    def test_ecmp_off_by_default(self):
        assert NetworkConfig().ecmp is False
