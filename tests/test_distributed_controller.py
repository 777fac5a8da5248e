"""Tests for the distributed control plane (Section VI)."""

import pytest

from repro import FlowDiff
from repro.core.signatures import build_application_signatures
from repro.netsim.network import FlowRequest, Network, NetworkConfig
from repro.netsim.topology import lab_testbed, linear_topology
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey


def run_flows(net, n=5, until=30.0):
    for i in range(n):
        net.send_flow(
            FlowRequest(
                key=FlowKey("h1", "h5", 40000 + i, 80),
                size_bytes=4000,
                duration=0.01,
            )
        )
    net.sim.run(until=until)


class TestDistributedControlPlane:
    def test_switches_partitioned_across_controllers(self):
        net = Network(linear_topology(3, 2), config=NetworkConfig(n_controllers=2))
        assert len(net.controllers) == 2
        owners = {net.controller_for(d) for d in net.switches}
        assert len(owners) == 2

    def test_each_controller_sees_only_its_switches(self):
        net = Network(linear_topology(3, 2), config=NetworkConfig(n_controllers=2))
        run_flows(net)
        for controller in net.controllers:
            dpids = {m.dpid for m in controller.log.packet_ins()}
            expected = {
                d for d in net.switches if net.controller_for(d) is controller
            }
            assert dpids <= expected

    def test_merged_log_equivalent_to_centralized(self):
        """Distribution must not change what FlowDiff can observe."""
        central = Network(linear_topology(3, 2), config=NetworkConfig(n_controllers=1))
        run_flows(central)
        distributed = Network(
            linear_topology(3, 2), config=NetworkConfig(n_controllers=3)
        )
        run_flows(distributed)
        c_pins = {(p.dpid, p.flow) for p in central.log.packet_ins()}
        d_pins = {(p.dpid, p.flow) for p in distributed.log.packet_ins()}
        assert c_pins == d_pins
        assert len(central.log.flow_removed()) == len(
            distributed.log.flow_removed()
        )
        # The merge is the per-controller captures appended one message at
        # a time: time order, ties in controller order.
        appended = ControllerLog(
            m for controller in distributed.controllers for m in controller.log
        )
        assert len(appended) == len(central.log)
        assert [id(m) for m in distributed.log] == [id(m) for m in appended]

    def test_flowdiff_on_merged_distributed_log(self):
        from repro.scenarios import three_tier_lab
        from repro.netsim.network import NetworkConfig

        scenario = three_tier_lab(
            seed=3, network_config=NetworkConfig(n_controllers=2)
        )
        log = scenario.run(0.5, 15.0)
        sigs = build_application_signatures(log)
        assert sigs
        sig = next(iter(sigs.values()))
        assert ("S1", "S3") in sig.cg.edges

    def test_controller_faults_hit_all_instances(self):
        from repro.faults import ControllerFailure, ControllerOverload

        net = Network(linear_topology(3, 2), config=NetworkConfig(n_controllers=2))
        ControllerOverload(5.0).apply(net)
        assert all(c.overload_factor == 5.0 for c in net.controllers)
        ControllerFailure().apply(net)
        assert all(not c.live for c in net.controllers)
        ControllerFailure().revert(net)
        assert all(c.live for c in net.controllers)
