"""Unit and integration tests for servers, multi-tier apps, and clients."""

import random

import pytest

from repro.apps.client import WorkloadClient
from repro.apps.multitier import MultiTierApp, TierSpec
from repro.apps.servers import DelayModel, ServerBehavior, ServerFarm
from repro.apps.services import SERVICE_PORTS, ServiceDirectory
from repro.netsim.network import Network
from repro.netsim.topology import lab_testbed, linear_topology
from repro.workload.arrivals import FixedProcess, PoissonProcess


def simple_app(net=None, reuse=0.0, balancer="round_robin", servers=("h3", "h4")):
    net = net or Network(linear_topology(3, 2))
    farm = ServerFarm()
    farm.set_delay("h3", 0.02, 0.0)
    farm.set_delay("h4", 0.02, 0.0)
    farm.set_delay("h5", 0.01, 0.0)
    app = MultiTierApp(
        "test",
        [
            TierSpec("web", servers, 80, reuse_prob=reuse, balancer=balancer),
            TierSpec("db", ("h5",), 3306),
        ],
        net,
        farm,
        seed=9,
    )
    return net, farm, app


class TestServerBehavior:
    def test_delay_model_sampling(self):
        model = DelayModel(mean=0.05, std=0.0)
        assert model.sample(random.Random(1)) == pytest.approx(0.05)

    def test_floor_clamps(self):
        model = DelayModel(mean=0.0001, std=0.0, floor=0.01)
        assert model.sample(random.Random(1)) == 0.01

    def test_faults_compose(self):
        behavior = ServerBehavior(delay=DelayModel(mean=0.1, std=0.0))
        behavior.cpu_factor = 2.0
        behavior.logging_overhead = 0.05
        assert behavior.service_time(random.Random(1)) == pytest.approx(0.25)

    def test_farm_lazy_creation_and_fault_api(self):
        farm = ServerFarm()
        farm.enable_logging_fault("s1", 0.03)
        farm.enable_cpu_fault("s2", 4.0)
        farm.crash("s3")
        assert farm.behavior("s1").logging_overhead == 0.03
        assert farm.behavior("s2").cpu_factor == 4.0
        assert farm.behavior("s3").crashed


class TestServiceDirectory:
    def test_standard_directory(self):
        services = ServiceDirectory.standard()
        assert services.host("DNS") == "svc-dns"
        assert services.port("NFS") == 2049
        assert "svc-nfs" in services.special_nodes()
        assert services.service_names()["svc-dns"] == "DNS"
        assert services.service_names()["svc-ntp"] == "NTP"
        assert "random-host" not in services.service_names()

    def test_register_into_topology(self):
        topo = linear_topology(2, 1)
        services = ServiceDirectory.standard()
        services.register_into(topo, attach_to="sw1")
        for host in services.special_nodes():
            assert host in topo
        # idempotent
        services.register_into(topo, attach_to="sw1")


class TestMultiTierApp:
    def test_request_completes_end_to_end(self):
        net, _, app = simple_app()
        outcomes = []
        app.handle_request("h1", on_done=outcomes.append)
        net.sim.run(until=20.0)
        assert len(outcomes) == 1
        assert outcomes[0].completed
        assert outcomes[0].response_time > 0.04  # two service times

    def test_request_generates_expected_edges(self):
        net, _, app = simple_app(servers=("h3",))
        app.handle_request("h1")
        net.sim.run(until=20.0)
        endpoints = {(p.flow.src, p.flow.dst) for p in net.log.packet_ins()}
        assert ("h1", "h3") in endpoints
        assert ("h3", "h5") in endpoints
        assert ("h5", "h3") in endpoints  # response
        assert ("h3", "h1") in endpoints

    def test_round_robin_balances(self):
        net, _, app = simple_app()
        for _ in range(10):
            app.handle_request("h1")
        net.sim.run(until=30.0)
        dsts = [p.flow.dst for p in net.log.packet_ins() if p.flow.src == "h1"]
        assert dsts.count("h3") == pytest.approx(dsts.count("h4"), abs=2)

    def test_connection_reuse_suppresses_packet_ins(self):
        net1, _, app1 = simple_app(reuse=0.0, servers=("h3",))
        client1 = WorkloadClient("h1", app1, FixedProcess(0.2))
        client1.run(0.0, 10.0)
        net1.sim.run(until=20.0)
        no_reuse_pins = len(net1.log.packet_ins())

        net2, _, app2 = simple_app(reuse=0.95, servers=("h3",))
        client2 = WorkloadClient("h1", app2, FixedProcess(0.2), reuse_prob=0.95)
        client2.run(0.0, 10.0)
        net2.sim.run(until=20.0)
        reuse_pins = len(net2.log.packet_ins())
        assert reuse_pins < no_reuse_pins / 2

    def test_crashed_server_fails_requests(self):
        net, farm, app = simple_app(servers=("h3",))
        farm.crash("h3")
        outcomes = []
        app.handle_request("h1", on_done=outcomes.append)
        net.sim.run(until=20.0)
        assert len(outcomes) == 1
        assert not outcomes[0].completed

    def test_crashed_server_avoided_when_alternatives(self):
        net, farm, app = simple_app()
        farm.crash("h3")
        outcomes = []
        for _ in range(5):
            app.handle_request("h1", on_done=outcomes.append)
        net.sim.run(until=30.0)
        assert all(o.completed for o in outcomes)
        assert all("h4" in o.hops for o in outcomes)

    def test_requires_at_least_one_tier(self):
        net = Network(linear_topology(2, 1))
        with pytest.raises(ValueError):
            MultiTierApp("bad", [], net)

    def test_dns_lookup_prob(self):
        topo = linear_topology(3, 2)
        services = ServiceDirectory(hosts={"DNS": "h6"})
        net = Network(topo)
        farm = ServerFarm()
        app = MultiTierApp(
            "svc",
            [TierSpec("web", ("h3",), 80)],
            net,
            farm,
            seed=2,
            services=services,
            dns_lookup_prob=1.0,
        )
        app.handle_request("h1")
        net.sim.run(until=10.0)
        dns_flows = [
            p for p in net.log.packet_ins() if p.flow.dst == "h6" and p.flow.dst_port == 53
        ]
        assert dns_flows

    def test_expected_edges_helper(self):
        _, _, app = simple_app()
        edges = app.expected_edges()
        assert ("h3", "h5") in edges
        assert ("h4", "h5") in edges

    def test_skewed_balancer_prefers_first(self):
        net, _, app = simple_app(balancer="skewed")
        for _ in range(40):
            app.handle_request("h1")
        net.sim.run(until=60.0)
        dsts = [p.flow.dst for p in net.log.packet_ins() if p.flow.src == "h1"]
        assert dsts.count("h3") > dsts.count("h4")


class TestWorkloadClient:
    def test_generates_requests_within_window(self):
        net, _, app = simple_app()
        client = WorkloadClient("h1", app, FixedProcess(0.5))
        client.run(0.0, 5.0)
        net.sim.run(until=20.0)
        assert 8 <= len(client.outcomes) <= 10
        assert client.completed == len(client.outcomes)
        assert client.failed == 0

    def test_poisson_rate_roughly_matches(self):
        net, _, app = simple_app()
        client = WorkloadClient("h1", app, PoissonProcess(20.0, random.Random(4)))
        client.run(0.0, 10.0)
        net.sim.run(until=30.0)
        assert 120 <= len(client.outcomes) <= 280

    def test_inverted_window_raises(self):
        net, _, app = simple_app()
        client = WorkloadClient("h1", app, FixedProcess(1.0))
        with pytest.raises(ValueError):
            client.run(5.0, 1.0)

    def test_on_outcome_callback(self):
        net, _, app = simple_app()
        seen = []
        client = WorkloadClient("h1", app, FixedProcess(1.0))
        client.run(0.0, 3.0, on_outcome=seen.append)
        net.sim.run(until=20.0)
        assert len(seen) == len(client.outcomes)
