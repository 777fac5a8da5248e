"""Tests for the prebuilt experiment scenarios."""

import pytest

from repro.core.signatures import SignatureConfig, build_application_signatures
from repro.faults import HostShutdown
from repro.scenarios import (
    TABLE2_CASES,
    AppPlan,
    scalability_sim,
    table2_case,
    three_tier_lab,
)


class TestThreeTierLab:
    def test_default_scenario_runs(self):
        scenario = three_tier_lab(seed=3)
        log = scenario.run(0.5, 5.0)
        assert len(log.packet_ins()) > 0
        assert scenario.clients[0].completed > 0

    def test_custom_delays_applied(self):
        scenario = three_tier_lab(seed=3, app_delay=0.1)
        assert scenario.farm.behavior("S3").delay.mean == pytest.approx(0.1)

    def test_with_services_adds_special_nodes(self):
        scenario = three_tier_lab(seed=3, with_services=True)
        assert scenario.special_nodes()
        assert "svc-dns" in scenario.network.topology

    def test_without_services_no_special_nodes(self):
        scenario = three_tier_lab(seed=3)
        assert scenario.special_nodes() == ()

    def test_inject_schedules_fault(self):
        scenario = three_tier_lab(seed=3)
        scenario.inject(HostShutdown("S8"), at=1.0)
        scenario.run(0.5, 3.0)
        assert not scenario.network.host_is_up("S8")

    def test_fault_reversion_window(self):
        scenario = three_tier_lab(seed=3)
        scenario.inject(HostShutdown("S8"), at=1.0, until=2.0)
        scenario.run(0.5, 3.0)
        assert scenario.network.host_is_up("S8")

    def test_deterministic_given_seed(self):
        log1 = three_tier_lab(seed=5).run(0.5, 5.0)
        log2 = three_tier_lab(seed=5).run(0.5, 5.0)
        assert len(log1) == len(log2)


class TestAppPlan:
    def test_uniform_reuse(self):
        plan = AppPlan("p", (("web", ("S1",), 80),), ("S22",), reuse=0.5)
        assert plan.tier_reuse(0) == 0.5
        assert plan.client_reuse() == 0.5

    def test_per_tier_reuse(self):
        plan = AppPlan(
            "p",
            (("web", ("S1",), 80), ("app", ("S3",), 81)),
            ("S22",),
            reuse=(0.0, 0.9),
        )
        assert plan.tier_reuse(0) == 0.0
        assert plan.tier_reuse(1) == 0.9
        assert plan.tier_reuse(5) == 0.0  # out of range -> no reuse
        assert plan.client_reuse() == 0.0


class TestTable2Cases:
    def test_all_cases_defined(self):
        assert sorted(TABLE2_CASES) == [1, 2, 3, 4, 5]

    @pytest.mark.parametrize("case", [1, 2, 3, 4, 5])
    def test_case_builds_and_runs(self, case):
        scenario = table2_case(case, seed=3)
        log = scenario.run(0.5, 4.0)
        sigs = build_application_signatures(log, SignatureConfig())
        assert sigs

    def test_unknown_case_raises(self):
        with pytest.raises(KeyError):
            table2_case(9)

    def test_case5_custom_apps_share_servers(self):
        plans = TABLE2_CASES[5]
        servers_a = {s for _, servers, _ in plans[0].tiers for s in servers}
        servers_b = {s for _, servers, _ in plans[1].tiers for s in servers}
        assert servers_a & servers_b  # S3 and S8 shared, per Table II


class TestScalabilitySim:
    def test_builds_paper_tree(self):
        net, wl = scalability_sim(2, racks=4, servers_per_rack=5)
        assert len(net.topology.hosts()) == 20
        assert len(wl.apps) == 2

    def test_traffic_flows(self):
        net, wl = scalability_sim(2, racks=4, servers_per_rack=5)
        wl.start(0.0, 3.0)
        net.sim.run(until=5.0)
        assert net.flows_delivered > 0
