"""Prebuilt experiment scenarios shared by examples, tests, and benchmarks.

The paper's evaluation revolves around a handful of recurring setups:

* the lab data center running one or more three-tier applications driven
  by Poisson clients (Sections V-A and V-B), including the five deployment
  cases of Table II;
* the 320-server simulation with N random three-tier apps under ON/OFF
  traffic (Section V-C).

This module packages those so an experiment is three lines: build the
scenario, optionally inject a fault, run and model the log.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.client import WorkloadClient
from repro.apps.multitier import MultiTierApp, TierSpec
from repro.apps.servers import ServerFarm
from repro.apps.services import ServiceDirectory
from repro.faults.base import Fault
from repro.netsim.network import Network, NetworkConfig
from repro.netsim.topology import lab_testbed, paper_tree
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.workload.arrivals import PoissonProcess
from repro.workload.traffic import RandomThreeTierWorkload


@dataclass
class LabScenario:
    """A running lab-testbed deployment: network, apps, clients, services.

    Attributes:
        network: the simulated data center.
        farm: per-server behaviours (fault injection target).
        apps: the deployed applications by name.
        clients: the workload clients driving them.
        services: the shared-service directory (None when not deployed).
    """

    network: Network
    farm: ServerFarm
    apps: Dict[str, MultiTierApp] = field(default_factory=dict)
    clients: List[WorkloadClient] = field(default_factory=list)
    services: Optional[ServiceDirectory] = None

    def special_nodes(self) -> Tuple[str, ...]:
        """The service hosts FlowDiff's grouping must be told about."""
        if self.services is None:
            return ()
        return tuple(sorted(self.services.special_nodes()))

    def run(self, start: float = 0.5, stop: float = 40.0, drain: float = 15.0) -> ControllerLog:
        """Drive every client over ``[start, stop)`` and return the log.

        ``drain`` extra seconds let in-flight requests finish and flow
        entries expire so FlowRemoved counters land in the log.
        """
        for client in self.clients:
            client.run(start, stop)
        self.network.sim.run(until=stop + drain)
        return self.network.log

    def inject(self, fault: Fault, at: float = 0.0, until: Optional[float] = None) -> None:
        """Schedule a fault (relative to simulation time zero)."""
        fault.inject_at(self.network, at, self.farm, until=until)


@dataclass(frozen=True)
class AppPlan:
    """Declarative plan for one application in a lab scenario.

    Attributes:
        name: application name.
        tiers: ``(tier_name, servers, port)`` triples front to back.
        client_hosts: hosts running workload clients.
        request_rate: Poisson request rate per client (req/s).
        reuse: downstream connection-reuse probability — a single float for
            every tier (and the client), or a tuple with one value per tier
            (clients then never reuse), matching the paper's R(m, n)
            notation where reuse applies at specific servers.
        balancer: load-balancing policy for multi-server tiers.
    """

    name: str
    tiers: Tuple[Tuple[str, Tuple[str, ...], int], ...]
    client_hosts: Tuple[str, ...]
    request_rate: float = 10.0
    reuse: object = 0.0
    balancer: str = "round_robin"

    def tier_reuse(self, index: int) -> float:
        """The reuse probability applied at tier ``index``."""
        if isinstance(self.reuse, tuple):
            return self.reuse[index] if index < len(self.reuse) else 0.0
        return float(self.reuse)

    def client_reuse(self) -> float:
        """The client-side connection-reuse probability."""
        return 0.0 if isinstance(self.reuse, tuple) else float(self.reuse)


#: The five deployment cases of Table II (server numbers as in the paper).
TABLE2_CASES: Dict[int, Tuple[AppPlan, ...]] = {
    1: (
        AppPlan(
            "rubbis-a",
            (("web", ("S13",), 80), ("app", ("S4",), 8009), ("db", ("S14", "S15"), 3306)),
            ("S25",),
        ),
        AppPlan(
            "rubbis-b",
            (("web", ("S12",), 80), ("app", ("S10",), 8009), ("db", ("S20",), 3306)),
            ("S24",),
        ),
        AppPlan(
            "oscommerce",
            (("web", ("S7",), 80), ("app", ("S10",), 8010), ("db", ("S20",), 3307)),
            ("S23",),
        ),
    ),
    2: (
        AppPlan(
            "rubbis",
            (("web", ("S12",), 80), ("app", ("S4",), 8009), ("db", ("S14", "S15"), 3306)),
            ("S25",),
        ),
        AppPlan(
            "oscommerce",
            (("web", ("S7",), 80), ("app", ("S10",), 8010), ("db", ("S20",), 3307)),
            ("S23",),
        ),
    ),
    3: (
        AppPlan(
            "rubbis",
            (("web", ("S12",), 80), ("app", ("S4",), 8009), ("db", ("S14", "S15"), 3306)),
            ("S25",),
        ),
        AppPlan(
            "rubbos",
            (("web", ("S12",), 81), ("app", ("S10",), 8011), ("db", ("S20",), 3308)),
            ("S24",),
        ),
    ),
    4: (
        AppPlan(
            "rubbis",
            (("web", ("S12",), 80), ("app", ("S4",), 8009), ("db", ("S14", "S15"), 3306)),
            ("S25",),
        ),
        AppPlan(
            "petstore",
            (("web", ("S16",), 80), ("app", ("S25",), 8009), ("db", ("S19",), 3306)),
            ("S24",),
        ),
    ),
    5: (
        AppPlan(
            "custom-a",
            (("web", ("S1",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
            ("S22",),
        ),
        AppPlan(
            "custom-b",
            (("web", ("S2",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
            ("S21",),
        ),
        AppPlan(
            "custom-c",
            (("web", ("S5",), 80), ("app", ("S11", "S17"), 8009), ("db", ("S18", "S6"), 3306)),
            ("S23",),
        ),
    ),
}


def three_tier_lab(
    plans: Sequence[AppPlan] = (),
    seed: int = 3,
    app_delay: float = 0.06,
    web_delay: float = 0.01,
    db_delay: float = 0.005,
    with_services: bool = False,
    network_config: Optional[NetworkConfig] = None,
    response_sizes: Tuple[int, int, int] = (16000, 8000, 6000),
    metrics: MetricsRegistry = NOOP_REGISTRY,
) -> LabScenario:
    """Build the lab testbed with the given application plans.

    Args:
        plans: applications to deploy (defaults to Table II case 5's first
            custom app when empty).
        seed: base RNG seed; apps and clients derive their own streams.
        app_delay: mean processing delay at middle-tier servers (the 60 ms
            ground truth of Figure 10).
        web_delay / db_delay: front/back tier processing delays.
        with_services: also deploy the shared DNS/NFS/NTP/DHCP services.
        network_config: optional substrate tuning.
        response_sizes: per-tier response sizes (web, app, db).
        metrics: observability registry threaded into the simulator,
            switches, and controller (defaults to the no-op registry).
    """
    if not plans:
        plans = (
            AppPlan(
                "custom",
                (("web", ("S1",), 80), ("app", ("S3",), 8009), ("db", ("S8",), 3306)),
                ("S22",),
            ),
        )
    topo = lab_testbed()
    services = None
    if with_services:
        services = ServiceDirectory.standard()
        services.register_into(topo, attach_to="ofs1")
    network = Network(topo, config=network_config, metrics=metrics)
    farm = ServerFarm()
    scenario = LabScenario(network=network, farm=farm, services=services)

    tier_delays = {"web": web_delay, "app": app_delay, "db": db_delay}
    for i, plan in enumerate(plans):
        tier_specs = []
        for j, (tier_name, servers, port) in enumerate(plan.tiers):
            for server in servers:
                farm.set_delay(
                    server,
                    tier_delays.get(tier_name, app_delay),
                    tier_delays.get(tier_name, app_delay) / 12.0,
                )
            tier_specs.append(
                TierSpec(
                    name=tier_name,
                    servers=tuple(servers),
                    port=port,
                    reuse_prob=plan.tier_reuse(j),
                    balancer=plan.balancer,
                    response_size=response_sizes[min(j, len(response_sizes) - 1)],
                )
            )
        app = MultiTierApp(
            plan.name,
            tier_specs,
            network,
            farm,
            seed=seed + 101 * i,
            services=services,
            dns_lookup_prob=0.1 if with_services else 0.0,
        )
        scenario.apps[plan.name] = app
        for k, host in enumerate(plan.client_hosts):
            scenario.clients.append(
                WorkloadClient(
                    host,
                    app,
                    PoissonProcess(
                        plan.request_rate, random.Random(seed + 13 * i + k)
                    ),
                    reuse_prob=plan.client_reuse(),
                )
            )
    return scenario


def table2_case(case: int, seed: int = 3, **kwargs) -> LabScenario:
    """The lab deployment for one of Table II's five cases.

    Raises:
        KeyError: for a case number outside 1..5.
    """
    return three_tier_lab(TABLE2_CASES[case], seed=seed, **kwargs)


def scalability_sim(
    n_apps: int,
    seed: int = 11,
    reuse_prob: float = 0.6,
    racks: int = 16,
    servers_per_rack: int = 20,
    metrics: MetricsRegistry = NOOP_REGISTRY,
) -> Tuple[Network, RandomThreeTierWorkload]:
    """The Section V-C setup: the 320-server tree plus N random apps.

    ECMP is enabled so flows spread across the tree's dual aggregation
    and core switches as they would in a production multi-rooted fabric.
    """
    topo = paper_tree(racks=racks, servers_per_rack=servers_per_rack)
    network = Network(
        topo,
        config=NetworkConfig(seed=seed, ecmp=True),
        metrics=metrics,
    )
    workload = RandomThreeTierWorkload(
        network, n_apps=n_apps, seed=seed, reuse_prob=reuse_prob
    )
    return network, workload
