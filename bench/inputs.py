"""Seeded input generators: every byte the program sees comes from here.

The seed drives placement, traffic, the fault victim and the swap
positions; nothing else does. Sizes are fixed by the workload modules
(and ``--scale``), never by the seed: tier sizes on the tree are pinned
because the stock 1-3 VMs per tier moved the capture size by +-8 %
across seeds, which is more than the regression bound.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import List, Sequence, Tuple

from repro.core.monitor import SlidingDiagnoser, WindowReport
from repro.faults import HostShutdown, LoggingMisconfig
from repro.netsim.network import Network, NetworkConfig
from repro.netsim.topology import paper_tree
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.telemetry import NOOP_TELEMETRY, TelemetryPlane
from repro.openflow.log import ControllerLog
from repro.openflow.messages import ControlMessage
from repro.scenarios import three_tier_lab
from repro.workload.traffic import RandomThreeTierWorkload

#: Two VMs in every tier: 8 communicating pairs per application.
TREE_TIERS = ((2, 2), (2, 2), (2, 2))
TREE_DRAIN = 3.0
TREE_REUSE = 0.6

LAB_WINDOW = 10.0
LAB_BASELINE = 30.0
LAB_SLICES = 4
LAB_DRAIN = 10.0

#: (t_start, t_end, healthy, problem classes) of one diagnosed window.
WindowKey = Tuple[float, float, bool, Tuple[str, ...]]


def tree_scenario(
    n_apps: int,
    seed: int,
    metrics: MetricsRegistry = NOOP_REGISTRY,
    telemetry: TelemetryPlane = NOOP_TELEMETRY,
) -> Tuple[Network, RandomThreeTierWorkload]:
    """``scalability_sim`` (320-server ECMP tree, ON/OFF-lognormal pairs)
    with the tier sizes pinned."""
    network = Network(
        paper_tree(),
        config=NetworkConfig(seed=seed, ecmp=True),
        metrics=metrics,
        telemetry=telemetry,
    )
    workload = RandomThreeTierWorkload(
        network,
        n_apps=n_apps,
        seed=seed,
        reuse_prob=TREE_REUSE,
        tier_sizes=TREE_TIERS,
    )
    return network, workload


def tree_capture(
    n_apps: int, seed: int, duration: float, shutdown_victim: bool
) -> Tuple[ControllerLog, str]:
    """One tree capture and the victim host (app1's first app-tier VM)."""
    network, workload = tree_scenario(n_apps, seed)
    victim = workload.apps[0].app[0]
    if shutdown_victim:
        HostShutdown(victim).inject_at(network, 0.0)
    workload.start(0.5, duration)
    network.sim.run(until=duration + TREE_DRAIN)
    return network.log, victim


def lab_capture(
    seed: int, start: float, duration: float, fault_at: float
) -> List[ControlMessage]:
    """One three-tier app on the lab testbed, Poisson 10 req/s over
    ``[start, start + duration)``, with the logging misconfiguration
    switched on at ``fault_at``."""
    scenario = three_tier_lab(seed=seed)
    scenario.inject(LoggingMisconfig("S3", 0.05), at=fault_at)
    return list(scenario.run(start, start + duration, drain=LAB_DRAIN))


def window_bounds(messages: Sequence[ControlMessage]) -> List[float]:
    """The tenant's boundaries: baseline end, then every window end,
    accumulated the way ``TenantPipeline`` accumulates its cursor."""
    bounds = [messages[0].timestamp + LAB_BASELINE]
    last = max(m.timestamp for m in messages)
    while bounds[-1] <= last:
        bounds.append(bounds[-1] + LAB_WINDOW)
    return bounds


def swap_adjacent(
    messages: Sequence[ControlMessage], seed: int, per_window: int = 3
) -> Tuple[List[ControlMessage], int]:
    """Swap seeded pairs of neighbours inside every diagnosis window.

    A pair has distinct timestamps (so the swap really is out of order),
    never straddles a window boundary (so nothing becomes a late drop and
    the time-sorted capture is unchanged), and pairs never overlap.
    Returns the reordered capture and the number of swaps made.
    """
    rng = random.Random(seed)
    out = list(messages)
    bounds = window_bounds(out)
    cells: dict = {}
    for i in range(1, len(out) - 1):
        a, b = out[i].timestamp, out[i + 1].timestamp
        cell = bisect_right(bounds, a)
        if cell >= 1 and a < b and cell == bisect_right(bounds, b):
            cells.setdefault(cell, []).append(i)
    swaps = 0
    for cell in sorted(cells):
        taken: List[int] = []
        for i in rng.sample(cells[cell], len(cells[cell])):
            if all(abs(i - j) >= 2 for j in taken):
                taken.append(i)
                if len(taken) == per_window:
                    break
        for i in taken:
            out[i], out[i + 1] = out[i + 1], out[i]
        swaps += len(taken)
    return out, swaps


def reference_windows(messages: Sequence[ControlMessage]) -> List[WindowReport]:
    """The single-threaded batch monitor over the time-sorted capture:
    what every streamed window is compared with."""
    log = ControllerLog(messages)
    diagnoser = SlidingDiagnoser(window=LAB_WINDOW)
    t_first, _ = log.time_span
    diagnoser.set_baseline(log, t_first, t_first + LAB_BASELINE)
    diagnoser.advance(log)
    return diagnoser.history


def window_key(entry: WindowReport) -> WindowKey:
    return (
        entry.t_start,
        entry.t_end,
        entry.healthy,
        tuple(sorted(p.problem for p in entry.report.problems)),
    )
