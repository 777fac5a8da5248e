"""``simulate_tree``: the capture-generation use (``repro simulate``).

Scenario construction -> ``workload.start`` -> ``sim.run`` -> ``save_log``
as a closed single-threaded loop: ``netsim.engine``, ``netsim.network``,
``openflow.flowtable``, ``openflow.controller`` and JSONL *encode*. It
touches no ``core`` or ``service`` code, so a modeling change must leave
it flat, and a simulator change must leave the capture digest and every
exact count identical.
"""

from __future__ import annotations

import gc
import os
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.netsim.engine import Simulator
from repro.netsim.network import Network
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.telemetry import NOOP_TELEMETRY, TelemetryPlane
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FlowKey, Match
from repro.openflow.serialize import save_log

from harness import (
    NO_TRACE,
    TRACED_REPS,
    Outcome,
    Trace,
    fastest,
    file_sha256,
    pct_over,
    repetitions,
    summary,
    timed,
)
from inputs import TREE_DRAIN, tree_scenario

N_APPS = 30
TRAFFIC_S = 6.0

ROOT = "simulate_tree.simulate"
LAYERS = ("netsim.network.build", "netsim.engine.run", "openflow.serialize.encode")


@dataclass
class Inputs:
    seed: int
    duration: float
    path: str
    messages: int
    digest: str


def simulate(
    seed: int,
    duration: float,
    path: str,
    trace: Trace = NO_TRACE,
    metrics: MetricsRegistry = NOOP_REGISTRY,
    telemetry: TelemetryPlane = NOOP_TELEMETRY,
    at_traffic_end: Optional[Callable[[Network], None]] = None,
) -> Tuple[int, Network]:
    """One repetition: scenario construction to capture file closed."""
    with trace.span(ROOT):
        network, workload = trace.call(
            "netsim.network.build", tree_scenario, N_APPS, seed, metrics, telemetry
        )
        workload.start(0.5, duration)
        trace.call("netsim.engine.run", network.sim.run, until=duration)
        if at_traffic_end is not None:
            at_traffic_end(network)
        trace.call("netsim.engine.run", network.sim.run, until=duration + TREE_DRAIN)
        messages = trace.call("openflow.serialize.encode", save_log, network.log, path)
    return messages, network


def setup(seed: int, scale: float, workdir: str) -> Inputs:
    """The workload has no input but its seed: set-up is producing the
    reference capture every timed repetition must reproduce byte for byte
    (which is also what fills the import and allocator caches)."""
    duration = TRAFFIC_S * scale
    path = os.path.join(workdir, "capture.jsonl")
    messages, _ = simulate(seed, duration, path)
    return Inputs(seed, duration, path, messages, file_sha256(path))


def run(inputs: Inputs, seconds: float, out: Outcome) -> None:
    samples: List[float] = []
    events = set()
    for rep in repetitions(seconds):
        elapsed, (messages, network) = timed(
            simulate, inputs.seed, inputs.duration, inputs.path
        )
        out.check(
            messages == inputs.messages and file_sha256(inputs.path) == inputs.digest,
            f"rep {rep}: capture differs from the reference",
        )
        events.add(network.sim.events_processed)
        if rep:
            samples.append(elapsed)
        del network
    out.check(len(events) == 1, f"event counts differ between repetitions: {sorted(events)}")

    simulate_s = fastest(samples)
    out.metrics["msgs_per_s"] = (inputs.messages / simulate_s, "msg/s")
    out.exact["capture_sha256"] = inputs.digest
    out.exact["messages"] = inputs.messages
    out.exact["events"] = sorted(events)[0]
    out.details["simulate_s"] = summary(samples)
    out.details["input"] = {
        "messages": inputs.messages,
        "bytes": os.path.getsize(inputs.path),
    }


def bare_dispatch_us(events: int) -> float:
    """A bare ``Simulator`` dispatching as many no-op callbacks: the
    engine's own cost per event, without any network behind it."""
    sim = Simulator()

    def noop() -> None:
        return None

    for i in range(events):
        sim.schedule_at(i * 1e-6, noop)
    elapsed, _ = timed(sim.run)
    return elapsed / events * 1e6


def flowtable_us_per_op(occupancy: int, rounds: int = 20000) -> float:
    """install / lookup / ``collect_expired`` on a standalone table held
    at ``occupancy`` live microflow entries: one entry is installed per
    tick and idles out ``occupancy`` ticks later, so every sweep removes
    exactly the oldest entry."""
    tick = 1e-3
    idle = occupancy * tick

    def entry(i: int) -> FlowEntry:
        key = FlowKey(src="h1", dst="h2", src_port=i, dst_port=80)
        return FlowEntry(
            match=Match.exact(key), out_port=1, idle_timeout=idle, created_at=i * tick
        )

    table = FlowTable()
    for i in range(occupancy):
        table.install(entry(i))
    began = time.perf_counter()
    for i in range(occupancy, occupancy + rounds):
        now = i * tick
        table.collect_expired(now)
        table.install(entry(i))
        probe = FlowKey(src="h1", dst="h2", src_port=i - occupancy // 2, dst_port=80)
        table.lookup(probe, now)
    elapsed = time.perf_counter() - began
    if len(table) != occupancy:
        raise AssertionError(f"table drifted to {len(table)} entries, wanted {occupancy}")
    return elapsed / (3 * rounds) * 1e6


def run_traced(inputs: Inputs, out: Outcome, results_dir: str) -> None:
    seed, duration, path = inputs.seed, inputs.duration, inputs.path
    occupancy: List[int] = []

    def largest_table(net: Network) -> None:
        occupancy.append(max(len(switch.table) for switch in net.switches.values()))

    # The plain, traced, metered and telemetered variants take turns, so
    # that a noisy minute falls on all of them and not on one.
    trace = Trace()
    plain: List[float] = []
    metered: List[float] = []
    telemetered: List[float] = []
    for rep in range(TRACED_REPS):
        gc.collect()
        plain.append(timed(simulate, seed, duration, path)[0])
        gc.collect()
        trace.rep = rep
        messages, network = simulate(seed, duration, path, trace)
        events = network.sim.events_processed
        del network
        gc.collect()
        registry = MetricsRegistry()
        metered.append(
            timed(
                simulate, seed, duration, path, metrics=registry, at_traffic_end=largest_table
            )[0]
        )
        gc.collect()
        telemetered.append(timed(simulate, seed, duration, path, telemetry=TelemetryPlane())[0])
    plain_s, registry_s, telemetry_s = fastest(plain), fastest(metered), fastest(telemetered)
    gc.collect()
    profile = Trace(profile=True)
    simulate(seed, duration, path, profile)
    gc.collect()

    m = out.metrics
    run_s = trace.total("netsim.engine.run")
    encode_s = trace.total("openflow.serialize.encode")
    m["netsim.network.build_s"] = (trace.total("netsim.network.build"), "s")
    m["netsim.engine.run_s"] = (run_s, "s")
    m["netsim.engine.events"] = (events, "count")
    m["netsim.engine.us_per_event"] = (run_s / events * 1e6, "us")
    m["netsim.engine.dispatch_us_per_event"] = (bare_dispatch_us(events), "us")
    lookups = registry.total("flowtable_lookups_total")
    misses = registry.total("flowtable_misses_total")
    m["openflow.flowtable.lookups"] = (lookups, "count")
    m["openflow.flowtable.misses"] = (misses, "count")
    m["openflow.flowtable.installs"] = (registry.total("flowtable_installs_total"), "count")
    m["openflow.flowtable.expired"] = (registry.total("flowtable_expired_total"), "count")
    m["openflow.flowtable.miss_share"] = (misses / lookups, "ratio")
    m["openflow.flowtable.us_per_op"] = (flowtable_us_per_op(max(1, occupancy[0])), "us")
    m["openflow.controller.packet_ins"] = (
        registry.value("controller_messages_total", kind="packet_in"), "count"
    )
    m["openflow.controller.flow_mods"] = (
        registry.value("controller_messages_total", kind="flow_mod"), "count"
    )
    m["openflow.serialize.encode_s"] = (encode_s, "s")
    m["openflow.serialize.encode_msgs_per_s"] = (messages / encode_s, "msg/s")
    m["openflow.serialize.capture_bytes"] = (os.path.getsize(path), "bytes")
    m["obs.metrics.registry_overhead_pct"] = (pct_over(registry_s, plain_s), "%")
    m["obs.telemetry.overhead_us_per_msg"] = ((telemetry_s - plain_s) / messages * 1e6, "us")
    for name in LAYERS:
        m[f"{name}.py_calls"] = (profile.py_calls[name], "count")
    m["trace.overhead_pct"] = (pct_over(trace.total(ROOT), plain_s), "%")
    m["trace.unattributed_pct"] = (trace.unattributed_pct(ROOT), "%")

    out.check(
        messages == inputs.messages and file_sha256(path) == inputs.digest,
        "profiled capture differs from the reference",
    )
    out.check(m["trace.unattributed_pct"][0] <= 15.0, "more than 15 % of the run is unattributed")
    out.exact.update(
        {k: v[0] for k, v in m.items() if v[1] in ("count", "bytes") and not k.endswith("py_calls")}
    )
    out.exact["table_occupancy_at_traffic_end"] = occupancy[0]
    trace.write(os.path.join(results_dir, "trace-simulate_tree.json"), profile.py_calls)
