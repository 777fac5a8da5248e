"""``stream_clean`` / ``stream_dirty``: the always-on use (``repro serve``).

Two tenants replay lab captures through one ``StreamService``. The
untraced run is a closed loop (blocking ``feed``, fresh service per
pass): ingest throughput with baseline learning included. The traced run
adds an open loop at a fixed aggregate rate: for each closed window, how
long after the message that ends it was *due* did the report reach an
alert rule. That lag wanders 10-25 % from run to run on a shared box (the
service idles 80 % of the phase and pays wake-up and cold-cache costs),
which is too loose for a gate, so it is a layer number.

The two workloads differ in one input property. ``stream_clean`` is in
timestamp order, so every window closes through the incremental
``merged`` path. ``stream_dirty`` carries seeded neighbour swaps in every
window, so every window goes ``dirty="out_of_order"`` and closes through
the batch ``fallback``. Same layer, used differently: eager per-message
work that speeds the merged path is paid for here.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.monitor import WindowReport
from repro.core.signatures.application import SignatureConfig
from repro.obs.alerts import Alert, AlertEngine, AlertRule, default_rules
from repro.obs.metrics import MetricsRegistry
from repro.openflow.messages import ControlMessage
from repro.openflow.serialize import message_to_json
from repro.service import (
    STATUS_FALLBACK,
    STATUS_MERGED,
    STATUS_REBUILT,
    FileTailSource,
    IncrementalWindow,
    ServiceState,
    StreamService,
    TenantPipeline,
)
from repro.service.tenant import PHASE_BASELINE

from harness import (
    NO_TRACE,
    TRACED_REPS,
    Outcome,
    Trace,
    fastest,
    pct_over,
    percentile,
    repetitions,
    summary,
    timed,
)
from inputs import (
    LAB_BASELINE,
    LAB_SLICES,
    LAB_WINDOW,
    WindowKey,
    lab_capture,
    reference_windows,
    swap_adjacent,
    window_bounds,
    window_key,
)

TRAFFIC_S = 150.0
TENANTS = 2
CLOSED_BATCH = 1024
OPEN_BATCH = 256
OPEN_RATE = 30000.0
OPEN_PASSES = 2

ROOT = "stream.direct_pass"

#: (tenant, batch) in the order the producer sends them.
Batches = List[Tuple[str, List[ControlMessage]]]
#: (tenant, report, wall time the tap saw it)
Sink = List[Tuple[str, WindowReport, float]]


@dataclass
class Inputs:
    dirty: bool
    #: scratch directory of this set-up, for the passes that write files
    workdir: str
    #: per tenant, the stream time its fault starts
    fault_at: Dict[str, float] = field(default_factory=dict)
    #: per tenant, in the order fed (time order; with swaps when dirty)
    captures: Dict[str, List[ControlMessage]] = field(default_factory=dict)
    #: per tenant, in time order (what the batch monitor reads)
    ordered: Dict[str, List[ControlMessage]] = field(default_factory=dict)
    reference: Dict[str, List[WindowReport]] = field(default_factory=dict)
    reference_s: float = 0.0
    swaps: int = 0

    @property
    def messages(self) -> int:
        return sum(len(c) for c in self.captures.values())

    @property
    def windows(self) -> int:
        return sum(len(r) for r in self.reference.values())


def setup(seed: int, scale: float, workdir: str, dirty: bool) -> Inputs:
    duration = TRAFFIC_S * scale
    inputs = Inputs(dirty=dirty, workdir=workdir)
    for i in range(TENANTS):
        name = f"tenant{i}"
        # Tenants start a fraction of a window apart, so their windows do
        # not end together: with aligned windows every second report waits
        # for the other tenant's close and the lag distribution splits in
        # two halves with the median on the seam.
        start = 0.5 + i * LAB_WINDOW / TENANTS
        inputs.fault_at[name] = start + duration / 2.0
        ordered = lab_capture(seed + i, start, duration, inputs.fault_at[name])
        inputs.ordered[name] = inputs.captures[name] = ordered
        if dirty:
            inputs.captures[name], swaps = swap_adjacent(ordered, seed + i)
            inputs.swaps += swaps
        elapsed, inputs.reference[name] = timed(reference_windows, ordered)
        inputs.reference_s += elapsed
    return inputs


class Tap(AlertRule):
    """A benchmark-owned rule: notes when each window report arrives."""

    def __init__(self, tenant: str, sink: Sink) -> None:
        super().__init__(f"bench-tap-{tenant}")
        self.tenant = tenant
        self.sink = sink

    def observe_window(self, report: WindowReport) -> List[Alert]:
        self.sink.append((self.tenant, report, time.perf_counter()))
        return []


def interleave(inputs: Inputs, size: int) -> Batches:
    """Round-robin batches of ``size`` across the tenants."""
    longest = max(len(c) for c in inputs.captures.values())
    return [
        (name, capture[lo : lo + size])
        for lo in range(0, longest, size)
        for name, capture in inputs.captures.items()
        if lo < len(capture)
    ]


def start_service(inputs: Inputs, sink: Sink) -> StreamService:
    service = StreamService(
        window=LAB_WINDOW, baseline_span=LAB_BASELINE, slices=LAB_SLICES
    )
    for name in inputs.captures:
        service.add_tenant(
            name, alert_engine=AlertEngine(default_rules() + [Tap(name, sink)])
        )
    service.start()
    # Load comes from one process on two cores: the producer (this
    # thread) and the service's drain thread, nothing else.
    if threading.active_count() != 2:
        raise RuntimeError(f"unexpected threads: {threading.enumerate()}")
    return service


@dataclass
class FeedProbe:
    """What the producer sees of the hand-off, one entry per ``feed``."""

    feed_s: List[float] = field(default_factory=list)
    depth: List[float] = field(default_factory=list)
    drain_wait_s: float = 0.0


def closed_pass(
    inputs: Inputs, batches: Batches, probe: Optional[FeedProbe] = None
) -> Tuple[float, int, StreamService, Sink]:
    """Phase A: feed everything through a fresh service, blocking."""
    sink: Sink = []
    service = start_service(inputs, sink)
    accepted = 0
    began = time.perf_counter()
    if probe is None:
        for tenant, batch in batches:
            accepted += service.feed(tenant, batch)
        service.drain()
    else:
        for tenant, batch in batches:
            t0 = time.perf_counter()
            accepted += service.feed(tenant, batch)
            probe.feed_s.append(time.perf_counter() - t0)
            probe.depth.append(service.metrics.value("service_queue_depth"))
        probe.drain_wait_s, _ = timed(service.drain)
    elapsed = time.perf_counter() - began
    service.stop()
    return elapsed, accepted, service, sink


def open_pass(
    inputs: Inputs, batches: Batches
) -> Tuple[List[float], float, int, StreamService, Sink]:
    """Phase B: send batch ``k`` at ``k * OPEN_BATCH / OPEN_RATE`` whatever
    the service does. Returns the per-window lags (ms, counted from the due
    time of the batch that ends the window, so a stalled producer is
    charged) and how late the generator itself ran at worst (ms)."""
    sink: Sink = []
    service = start_service(inputs, sink)
    interval = OPEN_BATCH / OPEN_RATE
    accepted = 0
    late = 0.0
    began = time.perf_counter()
    for k, (tenant, batch) in enumerate(batches):
        due = began + k * interval
        wait = due - time.perf_counter()
        if wait > 0:
            time.sleep(wait)
        late = max(late, time.perf_counter() - due)
        accepted += service.feed(tenant, batch)
    service.drain()
    service.stop()

    sent_as: Dict[str, List[int]] = {name: [] for name in inputs.captures}
    for k, (tenant, _) in enumerate(batches):
        sent_as[tenant].append(k)
    lags: List[float] = []
    for name, capture in inputs.captures.items():
        i = 0
        for tenant, report, seen in sink:
            if tenant != name:
                continue
            while capture[i].timestamp < report.t_end:
                i += 1
            due = began + sent_as[name][i // OPEN_BATCH] * interval
            lags.append((seen - due) * 1000.0)
    return lags, late * 1000.0, accepted, service, sink


def verify(
    inputs: Inputs, accepted: int, service: StreamService, sink: Sink, out: Outcome, what: str
) -> None:
    """Every window against the batch monitor; every message delivered."""
    for name, reference in inputs.reference.items():
        got = [window_key(report) for tenant, report, _ in sink if tenant == name]
        want = [window_key(report) for report in reference]
        out.check(len(got) == len(want), f"{what} {name}: {len(got)} windows, reference {len(want)}")
        for mine, theirs in zip(got, want):
            out.check(mine == theirs, f"{what} {name}: window {mine} != reference {theirs}")
    dropped = service.metrics.total("service_dropped_total")
    errors = service.recent_errors()
    out.check(
        accepted == inputs.messages and dropped == 0 and not errors,
        f"{what}: accepted {accepted}/{inputs.messages}, dropped {dropped}, errors {errors}",
    )


def run(inputs: Inputs, seconds: float, out: Outcome) -> None:
    closed = interleave(inputs, CLOSED_BATCH)
    passes: List[float] = []
    for rep in repetitions(seconds):
        elapsed, accepted, service, sink = closed_pass(inputs, closed)
        verify(inputs, accepted, service, sink, out, f"closed pass {rep}")
        if rep:
            passes.append(elapsed)
        del service, sink

    ingest_s = fastest(passes)
    out.metrics["msgs_per_s"] = (inputs.messages / ingest_s, "msg/s")
    out.exact.update(exact_counts(inputs))
    out.details["ingest_s"] = summary(passes)
    out.details["input"] = {
        "messages": inputs.messages,
        "windows": inputs.windows,
        "swaps": inputs.swaps,
    }


def exact_counts(inputs: Inputs) -> Dict[str, Any]:
    keys: List[WindowKey] = [
        window_key(r) for name in sorted(inputs.reference) for r in inputs.reference[name]
    ]
    return {
        "messages": inputs.messages,
        "windows": inputs.windows,
        "swaps": inputs.swaps,
        "windows_digest": hashlib.sha256(repr(keys).encode("utf-8")).hexdigest(),
    }


# -- per-layer drivers ----------------------------------------------------


def direct_pass(
    inputs: Inputs, trace: Trace = NO_TRACE, checkpoint_dir: Optional[str] = None
) -> Tuple[float, Dict[str, TenantPipeline]]:
    """``TenantPipeline.ingest`` called directly, no queue and no thread.

    Each call is one span, named after what it turned out to do: plain
    ingest, baseline learning, or closing at least one window.
    """
    pipelines: Dict[str, TenantPipeline] = {}
    began = time.perf_counter()
    with trace.span(ROOT):
        for name, capture in inputs.captures.items():
            pipeline = pipelines[name] = TenantPipeline(
                name,
                window=LAB_WINDOW,
                baseline_span=LAB_BASELINE,
                slices=LAB_SLICES,
                metrics=MetricsRegistry(),
                alert_engine=AlertEngine(default_rules()),
                checkpoint_dir=checkpoint_dir,
            )
            for lo in range(0, len(capture), CLOSED_BATCH):
                batch = capture[lo : lo + CLOSED_BATCH]
                learning = pipeline.phase == PHASE_BASELINE
                reports = trace.call("service.tenant.ingest", pipeline.ingest, batch)
                if reports:
                    trace.relabel("service.tenant.close", messages=len(batch), windows=len(reports))
                elif learning and pipeline.phase != PHASE_BASELINE:
                    trace.relabel("service.tenant.baseline_learn", messages=len(batch))
                else:
                    trace.relabel(messages=len(batch))
    return time.perf_counter() - began, pipelines


def incremental_pass(capture: Sequence[ControlMessage], trace: Trace) -> None:
    """A standalone ``IncrementalWindow`` per diagnosis window: add every
    message, close, materialise the log. The first window has no expected
    groups and so rebuilds; the rest inherit the previous window's."""
    bounds = window_bounds(capture)
    cells: Dict[int, List[ControlMessage]] = {}
    for message in capture:
        cells.setdefault(bisect_right(bounds, message.timestamp), []).append(message)
    expected: Tuple[Any, ...] = ()
    for cell in range(1, len(bounds) - 1):
        window = IncrementalWindow(
            bounds[cell - 1], bounds[cell], SignatureConfig(), LAB_SLICES, expected
        )
        members = cells.get(cell, [])

        def add_all() -> None:
            for message in members:
                window.add(message)

        trace.call("service.incremental.add", add_all)
        trace.relabel(messages=len(members))
        outcome = trace.call("service.incremental.close", window.close)
        trace.call("service.incremental.as_log", window.as_log)
        if outcome is not None:
            expected = outcome.groups


def tail_pass(inputs: Inputs) -> float:
    """The bytes-in path of ``repro serve``: one tenant's capture tailed
    from a JSONL file to EOF. Returns messages per second."""
    name, capture = next(iter(inputs.captures.items()))
    path = os.path.join(inputs.workdir, "tail.jsonl")
    # Not ``save_log``: a ``ControllerLog`` sorts, which would undo the swaps.
    with open(path, "w", encoding="utf-8") as fh:
        for message in capture:
            fh.write(json.dumps(message_to_json(message)) + "\n")
    service = start_service(inputs, [])
    began = time.perf_counter()
    FileTailSource(service, name, path, batch_size=OPEN_BATCH, follow=False).run()
    service.drain()
    elapsed = time.perf_counter() - began
    service.stop()
    return len(capture) / elapsed


def route_us_p50(service: StreamService, rounds: int = 30) -> float:
    """Health, alerts and diff handlers of a drained service, in-process."""
    state = ServiceState(service)
    tenant = next(iter(service.tenant_items()))[0]
    query = {"tenant": [tenant], "n": ["5"]}
    samples: List[float] = []
    for _ in range(rounds):
        samples.append(timed(state.health)[0])
        samples.append(timed(state.alerts_json)[0])
        samples.append(timed(state.routes["/diff"], query)[0])
    return median(samples) * 1e6


def observe_window_us(inputs: Inputs) -> float:
    engine = AlertEngine(default_rules())
    reports = [r for history in inputs.reference.values() for r in history]
    elapsed, _ = timed(lambda: [engine.observe_window(r) for r in reports])
    return elapsed / len(reports) * 1e6


def run_traced(inputs: Inputs, out: Outcome, results_dir: str) -> None:
    workload = "stream_dirty" if inputs.dirty else "stream_clean"
    closed = interleave(inputs, CLOSED_BATCH)
    capture = next(iter(inputs.captures.values()))

    # Daemon, direct, traced and checkpointing passes take turns, so that
    # a noisy minute falls on all of them and not on one.
    closed_pass(inputs, closed)
    trace = Trace()
    daemon: List[float] = []
    direct: List[float] = []
    traced: List[float] = []
    checkpointed: List[float] = []
    for rep in range(TRACED_REPS):
        gc.collect()
        daemon.append(closed_pass(inputs, closed)[0])
        gc.collect()
        direct.append(direct_pass(inputs)[0])
        gc.collect()
        trace.rep = rep
        elapsed, pipelines = direct_pass(inputs, trace)
        traced.append(elapsed)
        gc.collect()
        incremental_pass(capture, trace)
        gc.collect()
        checkpoint_dir = os.path.join(inputs.workdir, f"checkpoints{rep}")
        os.makedirs(checkpoint_dir)
        checkpointed.append(direct_pass(inputs, checkpoint_dir=checkpoint_dir)[0])
    daemon_s, direct_s = fastest(daemon), fastest(direct)
    checkpoint_bytes = sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(checkpoint_dir)
        for name in names
    )

    probe = FeedProbe()
    gc.collect()
    probed_s, accepted, service, sink = closed_pass(inputs, closed, probe)
    verify(inputs, accepted, service, sink, out, "probed pass")
    route_us = route_us_p50(service)
    del service, sink
    gc.collect()

    opened = interleave(inputs, OPEN_BATCH)
    lags: List[float] = []
    late_ms = 0.0
    for rep in range(OPEN_PASSES):
        more, late, accepted, service, sink = open_pass(inputs, opened)
        verify(inputs, accepted, service, sink, out, f"open pass {rep}")
        lags.extend(more)
        late_ms = max(late_ms, late)
        del service, sink
        gc.collect()

    profile = Trace(profile=True)
    direct_pass(inputs, profile)
    incremental_pass(capture, profile)
    for ordered in inputs.ordered.values():
        profile.call("core.monitor.batch_windows", reference_windows, ordered)

    m = out.metrics
    m["service.tenant.ingest_us_per_msg"] = (
        trace.total("service.tenant.ingest")
        / trace.count("service.tenant.ingest", "messages") * 1e6,
        "us",
    )
    closes = [d * 1000.0 for d in trace.durations("service.tenant.close")]
    m["service.tenant.close_ms_p50"] = (median(closes), "ms")
    m["service.tenant.close_ms_p90"] = (percentile(closes, 0.9), "ms")
    m["service.tenant.baseline_learn_s"] = (trace.total("service.tenant.baseline_learn"), "s")
    statuses = {STATUS_MERGED: 0, STATUS_REBUILT: 0, STATUS_FALLBACK: 0}
    wrong = windows = 0
    for name, pipeline in pipelines.items():
        for status, count in pipeline.status_counts.items():
            statuses[status] += count
        for entry in pipeline.history:
            windows += 1
            wrong += entry.healthy == (entry.t_end > inputs.fault_at[name])
    m["service.tenant.windows"] = (windows, "count")
    m["service.tenant.merged"] = (statuses[STATUS_MERGED], "count")
    m["service.tenant.rebuilt"] = (statuses[STATUS_REBUILT], "count")
    m["service.tenant.fallback"] = (statuses[STATUS_FALLBACK], "count")
    m["service.tenant.merged_share"] = (statuses[STATUS_MERGED] / windows, "ratio")
    m["service.tenant.checkpoint_overhead_pct"] = (pct_over(fastest(checkpointed), direct_s), "%")
    m["service.tenant.checkpoint_bytes"] = (checkpoint_bytes, "bytes")
    m["service.incremental.add_us_per_msg"] = (
        trace.total("service.incremental.add")
        / trace.count("service.incremental.add", "messages") * 1e6,
        "us",
    )
    m["service.incremental.close_ms"] = (
        median(trace.durations("service.incremental.close")) * 1000.0, "ms"
    )
    m["service.incremental.as_log_ms"] = (
        median(trace.durations("service.incremental.as_log")) * 1000.0, "ms"
    )
    m["service.daemon.feed_us_per_batch"] = (median(probe.feed_s) * 1e6, "us")
    m["service.daemon.blocked_share"] = (sum(probe.feed_s) / probed_s, "ratio")
    m["service.daemon.queue_depth_max"] = (max(probe.depth), "count")
    m["service.daemon.drain_wait_s"] = (probe.drain_wait_s, "s")
    m["service.daemon.queue_overhead_pct"] = (pct_over(daemon_s, direct_s), "%")
    m["service.daemon.window_lag_ms_p50"] = (median(lags), "ms")
    m["service.daemon.window_lag_ms_p90"] = (percentile(lags, 0.9), "ms")
    m["service.daemon.generator_late_ms_max"] = (late_ms, "ms")
    m["service.daemon.tail_msgs_per_s"] = (tail_pass(inputs), "msg/s")
    m["core.monitor.batch_windows_s"] = (inputs.reference_s, "s")
    m["core.monitor.batch_msgs_per_s"] = (inputs.messages / inputs.reference_s, "msg/s")
    m["core.monitor.verdict_error_share"] = (wrong / windows, "ratio")
    m["obs.alerts.observe_window_us"] = (observe_window_us(inputs), "us")
    m["service.http.route_us_p50"] = (route_us, "us")
    m["service.tenant.py_calls"] = (profile.py_calls["service.tenant.ingest"], "count")
    m["service.incremental.py_calls"] = (
        sum(profile.py_calls[f"service.incremental.{part}"] for part in ("add", "close", "as_log")),
        "count",
    )
    m["core.monitor.py_calls"] = (profile.py_calls["core.monitor.batch_windows"], "count")
    m["trace.overhead_pct"] = (pct_over(fastest(traced), direct_s), "%")
    m["trace.unattributed_pct"] = (trace.unattributed_pct(ROOT), "%")

    expected_share = 0.0 if inputs.dirty else 1.0
    out.check(
        m["service.tenant.merged_share"][0] == expected_share and windows == inputs.windows,
        f"statuses {statuses} over {windows} windows (reference {inputs.windows})",
    )
    out.check(m["trace.unattributed_pct"][0] <= 15.0, "more than 15 % of the run is unattributed")
    out.exact.update(exact_counts(inputs))
    out.exact.update({f"service.tenant.{k}": v for k, v in statuses.items()})
    out.exact["verdict_errors"] = wrong
    out.details["daemon_pass_s"] = summary(daemon)
    out.details["direct_pass_s"] = summary(direct)
    out.details["window_lag_ms"] = summary(lags)
    out.details["open_rate_msgs_per_s"] = OPEN_RATE
    trace.write(os.path.join(results_dir, f"trace-{workload}.json"), profile.py_calls)
