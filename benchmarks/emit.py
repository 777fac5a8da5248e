"""Emit the machine-readable perf baseline: ``BENCH_pipeline.json``.

Runs the fixed seeded scenario (the same one the microbenchmarks use),
profiles a full model + diff pass with the :mod:`repro.obs` tracer, and
writes the phase timings as JSON at the repository root. Every PR from
this one onward regenerates the file, so the perf trajectory of the
pipeline is diffable commit to commit without parsing pytest-benchmark
output.

Run directly (``python benchmarks/emit.py [--out PATH]``) or let the
benchmark suite's ``pytest_sessionfinish`` hook produce it as a side
effect of a normal benchmark run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Any, Dict

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_pipeline.json")

#: The fixed scenario: seed and capture duration of the profiled run.
BENCH_SEED = 3
BENCH_DURATION = 30.0

#: The ingest-throughput floor the ``repro runs gate`` CI job enforces:
#: the pre-campaign end-to-end simulation rate (telemetry plane on) and
#: the explicit speedup target of the raw-speed campaign. The floor is
#: carried inside the emitted ``throughput`` section, so the gate reads
#: it from the committed baseline rather than hard-coding it twice.
INGEST_BASELINE_MSG_S = 15_711
INGEST_TARGET_X = 3.0
INGEST_MIN_MSG_S = round(INGEST_BASELINE_MSG_S * INGEST_TARGET_X)

#: The streaming-service floor: sustained control-message ingest through
#: the multi-tenant daemon queue (baseline learning and per-window
#: incremental diagnosis included), aggregated across
#: ``SERVICE_TENANTS`` concurrent tenants. ``repro runs gate`` enforces
#: it from the committed baseline's ``throughput.service`` section.
SERVICE_MIN_MSG_S = 100_000
SERVICE_TENANTS = 2
SERVICE_WINDOW_S = 10.0


def _median(samples: "list[float]") -> float:
    """The sample median (midpoint mean for even counts)."""
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _spread_pct(samples: "list[float]") -> float:
    """Repeat spread relative to the median, in percent.

    This is the run's *noise floor*: any overhead or regression claim
    smaller than the spread of identical repeats is indistinguishable
    from scheduler jitter and must not be read as a real delta.
    """
    mid = _median(samples)
    if mid <= 0:
        return 0.0
    return (max(samples) - min(samples)) / mid * 100.0


def _overhead_fields(raw_pct: float, noise_floor_pct: float) -> Dict[str, float]:
    """Noise-aware reported overhead: the shared fields of every
    overhead bench.

    Instrumentation cannot make code faster, so a negative measured
    overhead is scheduler luck by construction. When the negative value
    sits inside the repeat noise floor it is reported as ``0.0`` — the
    raw median ratio stays visible as ``overhead_raw_pct`` — instead of
    publishing a nonsense number like the ``-6.72%`` an earlier baseline
    carried. A negative value *beyond* the floor is deliberately left
    unclamped: that shape means the bench itself is broken (wrong legs
    compared, warm-up asymmetry), and the microbench floor assertion
    (``overhead_pct >= -noise_floor_pct``) must fail loudly rather than
    have the clamp paper over it.
    """
    clamped = raw_pct
    if raw_pct < 0 and -raw_pct <= noise_floor_pct:
        clamped = 0.0
    return {
        "overhead_pct": round(clamped, 3),
        "overhead_raw_pct": round(raw_pct, 3),
        "noise_floor_pct": round(noise_floor_pct, 3),
    }


def run_obs_overhead_bench(
    log: Any = None,
    seed: int = BENCH_SEED,
    duration: float = BENCH_DURATION,
    repeats: int = 5,
) -> Dict[str, Any]:
    """Time model+diff with observability off (no-ops) vs on (real
    registry + tracer); return both timings and the relative overhead.

    Median-of-``repeats`` on each side, interleaved so host noise lands
    on both legs. An earlier min-of-repeats version of this bench
    regularly reported *negative* overhead — two independent minima pick
    each side's luckiest sample, and the luckier lucky sample wins — so
    the ratio now comes from medians, the repeat spread is recorded
    explicitly as ``noise_floor_pct``, and residual within-floor
    negatives are zeroed by :func:`_overhead_fields`. The contract this
    guards: the
    instrumented path must stay within a few percent of the no-op path
    (asserted <5% by the microbench suite), because the sliding
    diagnoser runs instrumented in production.
    """
    from repro import FlowDiff
    from repro.obs import MetricsRegistry, Tracer
    from repro.scenarios import three_tier_lab

    if log is None:
        log = three_tier_lab(seed=seed).run(0.5, duration)

    def one_pass(fd: "FlowDiff") -> float:
        started = time.perf_counter()
        baseline = fd.model(log)
        current = fd.model(log, assess=False)
        fd.diff(baseline, current)
        return time.perf_counter() - started

    noop_samples: list = []
    instrumented_samples: list = []
    for _ in range(max(1, repeats)):
        noop_samples.append(one_pass(FlowDiff()))
        instrumented_samples.append(
            one_pass(FlowDiff(metrics=MetricsRegistry(), tracer=Tracer()))
        )
    noop_s = _median(noop_samples)
    instrumented_s = _median(instrumented_samples)
    out = {
        "noop_s": round(noop_s, 6),
        "instrumented_s": round(instrumented_s, 6),
        "repeats": repeats,
    }
    out.update(
        _overhead_fields(
            (instrumented_s / noop_s - 1.0) * 100.0 if noop_s else 0.0,
            max(_spread_pct(noop_samples), _spread_pct(instrumented_samples)),
        )
    )
    return out


def run_profiler_overhead_bench(
    log: Any = None,
    seed: int = BENCH_SEED,
    duration: float = BENCH_DURATION,
    repeats: int = 5,
) -> Dict[str, Any]:
    """The span-profiler's *off* cost, plus its *on* cost for context.

    ``repro profile`` rides tracer span hooks, so every traced pipeline
    now pays one empty-hook-list check per span open/close even when no
    profiler is attached. This bench isolates that: a plain-``Tracer``
    pass (hooks exist, none attached) vs the no-op-tracer pass,
    median-of-``repeats`` interleaved, asserted <5% by the microbench
    suite. The final profiled pass documents what attaching the profiler
    *does* cost (cProfile is a several-× slowdown — that is why ledger
    phase numbers always come from unprofiled passes).
    """
    from repro import FlowDiff
    from repro.obs import Tracer, attach_profiler
    from repro.scenarios import three_tier_lab

    if log is None:
        log = three_tier_lab(seed=seed).run(0.5, duration)

    def one_pass(fd: "FlowDiff") -> float:
        started = time.perf_counter()
        baseline = fd.model(log)
        current = fd.model(log, assess=False)
        fd.diff(baseline, current)
        return time.perf_counter() - started

    baseline_samples: list = []
    off_samples: list = []
    for _ in range(max(1, repeats)):
        baseline_samples.append(one_pass(FlowDiff()))
        off_samples.append(one_pass(FlowDiff(tracer=Tracer())))

    profiled_tracer = Tracer()
    attach_profiler(profiled_tracer)
    profiled_s = one_pass(FlowDiff(tracer=profiled_tracer))

    baseline_s = _median(baseline_samples)
    off_s = _median(off_samples)
    out = {
        "baseline_s": round(baseline_s, 6),
        "profiler_off_s": round(off_s, 6),
        "profiled_s": round(profiled_s, 6),
        "profiled_slowdown_x": round(
            profiled_s / baseline_s if baseline_s else 0.0, 3
        ),
        "repeats": repeats,
    }
    out.update(
        _overhead_fields(
            (off_s / baseline_s - 1.0) * 100.0 if baseline_s else 0.0,
            max(_spread_pct(baseline_samples), _spread_pct(off_samples)),
        )
    )
    return out


def run_ingest_bench(
    seed: int = BENCH_SEED,
    duration: float = BENCH_DURATION,
    repeats: int = 5,
    raw_samples: int = 200_000,
) -> Dict[str, Any]:
    """Benchmark the data-plane telemetry path three ways.

    * ``raw_samples_per_s`` — tight-loop ingest into one held
      :class:`ComponentSeries` (the hot-path upper bound: one sample =
      one window fold, no dict lookup).
    * ``messages_per_s`` — end-to-end simulation throughput with the
      plane enabled, in control messages per wall second.
    * ``overhead_pct`` — telemetry-enabled vs ``NOOP_TELEMETRY``
      simulation time, median-of-``repeats`` interleaved with the repeat
      spread recorded as ``noise_floor_pct`` (same discipline as
      :func:`run_obs_overhead_bench`). The microbench contract is on
      ``overhead_us_per_message`` instead — the plane's cost per control
      message is constant, so the percent form inflates whenever the
      rest of the simulator speeds up — because :class:`NoopTelemetry`
      is the production default and turning the plane on must never be a
      scary decision.
    """
    from repro.obs.telemetry import NOOP_TELEMETRY, TelemetryPlane
    from repro.scenarios import three_tier_lab

    def one_run(telemetry: Any) -> float:
        scenario = three_tier_lab(seed=seed, telemetry=telemetry)
        started = time.perf_counter()
        one_run.messages = len(scenario.run(0.5, duration))
        return time.perf_counter() - started

    one_run(NOOP_TELEMETRY)  # warm-up: imports, allocator, caches
    # Interleave so host noise lands on both legs.
    off_samples: list = []
    on_samples: list = []
    for _ in range(max(1, repeats)):
        off_samples.append(one_run(NOOP_TELEMETRY))
        on_samples.append(one_run(TelemetryPlane()))
    off_s = _median(off_samples)
    on_s = _median(on_samples)
    messages = one_run.messages

    plane = TelemetryPlane()
    series = plane.series("link", "a--b", "utilization")
    started = time.perf_counter()
    for i in range(raw_samples):
        series.record(i * 1e-3, 0.5)
    raw_s = time.perf_counter() - started

    out = {
        "raw_samples_per_s": round(raw_samples / raw_s) if raw_s else 0,
        "messages": messages,
        "messages_per_s": round(messages / on_s) if on_s else 0,
        "telemetry_off_s": round(off_s, 6),
        "telemetry_on_s": round(on_s, 6),
        # The plane's absolute cost. ``overhead_pct`` divides a constant
        # per-message cost by however fast the rest of the simulator
        # happens to be, so every ingest speedup inflates it with no
        # telemetry change at all; this is the speed-independent number
        # the microbench budget is asserted against.
        "overhead_us_per_message": round(
            (on_s - off_s) / messages * 1e6, 3
        )
        if messages
        else 0.0,
        "repeats": repeats,
    }
    out.update(
        _overhead_fields(
            (on_s / off_s - 1.0) * 100.0 if off_s else 0.0,
            max(_spread_pct(off_samples), _spread_pct(on_samples)),
        )
    )
    return out


def run_service_ingest_bench(
    log: Any = None,
    seed: int = BENCH_SEED,
    duration: float = BENCH_DURATION,
    tenants: int = SERVICE_TENANTS,
    repeats: int = 3,
) -> Dict[str, Any]:
    """Benchmark the streaming service's sustained multi-tenant ingest.

    The same lab capture is replayed through the daemon's bounded queue
    once per tenant (blocking feeds — lossless backpressure), and the
    aggregate drain rate is reported in control messages per wall second.
    The timed region is everything the always-on deployment pays: queue
    hand-off, baseline learning, incremental per-window folding, the
    per-window diff, alert evaluation. Median-of-``repeats`` with the
    spread recorded, same discipline as the other benches; the p95
    per-window report latency comes from the service's own
    ``service_report_seconds`` histogram.

    Memory stays bounded by construction (the open window's buffers, a
    capped history, a fixed trace ring), so the bench asserts the
    behavioral part instead: every window of every tenant must close
    through the incremental ``merged`` path, never a remodel.
    """
    from repro.scenarios import three_tier_lab
    from repro.service import STATUS_MERGED, StreamService, replay_messages

    if log is None:
        log = three_tier_lab(seed=seed).run(0.5, duration)
    messages = list(log)

    def one_run() -> "tuple[float, Any]":
        service = StreamService(window=SERVICE_WINDOW_S)
        for i in range(tenants):
            service.add_tenant(f"bench{i}")
        started = time.perf_counter()
        with service:
            for i in range(tenants):
                replay_messages(service, f"bench{i}", messages)
            service.drain()
        return time.perf_counter() - started, service

    elapsed_samples: list = []
    service = None
    for _ in range(max(1, repeats)):
        elapsed, service = one_run()
        elapsed_samples.append(elapsed)
    elapsed_s = _median(elapsed_samples)
    total = tenants * len(messages)

    windows = sum(t.windows_total for t in service.tenants.values())
    merged = sum(
        t.status_counts.get(STATUS_MERGED, 0)
        for t in service.tenants.values()
    )
    p95 = service.metrics.histogram("service_report_seconds").quantile(0.95)
    return {
        "tenants": tenants,
        "window_s": SERVICE_WINDOW_S,
        "messages_per_tenant": len(messages),
        "messages_total": total,
        "elapsed_s": round(elapsed_s, 6),
        "messages_per_s": round(total / elapsed_s) if elapsed_s else 0,
        "min_messages_per_s": SERVICE_MIN_MSG_S,
        "p95_report_s": round(p95, 6),
        "windows": windows,
        "merged_windows": merged,
        "all_windows_merged": merged == windows and windows > 0,
        "repeats": repeats,
        "noise_floor_pct": round(_spread_pct(elapsed_samples), 3),
    }


def run_cache_bench() -> Dict[str, Any]:
    """Benchmark the model cache: cold store vs warm load of one request.

    Uses a Figure-13-style capture (the 320-server tree with 9 random
    three-tier apps) so the cold leg pays real extraction and signature
    building, and records whether the warm leg skipped remodeling
    entirely and returned the same model.
    """
    import tempfile

    from repro import FlowDiff
    from repro.core.flowdiff import FlowDiffConfig
    from repro.core.persist import model_to_dict
    from repro.scenarios import scalability_sim

    network, workload = scalability_sim(9, seed=11)
    workload.start(0.0, 20.0)
    network.sim.run(until=23.0)
    log = network.log

    with tempfile.TemporaryDirectory() as cache_dir:
        fd = FlowDiff(FlowDiffConfig(cache_dir=cache_dir))
        started = time.perf_counter()
        cold_model = fd.model(log)
        cold_s = time.perf_counter() - started
        started = time.perf_counter()
        warm_model = fd.model(log)
        warm_s = time.perf_counter() - started

    return {
        "scenario": "scalability_sim(9 apps, 20s)",
        "messages": len(log),
        "cold_s": round(cold_s, 6),
        "warm_s": round(warm_s, 6),
        "warm_skips_remodeling": warm_s < cold_s / 10.0,
        "warm_dict_identical": model_to_dict(warm_model)
        == model_to_dict(cold_model),
    }


def throughput_section(
    telemetry: Dict[str, Any],
    phases: Dict[str, float],
    group_signatures: int,
    stability_parts: int,
    service: "Dict[str, Any] | None" = None,
) -> Dict[str, Any]:
    """The ``throughput`` section of the payload: rates, not durations.

    Raw durations hide regressions when the workload drifts with them —
    a 2x message count excuses a 2x phase time in a duration-only diff.
    Rates don't, so the gate floors live here:

    * ``simulate`` — end-to-end control-message ingest (telemetry plane
      on, from :func:`run_ingest_bench`'s enabled leg) in messages per
      wall second, against the committed pre-campaign baseline and the
      campaign's explicit >=``target_x`` floor. ``repro runs gate``
      reads ``min_messages_per_s`` from this section and fails the
      build when the measured rate lands below it (noise-aware: the
      floor is relaxed by the gate tolerance and this section's own
      ``noise_floor_pct``).
    * ``model`` — signatures materialized per second of the benched
      ``model`` phase. The phase accumulates both benched passes, so the
      nominal build count is one signature per group for the full window
      twice (assess on + off) plus one per group per stability interval
      (interval group counts can differ slightly from the full window's;
      the count is nominal, the seconds are measured).
      ``stability_share_pct`` restates the campaign's other target —
      stability assessment staying a minority of model time — directly
      in the payload.
    * ``service`` — the streaming daemon's sustained multi-tenant ingest
      (from :func:`run_service_ingest_bench`), with its own
      ``min_messages_per_s`` floor the gate enforces the same way.
    """
    msg_s = int(telemetry.get("messages_per_s", 0))
    model_s = phases.get("model", 0.0)
    stability_s = phases.get("model/stability", 0.0)
    built = group_signatures * (stability_parts + 2)
    out = {
        "simulate": {
            "messages_per_s": msg_s,
            "baseline_messages_per_s": INGEST_BASELINE_MSG_S,
            "target_x": INGEST_TARGET_X,
            "min_messages_per_s": INGEST_MIN_MSG_S,
            "achieved_x": round(msg_s / INGEST_BASELINE_MSG_S, 3),
            "noise_floor_pct": telemetry.get("noise_floor_pct", 0.0),
        },
        "model": {
            "group_signatures": group_signatures,
            "signatures_nominal": built,
            "model_s": round(model_s, 6),
            "signatures_per_s": round(built / model_s) if model_s else 0,
            "stability_share_pct": round(stability_s / model_s * 100.0, 2)
            if model_s
            else 0.0,
        },
    }
    if service is not None:
        out["service"] = service
    return out


def run_qa_lint_bench(repeats: int = 3) -> Dict[str, Any]:
    """Time the repo self-lint: base rules vs base + concurrency suite.

    The concurrency rules build a project-wide call graph, so their cost
    rides on repository size; publishing both legs (with the repeat
    noise floor) keeps the CI lint gate's wall time an explicit,
    diffable number instead of silent drift.
    """
    import repro
    from repro.qa import LintEngine, concurrency_rules, default_rules
    from repro.qa.framework import Project

    src = os.path.dirname(repro.__file__)

    def _leg(make_rules: Any) -> "list[float]":
        samples = []
        for _ in range(max(1, repeats)):
            project = Project.load([src])
            t0 = time.perf_counter()
            result = LintEngine(make_rules()).run(project)
            samples.append(time.perf_counter() - t0)
            assert result.ok, "the self-lint must be clean while benching"
        return samples

    base = _leg(default_rules)
    full = _leg(lambda: default_rules() + concurrency_rules())
    return {
        "qa_lint_base_s": round(_median(base), 6),
        "qa_lint_concurrency_s": round(_median(full), 6),
        "noise_floor_pct": round(max(_spread_pct(base), _spread_pct(full)), 3),
        "repeats": max(1, repeats),
    }


def run_pipeline_bench(
    seed: int = BENCH_SEED, duration: float = BENCH_DURATION, repeats: int = 3
) -> Dict[str, Any]:
    """Profile model+diff on the seeded lab capture; return the payload.

    The simulation itself is *not* part of the timed region (it stands in
    for capture ingestion); each repeat re-runs the full modeling and
    diffing pipeline and the fastest repeat is reported, pytest-benchmark
    style, to suppress scheduler noise. The payload also records the
    observability on/off timing pair (see :func:`run_obs_overhead_bench`)
    so the enabled-path overhead is diffable commit to commit, and the
    rate-based :func:`throughput_section` whose ingest floor the
    ``repro runs gate`` CI job enforces.
    """
    from repro import FlowDiff
    from repro.obs import Tracer, phase_timings
    from repro.scenarios import three_tier_lab

    log = three_tier_lab(seed=seed).run(0.5, duration)

    best: Dict[str, float] = {}
    baseline = None
    for _ in range(max(1, repeats)):
        tracer = Tracer()
        fd = FlowDiff(tracer=tracer)
        baseline = fd.model(log)
        current = fd.model(log, assess=False)
        fd.diff(baseline, current)
        timings = phase_timings(tracer)
        if not best or timings.get("model", 0.0) + timings.get("diff", 0.0) < (
            best.get("model", 0.0) + best.get("diff", 0.0)
        ):
            best = timings

    telemetry = run_ingest_bench(seed=seed, duration=duration)
    service = run_service_ingest_bench(log=log)
    return {
        "benchmark": "pipeline",
        "seed": seed,
        "duration_s": duration,
        "messages": len(log),
        "phases": {name: round(seconds, 6) for name, seconds in sorted(best.items())},
        "total_s": round(best.get("model", 0.0) + best.get("diff", 0.0), 6),
        "throughput": throughput_section(
            telemetry,
            best,
            len(baseline.app_signatures),
            FlowDiff().config.stability_parts,
            service=service,
        ),
        "obs_overhead": run_obs_overhead_bench(log=log),
        "profiler": run_profiler_overhead_bench(log=log),
        "qa_lint": run_qa_lint_bench(),
        "telemetry": telemetry,
        "cache": run_cache_bench(),
        "python": platform.python_version(),
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def emit(path: str = DEFAULT_OUT, **kwargs: Any) -> str:
    """Write the pipeline benchmark JSON to ``path`` and return the path."""
    payload = run_pipeline_bench(**kwargs)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT, help="output JSON path")
    parser.add_argument("--seed", type=int, default=BENCH_SEED)
    parser.add_argument("--duration", type=float, default=BENCH_DURATION)
    args = parser.parse_args()
    path = emit(args.out, seed=args.seed, duration=args.duration)
    with open(path, encoding="utf-8") as fh:
        print(fh.read())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
