"""Microbenchmarks: what ``bench/`` does not time.

Unlike the figure/table harnesses (single-shot ``pedantic`` runs), the
two ``test_bench_task_*`` cases use pytest-benchmark's statistical timing
for task-automaton learning and matching — the one hot primitive with no
``BENCHMARK.json`` row (extract, signatures, modeling, diff and JSONL
encode are per-layer rows there, on a larger input).

The second half holds the instrumentation *budget* tests — observability
and the telemetry plane must each stay cheap — with the interleaved
median-of-repeats loops they measure with. These
assert a budget and record nothing: performance numbers are produced and
gated by ``bench/run.py`` against ``BENCHMARK.json`` only.
"""

import time
from statistics import median

import pytest

from repro import FlowDiff
from repro.core.tasks import TaskLibrary
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import NOOP_TELEMETRY, TelemetryPlane
from repro.obs.tracing import Tracer
from repro.scenarios import three_tier_lab
from repro.workload.traces import VMTraceSynthesizer


@pytest.fixture(scope="module")
def lab_log():
    return three_tier_lab(seed=3).run(0.5, 30.0)


def test_bench_task_learning(benchmark):
    synth = VMTraceSynthesizer.ec2_quartet(seed=7)
    runs = synth.training_runs("i-3486634d", 50)

    def learn():
        library = TaskLibrary(service_names=synth.service_names())
        return library.learn("s", runs, min_sup=0.6, masked=True)

    signature = benchmark(learn)
    assert signature.automaton.n_states


def test_bench_task_detection(benchmark):
    synth = VMTraceSynthesizer.ec2_quartet(seed=7)
    library = TaskLibrary(service_names=synth.service_names())
    library.learn(
        "s", synth.training_runs("i-3486634d", 50), min_sup=0.6, masked=True
    )
    run = synth.startup_run("i-3486634d", 200)
    events = benchmark(library.detect, run)
    assert isinstance(events, list)


#: Interleaved repeats per leg of every overhead measurement.
REPEATS = 7


def _spread_pct(samples):
    """Repeat spread relative to the median, in percent.

    This is the run's *noise floor*: any overhead smaller than the
    spread of identical repeats is indistinguishable from scheduler
    jitter and must not be read as a real delta.
    """
    mid = median(samples)
    if mid <= 0:
        return 0.0
    return (max(samples) - min(samples)) / mid * 100.0


def _overhead_fields(raw_pct, noise_floor_pct):
    """Noise-aware overhead: the shared fields of every overhead bench.

    Instrumentation cannot make code faster, so a negative measured
    overhead is scheduler luck by construction. When the negative value
    sits inside the repeat noise floor it is reported as ``0.0`` (the
    raw median ratio stays visible as ``overhead_raw_pct``). A negative
    value *beyond* the floor is deliberately left unclamped: that shape
    means the bench itself is broken (wrong legs compared, warm-up
    asymmetry), and ``_assert_overhead_not_below_noise_floor`` must fail
    loudly rather than have the clamp paper over it.
    """
    clamped = raw_pct
    if raw_pct < 0 and -raw_pct <= noise_floor_pct:
        clamped = 0.0
    return {
        "overhead_pct": clamped,
        "overhead_raw_pct": raw_pct,
        "noise_floor_pct": noise_floor_pct,
    }


def _model_diff_pass(fd, log):
    """Wall seconds of one full model + model + diff pass."""
    started = time.perf_counter()
    baseline = fd.model(log)
    current = fd.model(log, assess=False)
    fd.diff(baseline, current)
    return time.perf_counter() - started


def run_obs_overhead_bench(log):
    """Model+diff with observability off (no-ops) vs on (real registry +
    tracer): the sliding diagnoser runs instrumented in production, so
    the instrumented path must stay within a few percent of the no-op
    one. Median-of-``REPEATS``, interleaved so host noise lands on both
    legs.

    A min-of-repeats version regularly reported *negative* overhead —
    two independent minima pick each side's luckiest sample — so the
    ratio comes from medians and the repeat spread rides along as the
    noise floor.
    """
    plain, loaded = [], []
    for _ in range(REPEATS):
        plain.append(_model_diff_pass(FlowDiff(), log))
        loaded.append(
            _model_diff_pass(FlowDiff(metrics=MetricsRegistry(), tracer=Tracer()), log)
        )
    plain_s = median(plain)
    out = {"plain_s": plain_s, "loaded_s": median(loaded)}
    out.update(
        _overhead_fields(
            (out["loaded_s"] / plain_s - 1.0) * 100.0,
            max(_spread_pct(plain), _spread_pct(loaded)),
        )
    )
    return out


def run_ingest_bench():
    """The data-plane telemetry path three ways.

    * ``raw_samples_per_s`` — tight-loop ingest into one held
      ``ComponentSeries`` (the hot-path upper bound).
    * ``messages_per_s`` — end-to-end simulation throughput with the
      plane enabled, in control messages per wall second.
    * ``overhead_us_per_message`` — telemetry-enabled vs
      ``NOOP_TELEMETRY`` simulation time per control message,
      median-of-``REPEATS`` interleaved with the repeat spread as the
      noise floor.
    """
    raw_samples = 200_000

    def one_run(telemetry):
        scenario = three_tier_lab(seed=3, telemetry=telemetry)
        started = time.perf_counter()
        messages = len(scenario.run(0.5, 15.0))
        return time.perf_counter() - started, messages

    one_run(NOOP_TELEMETRY)  # warm-up: imports, allocator, caches
    off_samples, on_samples = [], []
    for _ in range(REPEATS):
        off_samples.append(one_run(NOOP_TELEMETRY)[0])
        elapsed, messages = one_run(TelemetryPlane())
        on_samples.append(elapsed)
    off_s = median(off_samples)
    on_s = median(on_samples)

    series = TelemetryPlane().series("link", "a--b", "utilization")
    started = time.perf_counter()
    for i in range(raw_samples):
        series.record(i * 1e-3, 0.5)
    raw_s = time.perf_counter() - started

    out = {
        "raw_samples_per_s": raw_samples / raw_s,
        "messages_per_s": messages / on_s,
        "overhead_us_per_message": (on_s - off_s) / messages * 1e6,
    }
    out.update(
        _overhead_fields(
            (on_s / off_s - 1.0) * 100.0,
            max(_spread_pct(off_samples), _spread_pct(on_samples)),
        )
    )
    return out


def _assert_overhead_not_below_noise_floor(result):
    """No bench may report an overhead below its own noise floor.

    A reported overhead more negative than the repeat spread cannot be
    scheduler luck (the clamp in ``_overhead_fields`` zeroes within-floor
    negatives and leaves beyond-floor ones visible on purpose): it means
    the bench compared the wrong legs or warmed them asymmetrically.
    """
    assert result["overhead_pct"] >= -result["noise_floor_pct"], result


def test_obs_overhead_under_five_percent(lab_log):
    """The instrumented pipeline must cost <5% over the no-op path.

    This is the contract that lets the sliding diagnoser run with real
    metrics + tracing in production; guarded here so an accidentally hot
    instrument shows up as a test failure rather than a silent slowdown
    (the measured figure is the ``obs.metrics.registry_overhead_pct``
    row of ``bench/``). Re-measure up to twice before declaring a
    regression (a real hot path fails all three).
    """
    result = None
    for _ in range(3):
        result = run_obs_overhead_bench(lab_log)
        if result["overhead_pct"] < 5.0:
            break
    assert result["overhead_pct"] < 5.0, result
    assert result["noise_floor_pct"] >= 0.0
    _assert_overhead_not_below_noise_floor(result)


TELEMETRY_BUDGET_US_PER_MSG = 6.0


def test_telemetry_overhead_budget_per_message():
    """Enabling the telemetry plane must cost <6µs per control message.

    Every packet delivery, table install, and RPC completion samples the
    plane when it is enabled, so a regression here multiplies across the
    whole simulation. The budget is *absolute* on purpose: a percent-of-
    simulation contract silently tightens every time the simulator gets
    faster and silently loosens when it regresses. The measured figure
    is the ``obs.telemetry.overhead_us_per_msg`` row of ``bench/``.
    """
    # Median-of-N suppresses most scheduler noise, but on a single-CPU
    # runner one unlucky leg can still exceed the budget; re-measure up
    # to twice before declaring a regression (a real hot path fails all
    # three).
    result = None
    for _ in range(3):
        result = run_ingest_bench()
        if result["overhead_us_per_message"] < TELEMETRY_BUDGET_US_PER_MSG:
            break
    assert result["overhead_us_per_message"] < TELEMETRY_BUDGET_US_PER_MSG, result
    assert result["noise_floor_pct"] >= 0.0
    assert result["raw_samples_per_s"] > 0
    assert result["messages_per_s"] > 0
    _assert_overhead_not_below_noise_floor(result)


def test_overhead_clamp_semantics():
    """`_overhead_fields`: within-floor negatives report 0, beyond-floor
    negatives stay visible, positives pass through untouched."""
    lucky = _overhead_fields(-6.722, 11.61)
    assert lucky["overhead_pct"] == 0.0
    assert lucky["overhead_raw_pct"] == -6.722
    assert lucky["noise_floor_pct"] == 11.61
    broken = _overhead_fields(-25.0, 11.61)
    assert broken["overhead_pct"] == -25.0  # loud, fails the floor assert
    real = _overhead_fields(3.4, 11.61)
    assert real["overhead_pct"] == 3.4
    assert real["overhead_raw_pct"] == 3.4
