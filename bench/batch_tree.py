"""``batch_tree``: the paper's offline use, two capture files in, report out.

``repro diff L1 L2 --evidence`` as a closed single-threaded loop:
``read_log`` x2 -> ``model(L1)`` -> ``model(L2, assess=False)`` -> ``diff``
-> ``attach_evidence`` -> ``render``. The only workload where JSONL
decode, stability assessment and the diff stages do real work; it never
touches ``service`` or (after set-up) ``netsim``.
"""

from __future__ import annotations

import gc
import hashlib
import os
from dataclasses import dataclass
from typing import List, Tuple

from repro.core.diff.compare import compare_models
from repro.core.diff.dependency import DependencyMatrix, classify_problems
from repro.core.diff.evidence import attach_evidence
from repro.core.diff.ranking import rank_components
from repro.core.diff.report import DiagnosisReport
from repro.core.diff.validate import validate_changes
from repro.core.events import extract_flow_records
from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.groups import extract_groups
from repro.core.model import BehaviorModel
from repro.core.persist import load_model, save_model
from repro.core.signatures.application import ApplicationSignature, group_records
from repro.core.signatures.connectivity import ConnectivityGraph
from repro.core.signatures.correlation import PartialCorrelation
from repro.core.signatures.delay import DelayDistribution
from repro.core.signatures.flowstats import FlowStats
from repro.core.signatures.infrastructure import (
    ControllerResponseTime,
    InterSwitchLatency,
    PhysicalTopology,
)
from repro.core.signatures.interaction import ComponentInteraction
from repro.core.stability import assess_stability
from repro.openflow.log import ControllerLog
from repro.openflow.serialize import read_log, save_log

from harness import (
    NO_TRACE,
    TRACED_REPS,
    Outcome,
    Trace,
    best_of,
    fastest,
    pct_over,
    repetitions,
    summary,
    timed,
)
from inputs import tree_capture

N_APPS = 20
TRAFFIC_S = 6.0

ROOT = "batch_tree.diagnose"

#: The parts ``FlowDiff.model`` is made of, as the benchmark drives them.
MODEL_PARTS = (
    "core.events.extract",
    "core.groups.extract",
    "core.signatures.connectivity.build",
    "core.signatures.flowstats.build",
    "core.signatures.interaction.build",
    "core.signatures.delay.build",
    "core.signatures.correlation.build",
    "core.signatures.infrastructure.pt_build",
    "core.signatures.infrastructure.isl_build",
    "core.signatures.infrastructure.crt_build",
    "core.stability.assess",
)
DIFF_PARTS = ("core.diff.compare", "core.diff.validate", "core.diff.rank")
#: Every layer that gets a ``<name>_s`` and a ``<name>.py_calls`` row.
LAYERS = (
    ("openflow.serialize.decode",)
    + MODEL_PARTS
    + DIFF_PARTS
    + ("core.diff.evidence", "core.diff.render")
)


@dataclass
class Inputs:
    healthy_path: str
    faulty_path: str
    victim: str
    messages: int
    capture_bytes: int


def setup(seed: int, scale: float, workdir: str) -> Inputs:
    duration = TRAFFIC_S * scale
    healthy, victim = tree_capture(N_APPS, seed, duration, shutdown_victim=False)
    faulty, _ = tree_capture(N_APPS, seed, duration, shutdown_victim=True)
    healthy_path = os.path.join(workdir, "L1.jsonl")
    faulty_path = os.path.join(workdir, "L2.jsonl")
    messages = save_log(healthy, healthy_path) + save_log(faulty, faulty_path)
    return Inputs(
        healthy_path,
        faulty_path,
        victim,
        messages,
        os.path.getsize(healthy_path) + os.path.getsize(faulty_path),
    )


@dataclass
class Diagnosis:
    report: DiagnosisReport
    text: str
    baseline: BehaviorModel
    healthy: ControllerLog
    faulty: ControllerLog


def diagnose(inputs: Inputs, trace: Trace = NO_TRACE) -> Diagnosis:
    """One repetition: capture files on disk to rendered report string."""
    with trace.span(ROOT):
        healthy = trace.call("openflow.serialize.decode", read_log, inputs.healthy_path)
        faulty = trace.call("openflow.serialize.decode", read_log, inputs.faulty_path)
        flowdiff = FlowDiff()
        baseline = trace.call("core.flowdiff.model_baseline", flowdiff.model, healthy)
        current = trace.call(
            "core.flowdiff.model_current", flowdiff.model, faulty, assess=False
        )
        report = trace.call(
            "core.diff.diff", flowdiff.diff, baseline, current, current_log=faulty
        )
        report = trace.call("core.diff.evidence", attach_evidence, report, faulty)
        text = trace.call("core.diff.render", report.render)
    return Diagnosis(report, text, baseline, healthy, faulty)


def run(inputs: Inputs, seconds: float, out: Outcome) -> None:
    samples: List[float] = []
    digests = set()
    for rep in repetitions(seconds):
        elapsed, got = timed(diagnose, inputs)
        report = got.report
        top = report.component_ranking[0][0] if report.component_ranking else None
        out.check(
            not report.healthy and top == inputs.victim,
            f"rep {rep}: healthy={report.healthy} top={top} victim={inputs.victim}",
        )
        digests.add(hashlib.sha256(got.text.encode("utf-8")).hexdigest())
        if rep:
            samples.append(elapsed)
        else:
            flowdiff = FlowDiff()
            same = flowdiff.diff(got.baseline, flowdiff.model(got.healthy, assess=False))
            out.check(same.healthy, "L1 against itself is not healthy")
        # Nothing of this repetition may outlive it: the next one starts
        # from a collected heap, and peak RSS is that of one repetition.
        del got, report
    out.check(len(digests) == 1, f"{len(digests)} different reports for one input")

    diagnose_s = fastest(samples)
    out.metrics["msgs_per_s"] = (inputs.messages / diagnose_s, "msg/s")
    out.exact["report_digest"] = sorted(digests)[0]
    out.exact["messages"] = inputs.messages
    out.details["diagnose_s"] = summary(samples)
    out.details["input"] = {"messages": inputs.messages, "bytes": inputs.capture_bytes}


def model_parts(log: ControllerLog, assess: bool, trace: Trace) -> Tuple[int, int]:
    """Drive every public function ``FlowDiff.model`` is made of, one
    span each; returns (flow records, application groups)."""
    config = FlowDiffConfig()
    sig = config.signature
    t_start, t_end = window = log.time_span
    records = trace.call(
        "core.events.extract", extract_flow_records, log, sig.occurrence_gap
    )
    arrivals = [r.arrival for r in records]
    groups = trace.call("core.groups.extract", extract_groups, arrivals, sig.special_nodes)
    by_group = group_records(records, groups)
    full = {}
    for group in groups:
        grp_records = by_group[group.key]
        grp_arrivals = [r.arrival for r in grp_records]
        full[group.key] = ApplicationSignature(
            group=group,
            cg=trace.call(
                "core.signatures.connectivity.build", ConnectivityGraph.build, grp_arrivals
            ),
            fs=trace.call(
                "core.signatures.flowstats.build",
                FlowStats.build, grp_records, t_start, t_end, sig.epoch,
            ),
            ci=trace.call(
                "core.signatures.interaction.build", ComponentInteraction.build, grp_arrivals
            ),
            dd=trace.call(
                "core.signatures.delay.build",
                DelayDistribution.build, grp_arrivals,
                window=sig.dd_window, bin_width=sig.dd_bin_width,
            ),
            pc=trace.call(
                "core.signatures.correlation.build",
                PartialCorrelation.build, grp_arrivals, t_start, t_end, epoch=sig.epoch,
            ),
        )
    trace.call("core.signatures.infrastructure.pt_build", PhysicalTopology.build, arrivals)
    trace.call("core.signatures.infrastructure.isl_build", InterSwitchLatency.build, arrivals)
    trace.call("core.signatures.infrastructure.crt_build", ControllerResponseTime.build, arrivals)
    if assess:
        trace.call(
            "core.stability.assess",
            assess_stability, log, sig,
            parts=config.stability_parts, thresholds=config.stability,
            window=window, full=full, arrivals=arrivals,
        )
    return len(records), len(groups)


def diff_parts(baseline: BehaviorModel, current: BehaviorModel, trace: Trace) -> int:
    """The three stages of ``FlowDiff.diff``; returns the unknown changes."""
    config = FlowDiffConfig()
    changes = trace.call("core.diff.compare", compare_models, baseline, current, config.thresholds)
    unknown, _ = trace.call(
        "core.diff.validate", validate_changes, changes, (), config.explanations
    )

    def rank() -> None:
        classify_problems(unknown)
        DependencyMatrix.from_changes(unknown)
        rank_components(unknown)

    trace.call("core.diff.rank", rank)
    return len(unknown)


def all_parts(inputs: Inputs, trace: Trace) -> Tuple[int, int, int]:
    """One repetition through :func:`diagnose`, then its parts one by one."""
    got = diagnose(inputs, trace)
    with trace.span("batch_tree.parts"):
        records, groups = model_parts(got.healthy, True, trace)
        more, _ = model_parts(got.faulty, False, trace)
        current = FlowDiff().model(got.faulty, assess=False)
        unknown = diff_parts(got.baseline, current, trace)
    return records + more, groups, unknown


def run_traced(inputs: Inputs, out: Outcome, results_dir: str) -> None:
    timed(diagnose, inputs)
    trace = Trace()
    untraced: List[float] = []
    for rep in range(TRACED_REPS):
        gc.collect()
        untraced.append(timed(diagnose, inputs)[0])
        gc.collect()
        trace.rep = rep
        records, groups, unknown = all_parts(inputs, trace)
    gc.collect()
    profile = Trace(profile=True)
    all_parts(inputs, profile)
    gc.collect()

    m = out.metrics
    for name in LAYERS:
        m[f"{name}_s"] = (trace.total(name), "s")
        m[f"{name}.py_calls"] = (profile.py_calls[name], "count")
    decode_s = trace.total("openflow.serialize.decode")
    m["openflow.serialize.decode_msgs_per_s"] = (inputs.messages / decode_s, "msg/s")
    m["openflow.serialize.decode_mb_per_s"] = (inputs.capture_bytes / 1e6 / decode_s, "MB/s")
    m["core.events.records"] = (records, "count")
    m["core.groups.groups"] = (groups, "count")
    m["core.diff.unknown_changes"] = (unknown, "count")
    baseline_s = trace.total("core.flowdiff.model_baseline")
    current_s = trace.total("core.flowdiff.model_current")
    m["core.flowdiff.model_baseline_s"] = (baseline_s, "s")
    m["core.flowdiff.model_current_s"] = (current_s, "s")
    parts_s = sum(trace.total(name) for name in MODEL_PARTS)
    m["core.flowdiff.model_parts_gap_pct"] = (pct_over(parts_s, baseline_s + current_s), "%")

    healthy = read_log(inputs.healthy_path)
    jobs2 = FlowDiff(FlowDiffConfig(jobs=2))
    m["core.parallel.model_jobs2_s"] = (best_of(jobs2.model, healthy), "s")
    baseline = FlowDiff().model(healthy)
    model_path = os.path.join(os.path.dirname(inputs.healthy_path), "model.json")
    m["core.persist.save_model_s"] = (best_of(save_model, baseline, model_path), "s")
    m["core.persist.load_model_s"] = (best_of(load_model, model_path), "s")
    m["core.persist.model_bytes"] = (os.path.getsize(model_path), "bytes")

    m["trace.overhead_pct"] = (pct_over(trace.total(ROOT), fastest(untraced)), "%")
    m["trace.unattributed_pct"] = (trace.unattributed_pct(ROOT), "%")

    out.check(m["trace.unattributed_pct"][0] <= 15.0, "more than 15 % of the run is unattributed")
    children = {s["name"] for s in trace.spans if s["parent"] == 0}
    out.details["largest_span"] = max(children, key=trace.total)
    out.exact.update(
        {k: v[0] for k, v in m.items() if v[1] == "count" and not k.endswith("py_calls")}
    )
    trace.write(os.path.join(results_dir, "trace-batch_tree.json"), profile.py_calls)
