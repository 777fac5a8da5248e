"""Reconciliation test for the benchmark itself (not part of tier-1).

    python3 -m pytest bench/test_bench.py -q

A reduced-scale smoke of all four workloads, traced and untraced: the
metric names are exactly ``BENCHMARK.json``'s, the layers reconcile with
the end-to-end figure, the workloads stay separated the way the contract
says, and another seed gives other inputs that pass the same checks.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from bisect import bisect_right

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(REPO_ROOT, "src")]

import inputs  # noqa: E402

SCALE = 0.5
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run(workload: str, trace: int, seed: int = 11):
    """One reduced run; returns (result line, record written beside it)."""
    done = subprocess.run(
        [
            sys.executable, os.path.join(BENCH_DIR, "run.py"),
            "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", str(SCALE),
        ],
        capture_output=True, text=True, check=False,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(BENCH_DIR, "results", f"{workload}-trace{trace}.json")) as fh:
        return result, json.load(fh)


@pytest.fixture(scope="module")
def runs(contract):
    return {
        (row["name"], trace): run(row["name"], trace)
        for row in contract["workloads"]
        for trace in (0, 1)
    }


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in contract["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"} and 0 < row["bound"] <= 0.25
    for row in contract["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in contract["end_to_end"]


def test_every_run_is_correct_and_prints_the_contract(contract, runs):
    for (workload, trace), (result, _) in runs.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        section = contract["per_layer" if trace else "end_to_end"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            row["name"]: row["unit"] for row in section
        }, (workload, trace)
        if not trace:
            assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_every_layer_metric_is_measured_by_some_workload(contract, runs):
    measured = set()
    for (_, trace), (_, record) in runs.items():
        if trace:
            measured.update(record["measured"])
    assert measured == {row["name"] for row in contract["per_layer"]}


def test_layers_reconcile_with_the_end_to_end_figure(runs):
    for (_, trace), (result, _) in runs.items():
        if trace:
            assert result["metrics"]["trace.unattributed_pct"]["value"] <= 15.0
    batch = runs[("batch_tree", 1)][0]["metrics"]
    assert abs(batch["core.flowdiff.model_parts_gap_pct"]["value"]) <= 15.0


def test_workloads_stay_separated(runs):
    batch, batch_record = runs[("batch_tree", 1)]
    assert batch_record["details"]["largest_span"] == "openflow.serialize.decode"
    clean = runs[("stream_clean", 1)][0]["metrics"]
    dirty = runs[("stream_dirty", 1)][0]["metrics"]
    assert clean["openflow.serialize.decode_s"]["value"] == 0
    assert dirty["openflow.serialize.decode_s"]["value"] == 0
    assert clean["service.tenant.merged_share"]["value"] == 1.0
    assert dirty["service.tenant.merged_share"]["value"] == 0.0
    assert dirty["service.tenant.fallback"]["value"] == dirty["service.tenant.windows"]["value"]
    simulate = runs[("simulate_tree", 1)][0]["metrics"]
    touched = {
        name for name, cell in simulate.items()
        if cell["value"] != 0 and name.split(".")[0] in ("core", "service")
    }
    assert not touched


def test_another_seed_gives_other_inputs_that_pass_the_same_checks(contract, runs):
    for row in contract["workloads"]:
        result, record = run(row["name"], 0, seed=12)
        assert result["correct"]
        assert record["exact"] != runs[(row["name"], 0)][1]["exact"]


def test_swaps_stay_inside_their_window_and_sort_back():
    ordered = inputs.lab_capture(seed=5, start=0.5, duration=60.0, fault_at=30.0)
    swapped, swaps = inputs.swap_adjacent(ordered, seed=5)
    bounds = inputs.window_bounds(ordered)
    assert swaps >= len(bounds) - 2 and swapped[0] is ordered[0]
    assert sorted(swapped, key=lambda m: m.timestamp) == sorted(ordered, key=lambda m: m.timestamp)
    high = swapped[0].timestamp
    inversions = 0
    for before, after in zip(swapped, swapped[1:]):
        if after.timestamp < before.timestamp:
            inversions += 1
            # An out-of-order message is never older than its own window.
            assert bisect_right(bounds, after.timestamp) == bisect_right(bounds, high)
        high = max(high, after.timestamp)
    assert inversions == swaps
