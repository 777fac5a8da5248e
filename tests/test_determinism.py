"""Regression: same-seed simulations are byte-identical across processes.

FlowDiff diffs a capture against a baseline recorded earlier; if the
simulator itself were nondeterministic, L1/L2 differences would reflect
the run rather than the network. The ``determinism`` lint rule bans the
shared-state RNG patterns that break this statically; this test proves
the end-to-end property the rule protects: two ``repro simulate`` runs
with the same seed — in separate interpreter processes, with *different*
``PYTHONHASHSEED`` values so set/dict iteration order cannot leak into
the capture — write byte-identical logs.

Two captures are also pinned to golden digests, so a change to the
encoder, to the log's ordering or to the simulator that moves one byte
fails here rather than only in the benchmark's ``capture_sha256``. A
change that moves the bytes on purpose re-records them and says why.

Two behavior models built from those captures are pinned the same way,
by :func:`~repro.core.persist.model_digest` (the sha256 of their
persisted JSON, keys sorted), so a float that drifts in any signature —
a reordered sum, a changed bin — fails here. The benchmark checks
streamed windows only through their verdicts.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.core.flowdiff import FlowDiff
from repro.core.persist import model_digest
from repro.openflow.serialize import read_log, save_log
from repro.scenarios import scalability_sim, three_tier_lab

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
DURATION = "8.0"

#: ``repro simulate --seed 5 --duration 8.0`` (the lab, 3,976 messages).
LAB_SHA256 = "04504e8ce9cda44fbb377d7c2b68c717d9247c397874deee50d429ccad5e316c"
#: :func:`tree_capture` (the 320-server tree, 2,331 messages).
TREE_SHA256 = "85f8dd539c8a95bd118e38a84533d25dfa3a055219e67b601c15e48d30a4a0fa"
#: From Python 3.12 on, ``sum`` of floats is compensated, which moves the
#: last bits of some means: each model digest is pinned once per rule.
COMPENSATED_SUM = sys.version_info >= (3, 12)
#: ``FlowDiff().model`` of the lab capture, stability assessed.
LAB_MODEL_SHA256 = (
    "f40c18a8418ac35f3fc7417ab6a34f585618ce361eb9bebb0fe30c94b10917f2",
    "91bd84f9914b40c857154aa984f6fa75ef3f88308218379f8e23417a2bc6c3e6",
)[COMPENSATED_SUM]
#: ``FlowDiff().model(..., assess=False)`` of the tree capture's
#: ``[1.0, 2.5)`` window, as the daemon models one closed window.
TREE_WINDOW = (1.0, 2.5)
TREE_WINDOW_MODEL_SHA256 = (
    "c960d3fddab01e576cbbd7a11507f8c2ae0d6cfb32a57c1f0bc99092ee8c3019",
    "0859342e2a3fe82d83fe3543b1a637bdc510f47ce12f044cddd416203ae7558a",
)[COMPENSATED_SUM]


def simulate(out_path, seed, hashseed):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(hashseed)
    subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "simulate",
            "--seed",
            str(seed),
            "--duration",
            DURATION,
            "--out",
            str(out_path),
        ],
        check=True,
        env=env,
        capture_output=True,
    )
    with open(out_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def tree_capture(out_path):
    """Four random apps on the ECMP tree: 2.5 s of traffic, 3 s of drain;
    298 of the 2,331 appends land below the log's last timestamp."""
    network, workload = scalability_sim(n_apps=4, seed=11)
    workload.start(0.5, 3.0)
    network.sim.run(until=6.0)
    save_log(network.log, str(out_path))
    with open(out_path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.slow
def test_lab_capture_matches_its_golden_digest(tmp_path):
    assert simulate(tmp_path / "lab.jsonl", seed=5, hashseed=1) == LAB_SHA256


def test_tree_capture_matches_its_golden_digest(tmp_path):
    assert tree_capture(tmp_path / "tree.jsonl") == TREE_SHA256


def test_lab_model_matches_its_golden_digest(tmp_path):
    path = tmp_path / "lab.jsonl"
    save_log(three_tier_lab(seed=5).run(0.5, float(DURATION)), str(path))
    with open(path, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == LAB_SHA256
    model = FlowDiff().model(read_log(str(path)))
    assert model.stability
    assert model_digest(model) == LAB_MODEL_SHA256


def test_tree_window_model_matches_its_golden_digest(tmp_path):
    path = tmp_path / "tree.jsonl"
    assert tree_capture(path) == TREE_SHA256
    log = read_log(str(path)).window(*TREE_WINDOW)
    model = FlowDiff().model(log, window=TREE_WINDOW, assess=False)
    assert model_digest(model) == TREE_WINDOW_MODEL_SHA256


#: A four-switch flow whose expiry reports give its duration as ``2`` and
#: ``2.0`` by turns, loaded; prints the duration of its one flow record.
FOUR_SWITCH_FLOW = """
import io, json
from repro.core.events import extract_flow_records
from repro.openflow.serialize import load_log

flow = {"src": "a", "dst": "b", "sport": 1000, "dport": 80, "proto": "tcp"}
lines = [
    {"type": "packet_in", "ts": 1.0 + i / 1000, "dpid": "s%d" % i, "flow": flow,
     "in_port": 1, "buffer_id": i}
    for i in range(4)
] + [
    {"type": "flow_removed", "ts": 5.0, "dpid": "s%d" % i, "match": flow,
     "duration": 2 if i % 2 else 2.0, "bytes": 10, "packets": 1}
    for i in range(4)
]
log = load_log(io.StringIO("".join(json.dumps(line) + "\\n" for line in lines)))
print(repr(extract_flow_records(log)[0].duration))
"""


def test_flow_record_counters_do_not_depend_on_the_hash_seed():
    """The join keeps the first maximum it meets while it walks a set of
    dpids, so the record's duration was ``2`` under some hash seeds and
    ``2.0`` under others. A ``float`` field now always decodes as one."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    durations = set()
    for hashseed in range(1, 7):
        env["PYTHONHASHSEED"] = str(hashseed)
        done = subprocess.run(
            [sys.executable, "-c", FOUR_SWITCH_FLOW],
            check=True,
            env=env,
            capture_output=True,
            text=True,
        )
        durations.add(done.stdout.strip())
    assert durations == {"2.0"}


@pytest.mark.slow
def test_same_seed_runs_are_byte_identical(tmp_path):
    first = simulate(tmp_path / "a.jsonl", seed=5, hashseed=1)
    second = simulate(tmp_path / "b.jsonl", seed=5, hashseed=2)
    assert first == second


@pytest.mark.slow
def test_different_seeds_diverge(tmp_path):
    first = simulate(tmp_path / "a.jsonl", seed=5, hashseed=1)
    other = simulate(tmp_path / "c.jsonl", seed=6, hashseed=1)
    assert first != other


@pytest.mark.slow
def test_fault_injection_is_deterministic_too(tmp_path):
    def run(path, hashseed):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = str(hashseed)
        subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "simulate",
                "--seed",
                "7",
                "--duration",
                DURATION,
                "--fault",
                "cpu",
                "--out",
                str(path),
            ],
            check=True,
            env=env,
            capture_output=True,
        )
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    assert run(tmp_path / "a.jsonl", 1) == run(tmp_path / "b.jsonl", 2)
