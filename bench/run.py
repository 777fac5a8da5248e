"""The repo benchmark: one command, four workloads, every metric by name.

    python3 bench/run.py                                  # all workloads, untraced
    python3 bench/run.py --trace 1                        # ... and the per-layer run
    python3 bench/run.py --workload batch_tree --seed 11 --seconds 20 --trace 0
    python3 bench/run.py --selfcheck                      # the suite twice, compared

With ``--workload`` the run happens in this process (which the caller
starts fresh, so the heap is clean and ``ru_maxrss`` is the workload's
own) and the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Without it every
workload runs in a fresh subprocess of its own. ``BENCHMARK.json`` at the
repository root is the contract: it names the workloads, every metric
and the bound each end-to-end metric may worsen by.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
CONTRACT_PATH = os.path.join(REPO_ROOT, "BENCHMARK.json")

#: Inputs and expected outputs are built this many times in an untraced
#: run; ``setup_s`` is the median.
SETUP_REPS = 3


def load_contract() -> Dict[str, Any]:
    with open(CONTRACT_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def units_of(contract: Dict[str, Any], section: str) -> Dict[str, str]:
    return {row["name"]: row["unit"] for row in contract[section]}


# -- one workload, in this process -----------------------------------------


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    sys.path.insert(0, os.path.join(REPO_ROOT, "src"))
    import batch_tree
    import simulate_tree
    import stream
    from harness import Outcome, peak_rss_mib, timed

    module, extra = {
        "batch_tree": (batch_tree, {}),
        "stream_clean": (stream, {"dirty": False}),
        "stream_dirty": (stream, {"dirty": True}),
        "simulate_tree": (simulate_tree, {}),
    }[args.workload]
    workdir = os.path.join(RESULTS_DIR, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    out = Outcome()
    try:
        setups: List[float] = []
        inputs = None
        for attempt in range(1 if args.trace else SETUP_REPS):
            # Each set-up starts from a collected heap: with the previous
            # one's networks still waiting for the cyclic collector, peak
            # RSS moved 8 % with the seed (whether a collection happened
            # to fall before or after the next network was built).
            inputs = None
            gc.collect()
            target = os.path.join(workdir, f"setup{attempt}")
            os.makedirs(target)
            elapsed, inputs = timed(module.setup, args.seed, args.scale, target, **extra)
            setups.append(elapsed)

        # The inputs belong to the benchmark, not to the program: left in
        # the collector's sight, two in-memory captures (a million objects)
        # made every full collection a 100 ms pause inside the service.
        gc.collect()
        gc.freeze()

        if not args.trace:
            module.run(inputs, args.seconds, out)
            out.metrics["setup_s"] = (median(setups), "s")
            out.metrics["peak_rss_mb"] = (peak_rss_mib(), "MiB")
        else:
            # Spans are taken with the cyclic collector paused (the passes
            # collect between themselves): a collection pause would be
            # billed to whichever layer it happens to land in, and parts
            # would stop reconciling with the whole for no reason of theirs.
            gc.disable()
            module.run_traced(inputs, out, RESULTS_DIR)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = units_of(contract, "per_layer" if args.trace else "end_to_end")
    strangers = {
        name: unit for name, (_, unit) in out.metrics.items() if declared.get(name) != unit
    }
    if strangers:
        raise RuntimeError(f"not declared so in BENCHMARK.json: {strangers}")
    # A layer this workload never calls did no work in it: reported as 0,
    # which is the evidence that the workload bypasses the layer.
    metrics = {
        name: {"value": out.metrics.get(name, (0.0, unit))[0], "unit": unit}
        for name, unit in declared.items()
    }

    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        scale=args.scale,
        trace=args.trace,
        measured=sorted(out.metrics),
        exact=out.exact,
        details=out.details,
        failures=out.failures,
    )
    with open(record_path(args.workload, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"# {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for key, value in sorted(out.details.items()):
        print(f"#   {key}: {json.dumps(value, sort_keys=True)}")
    for name in sorted(out.metrics):
        value, unit = out.metrics[name]
        print(f"  {name:<52} {value:>16.6g} {unit}")
    print(f"  {'failed_share':<52} {out.failed / out.attempted:>16.6g} ratio"
          f"   ({out.failed} of {out.attempted} operations)")
    for failure in out.failures:
        print(f"  FAILED {failure}")
    print(json.dumps(result), flush=True)
    return 0 if out.failed == 0 else 1


def record_path(workload: str, trace: int) -> str:
    return os.path.join(RESULTS_DIR, f"{workload}-trace{trace}.json")


# -- every workload, each in a fresh subprocess ----------------------------


def spawn(workload: str, trace: int, args: argparse.Namespace) -> Dict[str, Any]:
    """Run one workload in a fresh interpreter; relay what it prints and
    return the record it wrote."""
    command = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
        "--scale", str(args.scale),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode not in (0, 1):
        raise SystemExit(f"{workload} (trace {trace}) exited with {done.returncode}")
    with open(record_path(workload, trace), encoding="utf-8") as fh:
        return json.load(fh)


def run_suite(
    args: argparse.Namespace, contract: Dict[str, Any], traces: Tuple[int, ...]
) -> Dict[Tuple[str, int], Dict[str, Any]]:
    return {
        (row["name"], trace): spawn(row["name"], trace, args)
        for row in contract["workloads"]
        for trace in traces
    }


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    records = run_suite(args, contract, (0, 1) if args.trace else (0,))
    failed = sum(record["failed"] for record in records.values())
    attempted = sum(record["attempted"] for record in records.values())
    suite = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "runs": list(records.values()),
    }
    with open(os.path.join(RESULTS_DIR, "suite.json"), "w", encoding="utf-8") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
    print(f"# {len(records)} runs, {failed} of {attempted} operations failed")
    return 0 if failed == 0 else 1


# -- the suite twice on the same code and seed -----------------------------


def selfcheck(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Fail unless two runs of the suite agree: end-to-end medians within
    their own bound, exact counts identical, nothing failed. Prints the
    spread of every metric, so one that cannot hold its bound is seen
    (and moved to the layer table) before it is shipped as a gate."""
    first = run_suite(args, contract, (0, 1))
    second = run_suite(args, contract, (0, 1))
    bounds = {row["name"]: row["bound"] for row in contract["end_to_end"]}
    problems: List[str] = []
    print(f"# selfcheck on {platform.python_version()}, {os.cpu_count()} cpus, seed {args.seed}")
    print(f"  {'workload':<14} {'metric':<50} {'first':>14} {'second':>14} {'spread':>8}")
    for key in first:
        workload, trace = key
        a, b = first[key], second[key]
        if a["failed"] or b["failed"]:
            problems.append(f"{workload} trace {trace}: failed operations")
        if a["exact"] != b["exact"]:
            differing = sorted(k for k in a["exact"] if a["exact"][k] != b["exact"].get(k))
            problems.append(f"{workload} trace {trace}: exact values differ: {differing}")
        for name, cell in a["metrics"].items():
            x, y = cell["value"], b["metrics"][name]["value"]
            if x == 0 and y == 0:
                continue
            spread = abs(x - y) / max(abs(x), abs(y))
            flag = ""
            if name in bounds and spread > bounds[name]:
                flag = "  > bound"
                problems.append(f"{workload} {name}: spread {spread:.1%} > {bounds[name]:.0%}")
            elif name.endswith("py_calls") and x != y:
                flag = "  not exact"
            print(f"  {workload:<14} {name:<50} {x:>14.6g} {y:>14.6g} {spread:>7.1%}{flag}")
    for problem in problems:
        print(f"SELFCHECK FAILED {problem}")
    print("# selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv: Optional[List[str]] = None) -> int:
    contract = load_contract()
    names = [row["name"] for row in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every capture's traffic duration (smoke tests)")
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print(f"no program to measure: {REPO_ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    if args.selfcheck:
        return selfcheck(args, contract)
    if args.workload:
        return run_one(args, contract)
    return run_all(args, contract)


if __name__ == "__main__":
    sys.exit(main())
