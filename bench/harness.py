"""Measurement plumbing shared by the four workloads.

Everything here measures the program *from outside*: a :class:`Trace`
records spans around the benchmark's own calls into the layers' public
functions, :func:`repetitions` paces a timed loop, and :class:`Outcome`
carries what one workload run produced back to ``run.py``.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]

#: Timed repetitions an untraced loop makes at least, whatever ``--seconds``.
MIN_TIMED = 3
#: The traced run repeats its passes this often and keeps, layer by layer,
#: the fastest: one pass alone moved 25-50 % between runs on a busy box.
TRACED_REPS = 3


@dataclass
class Outcome:
    """One workload run: metrics, the operation ledger, and side details.

    ``exact`` holds values that must repeat bit for bit on the same code
    and seed (event counts, digests); ``details`` holds sizes, quartiles
    and sample counts that explain the metrics but are not compared.
    """

    metrics: Metrics = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    exact: Dict[str, Any] = field(default_factory=dict)
    details: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        """Count one attempted operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


class Trace:
    """In-memory spans (name, start, end, parent, repetition) plus counts.

    Disabled, :meth:`call` is a plain call, so traced and untraced runs
    drive the layers through the same code. In ``profile`` mode each
    :meth:`call` runs under its own ``cProfile`` and only the number of
    Python-level function calls is kept: a deterministic secondary that
    shows a regression when wall clock cannot.
    """

    def __init__(self, enabled: bool = True, profile: bool = False) -> None:
        self.enabled = enabled
        self.profile = profile
        self.rep = 0
        self.spans: List[Dict[str, Any]] = []
        #: profile mode only: layer -> Python-level function calls
        self.py_calls: Dict[str, int] = {}
        self._stack: List[int] = []

    @property
    def recording(self) -> bool:
        return self.enabled and not self.profile

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.recording:
            yield
            return
        record = {
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "rep": self.rep,
            "counts": {},
            "start": time.perf_counter(),
            "end": None,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run one call into a layer under a span (or under cProfile)."""
        if self.profile:
            profiler = cProfile.Profile()
            try:
                return profiler.runcall(fn, *args, **kwargs)
            finally:
                profiler.create_stats()
                calls = sum(row[1] for row in profiler.stats.values())  # type: ignore[attr-defined]
                self.py_calls[name] = self.py_calls.get(name, 0) + calls
        with self.span(name):
            return fn(*args, **kwargs)

    def relabel(self, name: Optional[str] = None, **counts: Any) -> None:
        """Rename the span just closed (its kind is only known from what
        the call returned) and attach counts to it."""
        if self.recording:
            if name is not None:
                self.spans[-1]["name"] = name
            self.spans[-1]["counts"].update(counts)

    # -- reading the spans back ------------------------------------------

    def count(self, name: str, key: str) -> int:
        """``key`` summed over the ``name`` spans of one repetition (every
        repetition does the same work, so the first stands for all)."""
        return sum(
            s["counts"][key] for s in self.spans if s["name"] == name and s["rep"] == 0
        )

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Time under ``name`` in the repetition that spent least there.

        Traced passes repeat identical work and the box's noise only ever
        adds, so the fastest repetition is the layer's cost; see
        :func:`fastest`. A layer no repetition entered costs 0.
        """
        per_rep: Dict[int, float] = {}
        for s in self.spans:
            if s["name"] == name:
                per_rep[s["rep"]] = per_rep.get(s["rep"], 0.0) + s["end"] - s["start"]
        return min(per_rep.values(), default=0.0)

    def unattributed_pct(self, root: str) -> float:
        """Share of the ``root`` spans no child span accounts for.

        A layer's self time is its span minus its children, so the self
        times of everything below a root sum to the root's direct
        children; what is left is the benchmark's own glue.
        """
        whole = covered = 0.0
        for index, record in enumerate(self.spans):
            if record["name"] != root:
                continue
            whole += record["end"] - record["start"]
            covered += sum(
                child["end"] - child["start"]
                for child in self.spans
                if child["parent"] == index
            )
        return (whole - covered) / whole * 100.0 if whole > 0 else 0.0

    def write(self, path: str, py_calls: Dict[str, int]) -> None:
        """Spans of this trace plus the call counts of the profiled pass."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "py_calls": py_calls}, fh)


NO_TRACE = Trace(enabled=False)


def repetitions(seconds: float) -> Iterator[int]:
    """Yield repetition ids for a loop that measures for ``seconds``.

    Repetition 0 is the warm-up (imports, lazy caches, allocator growth)
    and is run inside the budget but never reported. The loop goes on
    while another repetition as long as the last one still fits, and in
    any case until ``MIN_TIMED`` timed repetitions exist. Garbage from the
    previous repetition is collected before each one starts.
    """
    start = time.perf_counter()
    rep = 0
    last = 0.0
    while rep <= MIN_TIMED or time.perf_counter() + last <= start + seconds:
        gc.collect()
        began = time.perf_counter()
        yield rep
        last = time.perf_counter() - began
        rep += 1


def fastest(values: Sequence[float]) -> float:
    """The fastest of repeated timings of the *same* work.

    On a shared box identical work runs 1.0-1.7x its quiet-time cost for
    seconds to minutes at a time (neighbours; the noise only ever adds),
    and the median of a 20 s run moves with it: over ten runs its spread
    was 9-15 % of its median when the fastest repetition's was 2-4 %. So
    the closed loops report the fastest repetition; median, quartiles and
    every sample stay in the record file.
    """
    return min(values)


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1) of a non-empty sample."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[rank]


def summary(values: Sequence[float]) -> Dict[str, Any]:
    """Median, quartiles, sample count and the samples themselves, for
    the details file."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": [round(v, 6) for v in values],
    }


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this process (KiB on Linux) in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def file_sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def pct_over(value: float, base: float) -> float:
    """``value`` relative to ``base`` as a signed percentage."""
    return (value - base) / base * 100.0 if base > 0 else 0.0


def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[float, Any]:
    began = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - began, out


def best_of(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> float:
    """Seconds the fastest of ``TRACED_REPS`` identical calls took."""
    return fastest([timed(fn, *args, **kwargs)[0] for _ in range(TRACED_REPS)])
