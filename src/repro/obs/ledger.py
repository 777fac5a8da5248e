"""The run ledger: an append-only, content-addressed perf history.

The ledger keeps *every* ``repro profile`` run: one JSONL line per
record, append-only (nothing here ever rewrites or deletes a line),
under a directory chosen with ``--ledger-dir``, so any two executions
of one workload can be compared phase by phase.

Identity is two-layered, both content-addressed:

* ``run_id`` — *what was run*: the capture/config fingerprint from
  :mod:`repro.core.persist` plus the seed. Re-running the same workload
  on a new commit produces a new record with the same ``run_id``, which
  is how records line up for comparison.
* ``record_id`` — *this execution*: a SHA-256 over the record's own
  canonical JSON (everything but the id itself). Tamper-evident and
  unique per append; every CLI surface accepts an unambiguous prefix.

Records carry the per-phase wall timings (the
:func:`~repro.obs.profile.phase_timings` dict, min-of-repeats), key
metrics, and optionally the folded profile behind a flamegraph.
:func:`gate_records` is the regression gate: per-phase comparison
against a baseline record with explicit noise tolerances, built so
``repro runs gate`` can exit nonzero on a slowdown.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry

#: Name of the append-only record file inside a ledger directory.
LEDGER_FILE = "ledger.jsonl"

#: Phases shorter than this are never gated — at single-millisecond
#: scale the scheduler owns the number, not the code under test.
DEFAULT_FLOOR_S = 0.005

#: Default per-phase regression tolerance, in percent. Generous on
#: purpose: the gate is meant to catch structural slowdowns (2×), not
#: to re-litigate scheduler jitter; tighten it per-invocation when the
#: baseline comes from the same machine.
DEFAULT_TOL_PCT = 25.0


class RunRecord:
    """One pipeline execution, as the ledger stores it."""

    def __init__(
        self,
        run_id: str,
        command: str,
        scenario: str,
        seed: Optional[int],
        messages: int,
        phases: Dict[str, float],
        total_s: float,
        metrics: Optional[Dict[str, float]] = None,
        folded: Optional[Dict[str, float]] = None,
        repeats: int = 1,
        noise_floor_pct: float = 0.0,
        created_at: Optional[str] = None,
        record_id: Optional[str] = None,
    ) -> None:
        self.run_id = run_id
        self.command = command
        self.scenario = scenario
        self.seed = seed
        self.messages = messages
        self.phases = dict(phases)
        self.total_s = total_s
        self.metrics = dict(metrics or {})
        self.folded = dict(folded) if folded else None
        self.repeats = repeats
        self.noise_floor_pct = noise_floor_pct
        self.created_at = created_at or time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.record_id = record_id or ""
        if not self.record_id:
            self.record_id = self.content_id()

    # -- serialization ---------------------------------------------------

    def to_dict(self, include_folded: bool = True) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "record_id": self.record_id,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "messages": self.messages,
            "phases": {k: round(v, 6) for k, v in sorted(self.phases.items())},
            "total_s": round(self.total_s, 6),
            "metrics": dict(sorted(self.metrics.items())),
            "repeats": self.repeats,
            "noise_floor_pct": round(self.noise_floor_pct, 3),
        }
        if include_folded and self.folded is not None:
            out["folded"] = {
                k: round(v, 6) for k, v in sorted(self.folded.items())
            }
        return out

    def summary(self) -> Dict[str, Any]:
        """The lightweight listing row (no phases, no folded profile)."""
        return {
            "record_id": self.record_id,
            "run_id": self.run_id,
            "created_at": self.created_at,
            "command": self.command,
            "scenario": self.scenario,
            "seed": self.seed,
            "messages": self.messages,
            "total_s": round(self.total_s, 6),
            "phases": len(self.phases),
            "profiled": self.folded is not None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=data["run_id"],
            command=data.get("command", "?"),
            scenario=data.get("scenario", "?"),
            seed=data.get("seed"),
            messages=int(data.get("messages", 0)),
            phases={k: float(v) for k, v in data.get("phases", {}).items()},
            total_s=float(data.get("total_s", 0.0)),
            metrics=data.get("metrics"),
            folded=data.get("folded"),
            repeats=int(data.get("repeats", 1)),
            noise_floor_pct=float(data.get("noise_floor_pct", 0.0)),
            created_at=data.get("created_at"),
            record_id=data.get("record_id"),
        )

    def content_id(self) -> str:
        """The content address: SHA-256 of everything but the id itself."""
        payload = self.to_dict()
        payload.pop("record_id", None)
        canonical = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(canonical).hexdigest()[:12]


class AmbiguousRecordError(KeyError):
    """A record-id prefix that matches more than one ledger record."""


class RunLedger:
    """Append-only record store under one directory.

    Usage::

        ledger = RunLedger("perf-ledger")
        ledger.append(record)
        for rec in ledger.records():
            ...
    """

    def __init__(
        self, root: str, metrics: MetricsRegistry = NOOP_REGISTRY
    ) -> None:
        self.root = root
        self.path = os.path.join(root, LEDGER_FILE)
        self._m_append = metrics.counter("runs_records_total", status="append")
        self._m_skipped = metrics.counter("runs_records_total", status="skipped")

    def append(self, record: RunRecord) -> RunRecord:
        """Append one record (a single ``write`` of one JSON line)."""
        os.makedirs(self.root, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
        self._m_append.inc()
        return record

    def records(self) -> List[RunRecord]:
        """Every readable record, oldest first.

        A torn trailing line (crash mid-append) or hand-mangled line is
        skipped with a warning — append-only files must stay readable
        past local damage.
        """
        if not os.path.exists(self.path):
            return []
        out: List[RunRecord] = []
        with open(self.path, encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.strip():
                    continue
                try:
                    out.append(RunRecord.from_dict(json.loads(raw)))
                except (ValueError, KeyError, TypeError) as exc:
                    self._m_skipped.inc()
                    warnings.warn(
                        f"skipping unreadable ledger line "
                        f"{self.path}:{lineno}: {exc}",
                        stacklevel=2,
                    )
        return out

    def get(self, prefix: str) -> RunRecord:
        """The record whose id starts with ``prefix``.

        Raises:
            KeyError: when no record matches.
            AmbiguousRecordError: when several distinct records match.
        """
        matches = [
            r for r in self.records() if r.record_id.startswith(prefix)
        ]
        if not matches:
            raise KeyError(f"no ledger record matches {prefix!r}")
        if len({r.record_id for r in matches}) > 1:
            ids = ", ".join(sorted({r.record_id for r in matches}))
            raise AmbiguousRecordError(
                f"ambiguous record prefix {prefix!r}: {ids}"
            )
        return matches[-1]

    def latest(self, run_id: Optional[str] = None) -> Optional[RunRecord]:
        """The newest record, optionally restricted to one ``run_id``."""
        best: Optional[RunRecord] = None
        for record in self.records():
            if run_id is not None and record.run_id != run_id:
                continue
            best = record
        return best


# ----------------------------------------------------------------------
# Comparison and the regression gate
# ----------------------------------------------------------------------


def compare_records(
    baseline: RunRecord, current: RunRecord
) -> List[Dict[str, Any]]:
    """Per-phase delta rows between two records (baseline vs current).

    Every phase present in either record appears; a phase missing on one
    side reports ``None`` there and a ``delta_pct`` of ``None``.
    """
    rows: List[Dict[str, Any]] = []
    names = sorted(set(baseline.phases) | set(current.phases))
    for name in names:
        base = baseline.phases.get(name)
        cur = current.phases.get(name)
        delta: Optional[float] = None
        if base is not None and cur is not None and base > 0:
            delta = (cur / base - 1.0) * 100.0
        rows.append(
            {"phase": name, "baseline_s": base, "current_s": cur, "delta_pct": delta}
        )
    rows.append(
        {
            "phase": "(total)",
            "baseline_s": baseline.total_s,
            "current_s": current.total_s,
            "delta_pct": (
                (current.total_s / baseline.total_s - 1.0) * 100.0
                if baseline.total_s > 0
                else None
            ),
        }
    )
    return rows


class GateResult:
    """The outcome of one regression gate: pass/fail plus the evidence."""

    def __init__(
        self,
        ok: bool,
        regressions: List[Dict[str, Any]],
        checked: List[Dict[str, Any]],
        tolerance_pct: float,
        floor_s: float,
    ) -> None:
        self.ok = ok
        self.regressions = regressions
        self.checked = checked
        self.tolerance_pct = tolerance_pct
        self.floor_s = floor_s

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "tolerance_pct": self.tolerance_pct,
            "floor_s": self.floor_s,
            "regressions": self.regressions,
            "checked": self.checked,
        }

    def render(self) -> str:
        lines = [
            f"perf gate: tolerance +{self.tolerance_pct:g}% "
            f"(floor {self.floor_s * 1000:g}ms), "
            f"{len(self.checked)} phase(s) checked"
        ]
        for row in self.checked:
            mark = "FAIL" if row in self.regressions else "  ok"
            lines.append(
                f"  {mark} {row['phase']:<28} "
                f"{row['baseline_s'] * 1000:>10.2f}ms -> "
                f"{row['current_s'] * 1000:>10.2f}ms "
                f"({row['delta_pct']:+.1f}%)"
            )
        if self.ok:
            lines.append("gate PASSED")
        else:
            lines.append(
                f"gate FAILED: {len(self.regressions)} phase(s) regressed "
                "beyond tolerance"
            )
        return "\n".join(lines)


def gate_records(
    current: RunRecord,
    baseline: RunRecord,
    tolerance_pct: float = DEFAULT_TOL_PCT,
    floor_s: float = DEFAULT_FLOOR_S,
) -> GateResult:
    """Fail when any shared phase (or the total) regressed past tolerance.

    The effective tolerance is ``max(tolerance_pct, noise floors)`` of
    both records — a baseline whose own repeats spread 40% cannot
    credibly flag a 25% delta, and min-of-repeats timing makes those
    floors explicit rather than implied. A phase only fails when both
    the relative threshold *and* the absolute ``floor_s`` are exceeded,
    so microsecond phases never gate the build. Phases that appear or
    disappear are reported in ``checked`` rows but never fail the gate
    (renames are a code review concern, not a perf regression).
    """
    effective = max(
        tolerance_pct, baseline.noise_floor_pct, current.noise_floor_pct
    )
    checked: List[Dict[str, Any]] = []
    regressions: List[Dict[str, Any]] = []
    pairs = [
        (name, baseline.phases[name], current.phases[name])
        for name in sorted(set(baseline.phases) & set(current.phases))
    ]
    pairs.append(("(total)", baseline.total_s, current.total_s))
    for name, base, cur in pairs:
        if base < floor_s and cur < floor_s:
            continue
        delta_pct = (cur / base - 1.0) * 100.0 if base > 0 else 0.0
        row = {
            "phase": name,
            "baseline_s": base,
            "current_s": cur,
            "delta_pct": delta_pct,
        }
        checked.append(row)
        if delta_pct > effective and (cur - base) > floor_s:
            regressions.append(row)
    return GateResult(
        ok=not regressions,
        regressions=regressions,
        checked=checked,
        tolerance_pct=effective,
        floor_s=floor_s,
    )


def render_records_table(records: Iterable[RunRecord]) -> str:
    """The ``repro runs list`` table."""
    rows = list(records)
    if not rows:
        return "(empty ledger)"
    lines = [
        f"{'record':<14} {'run':<18} {'created':<24} {'command':<9} "
        f"{'scenario':<26} {'total s':>9} {'msgs':>7} {'prof':>5}"
    ]
    for r in rows:
        lines.append(
            f"{r.record_id:<14} {r.run_id:<18} {r.created_at:<24} "
            f"{r.command:<9} {r.scenario:<26} {r.total_s:>9.4f} "
            f"{r.messages:>7d} {'yes' if r.folded else '-':>5}"
        )
    return "\n".join(lines)


def render_compare_table(rows: List[Dict[str, Any]]) -> str:
    """The ``repro runs compare`` table."""
    lines = [f"{'phase':<30} {'baseline ms':>12} {'current ms':>12} {'delta':>8}"]
    for row in rows:
        base = (
            f"{row['baseline_s'] * 1000:.2f}"
            if row["baseline_s"] is not None
            else "-"
        )
        cur = (
            f"{row['current_s'] * 1000:.2f}"
            if row["current_s"] is not None
            else "-"
        )
        delta = (
            f"{row['delta_pct']:+.1f}%" if row["delta_pct"] is not None else "-"
        )
        lines.append(f"{row['phase']:<30} {base:>12} {cur:>12} {delta:>8}")
    return "\n".join(lines)
