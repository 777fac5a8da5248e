"""Signature stability assessment (Section III-B, last paragraph).

"To determine whether a signature is stable, FlowDiff partitions the log
into several time intervals and computes the application signatures for
each interval. If a signature does not change significantly across all
intervals, we consider it stable and use it during problem detection."

Unstable signatures (e.g. component interaction under non-linear load
balancing, Section V-B1) are excluded from diffing so they cannot raise
false debugging flags.

Each interval is modelled from its own messages, exactly as the paper
says: ``log.window(a, b)`` cuts the interval out of the log and
:func:`~repro.core.signatures.application.build_application_signatures`
models it, truncating flow runs and ``FlowMod`` pairings at the interval
bounds. No partial state is carried from one interval to the next.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.timeseries import split_intervals
from repro.core.events import FlowArrival
from repro.core.signatures.application import (
    ApplicationSignature,
    SignatureConfig,
    build_application_signatures,
)
from repro.core.signatures.base import SignatureKind
from repro.openflow.log import ControllerLog


@dataclass(frozen=True)
class StabilityThresholds:
    """Maximum across-interval distance for a signature to count as stable.

    Distances use each signature's ``distance`` semantics: normalized edge
    churn for CG, normalized-share drift for CI, dominant-peak shift in
    seconds for DD, correlation delta for PC, and max relative scalar
    change for FS. FS and PC tolerate more because short intervals carry
    sampling noise.
    """

    cg: float = 0.35
    fs: float = 0.6
    ci: float = 0.3
    dd: float = 0.03
    pc: float = 0.5


def _match_interval_signature(
    group_members: frozenset,
    interval_sigs: Dict[str, ApplicationSignature],
) -> Optional[ApplicationSignature]:
    """The interval signature whose group overlaps ``group_members`` most.

    Ties on overlap break to the smallest group key, never to dict
    insertion order, so the verdict is independent of how the interval
    dict happened to be assembled (the pipeline emits sorted-key dicts,
    for which this is the historical behavior; persisted or hand-built
    dicts may not be sorted).
    """
    best_key: Optional[str] = None
    best_overlap = 0
    for key, sig in interval_sigs.items():
        overlap = len(sig.group.members & group_members)
        if overlap == 0:
            continue
        if overlap > best_overlap or (
            overlap == best_overlap and best_key is not None and key < best_key
        ):
            best_key, best_overlap = key, overlap
    return interval_sigs[best_key] if best_key is not None else None


def _member_index(
    interval_sigs: Dict[str, ApplicationSignature],
) -> Dict[str, List[str]]:
    """Inverted index: member node -> group keys containing it."""
    index: Dict[str, List[str]] = {}
    for key, sig in interval_sigs.items():
        for member in sig.group.members:
            index.setdefault(member, []).append(key)
    return index


def _match_with_index(
    group_members: frozenset,
    interval_sigs: Dict[str, ApplicationSignature],
    index: Dict[str, List[str]],
) -> Optional[ApplicationSignature]:
    """Index-accelerated :func:`_match_interval_signature`.

    Visits only the groups that actually share a member instead of
    intersecting every interval group — the full scan is
    O(groups x |members|) per query and dominated ``assess_stability``
    on wide windows. Tie-breaking is identical: most overlap, then
    smallest group key.
    """
    overlaps: Dict[str, int] = {}
    for member in group_members:
        for key in index.get(member, ()):
            overlaps[key] = overlaps.get(key, 0) + 1
    if not overlaps:
        return None
    best_key = min(overlaps, key=lambda key: (-overlaps[key], key))
    return interval_sigs[best_key]


def assess_stability(
    log: ControllerLog,
    config: Optional[SignatureConfig] = None,
    parts: int = 3,
    thresholds: Optional[StabilityThresholds] = None,
    window: Optional[Tuple[float, float]] = None,
    full: Optional[Dict[str, ApplicationSignature]] = None,
    # Unread: bench/batch_tree.py, frozen with the benchmark definition,
    # still passes arrivals=; drop both together.
    arrivals: Optional[List[FlowArrival]] = None,
) -> Dict[Tuple[str, SignatureKind], bool]:
    """Per (group, kind) stability verdicts over ``parts`` sub-intervals.

    Signatures observed in fewer than two sub-intervals are left unjudged
    (absent from the result, treated as stable by the behavior model) —
    sparse data is not evidence of instability.

    Args:
        full: precomputed full-window application signatures (what
            ``FlowDiff.model`` already built); when omitted they are
            rebuilt here from the log.
        arrivals: accepted and never read.

    Raises:
        ValueError: if ``parts`` < 2.
    """
    if parts < 2:
        raise ValueError(f"stability assessment needs >= 2 parts, got {parts}")
    config = config or SignatureConfig()
    thresholds = thresholds or StabilityThresholds()
    if window is None:
        window = log.time_span
    t_start, t_end = window
    if t_end <= t_start:
        return {}
    if full is None:
        full = build_application_signatures(log, config, window=window)
    per_interval = [
        build_application_signatures(log.window(a, b), config, window=(a, b))
        for a, b in split_intervals(t_start, t_end, parts)
    ]

    indexes = [_member_index(sigs) for sigs in per_interval]
    verdicts: Dict[Tuple[str, SignatureKind], bool] = {}
    for key, signature in full.items():
        matched = [
            m
            for m in (
                _match_with_index(signature.group.members, sigs, index)
                for sigs, index in zip(per_interval, indexes)
            )
            if m is not None
        ]
        if len(matched) < 2:
            continue
        worst_cg = worst_fs = worst_ci = worst_dd = worst_pc = 0.0
        for a, b in zip(matched, matched[1:]):
            worst_cg = max(worst_cg, a.cg.distance(b.cg))
            worst_fs = max(worst_fs, a.fs.distance(b.fs))
            worst_ci = max(worst_ci, a.ci.distance(b.ci))
            worst_dd = max(worst_dd, a.dd.distance(b.dd))
            worst_pc = max(worst_pc, a.pc.distance(b.pc))
        verdicts[(key, SignatureKind.CG)] = worst_cg <= thresholds.cg
        verdicts[(key, SignatureKind.FS)] = worst_fs <= thresholds.fs
        verdicts[(key, SignatureKind.CI)] = worst_ci <= thresholds.ci
        verdicts[(key, SignatureKind.DD)] = worst_dd <= thresholds.dd
        verdicts[(key, SignatureKind.PC)] = worst_pc <= thresholds.pc
    return verdicts
