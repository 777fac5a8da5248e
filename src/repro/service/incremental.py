"""Incremental window modeling: the streaming half of the FlowDiff pipeline.

The batch monitor (:class:`repro.core.monitor.SlidingDiagnoser`) remodels
every window from scratch: slice the log, re-extract every flow record,
rebuild every signature. This module maintains one *open* window whose
signatures grow as control messages arrive, so that closing the window is
a cheap associative ``merge()`` over already-built per-slice partials —
the merge contracts ``tests/test_signature_contract.py`` pins.

The lifecycle of one :class:`IncrementalWindow`:

1. **Ingest** — each message is bucketed by timestamp: ``PacketIn`` into
   its time slice (the window is pre-split into ``slices`` equal
   intervals via :func:`~repro.analysis.timeseries.split_intervals`),
   ``FlowMod`` into the reply index, ``FlowRemoved`` and port-down
   ``PortStatus`` into window-global lists.
2. **Fold** — once the stream clock passes a slice's upper bound plus one
   ``occurrence_gap`` of grace, the slice's pins are grouped into
   occurrence runs (:func:`~repro.core.events.build_occurrence_runs`) and
   stitched onto runs left open by the previous slice with exactly the
   boundary predicate the batch extractor applies between reports.
3. **Seal** — a stitched run becomes a :class:`~repro.core.events.FlowArrival`
   once no future report can extend it (the stream clock is more than an
   ``occurrence_gap`` past its tail); sealed arrivals are assigned to the
   slice containing their arrival time.
4. **Build** — when a slice can no longer receive arrivals, its partial
   signatures are built (``keep_events``/``keep_times``/``keep_partials``
   forms) against the *expected* application groups — the grouping of the
   previous window — spreading signature construction across the window
   instead of spiking at the boundary.
5. **Close** — the per-slice partials merge into the window model. When
   the window's true groups differ from the expected ones, or anything
   made the window :attr:`dirty` (out-of-order timestamps, unpairable
   ``FlowMod`` traffic), the caller falls back to the batch path; the
   fallback produces byte-identical output, so correctness never depends
   on the optimistic path applying.

Equivalence with the batch path is exact, not approximate: every gap
decision is made once with the shared :func:`splits_occurrence`
predicate, slice partials retain the raw events/times/samples their
merges re-process, and the per-group partial builds mirror
:func:`~repro.core.signatures.application.build_application_signatures`
parameter for parameter. ``tests/test_service.py`` asserts the closed
window models are dict-identical to ``SlidingDiagnoser`` output.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.timeseries import split_intervals
from repro.core.events import (
    FlowArrival,
    FlowRecord,
    HopReport,
    arrival_sort_key,
    build_occurrence_runs,
    join_flow_records,
)
from repro.core.groups import ApplicationGroup, extract_groups
from repro.core.model import BehaviorModel
from repro.core.occurrence import splits_occurrence
from repro.core.signatures.application import (
    ApplicationSignature,
    SignatureConfig,
    build_application_signatures,
    group_records,
)
from repro.core.signatures.connectivity import ConnectivityGraph
from repro.core.signatures.correlation import PartialCorrelation
from repro.core.signatures.delay import DelayDistribution
from repro.core.signatures.flowstats import FlowStats
from repro.core.signatures.infrastructure import (
    InfrastructureSignature,
    build_infrastructure_signature,
)
from repro.core.signatures.interaction import ComponentInteraction
from repro.openflow.log import ControllerLog
from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PortStatus,
)

#: Per-slice application partials: (cg, ci, dd, pc) in partial form.
_AppParts = Tuple[
    ConnectivityGraph, ComponentInteraction, DelayDistribution, PartialCorrelation
]

#: How a closed window's model was produced. ``merged`` is the optimistic
#: incremental path; ``rebuilt`` re-runs signature construction from the
#: already-extracted records (grouping changed mid-window); ``fallback``
#: is the full batch remodel (the window went dirty).
STATUS_MERGED = "merged"
STATUS_REBUILT = "rebuilt"
STATUS_FALLBACK = "fallback"


@dataclass(frozen=True)
class WindowOutcome:
    """Everything a closed window hands to the diagnosis stream."""

    model: BehaviorModel
    records: List[FlowRecord]
    status: str
    groups: Tuple[ApplicationGroup, ...]


class IncrementalWindow:
    """One open ``[t_start, t_end)`` window accumulating control traffic.

    Messages must arrive in timestamp order; an out-of-order message (or
    ``FlowMod`` traffic :func:`~repro.core.events.partition_log` would
    decline) marks the window :attr:`dirty` and the owner takes
    the batch fallback for it. The raw message list is kept either way —
    it is what the fallback, re-baselining, and task matching consume.

    Args:
        t_start/t_end: the window bounds.
        config: signature construction knobs (shared with the batch path).
        slices: how many equal sub-intervals to fold the window into; more
            slices spread signature construction more evenly but add merge
            overhead at close.
        expected_groups: the application grouping partials are built
            against — normally the previous window's groups. When the
            closed window's true grouping differs, :meth:`close` rebuilds
            from records instead of merging.
    """

    def __init__(
        self,
        t_start: float,
        t_end: float,
        config: SignatureConfig,
        slices: int,
        expected_groups: Sequence[ApplicationGroup],
    ) -> None:
        if t_end <= t_start:
            raise ValueError(f"empty window [{t_start}, {t_end})")
        self.t_start = t_start
        self.t_end = t_end
        self._cfg = config
        self._gap = config.occurrence_gap
        self._n = max(1, int(slices))
        self._uppers = [hi for _, hi in split_intervals(t_start, t_end, self._n)]
        self.expected_groups: Tuple[ApplicationGroup, ...] = tuple(expected_groups)
        self._member_of: Dict[str, ApplicationGroup] = {}
        for grp in self.expected_groups:
            for host in grp.members:
                self._member_of[host] = grp

        self.raw: List[ControlMessage] = []
        self.dirty: Optional[str] = None
        self._pins: List[List[PacketIn]] = [[] for _ in range(self._n)]
        self._pin_idx = 0
        self._mods: Dict[int, FlowMod] = {}
        self._removed: List[FlowRemoved] = []
        self._port_down: List[Tuple[float, str, int]] = []
        #: Open occurrence runs carried across folded slices, per flow.
        self._open_runs: Dict[object, List[List[HopReport]]] = {}
        self._sealed: List[List[FlowArrival]] = [[] for _ in range(self._n)]
        self._parts: List[Optional[Tuple[Dict[str, _AppParts], InfrastructureSignature]]]
        self._parts = [None] * self._n
        self._folded = 0
        self._built = 0
        self._next_fold_ts = self._uppers[0] + self._gap
        #: Buffer ids of pins folded (mid-window) without a paired mod; a
        #: reply arriving after its pin's hop was frozen dirties the window.
        self._unpaired: Set[int] = set()
        self._last_ts: Optional[float] = None

    # -- ingest ----------------------------------------------------------

    def add(self, msg: ControlMessage) -> None:
        """Ingest one message with timestamp inside ``[t_start, t_end)``."""
        ts = msg.timestamp
        self.raw.append(msg)
        if self._last_ts is not None and ts < self._last_ts:
            self._mark_dirty("out_of_order")
        self._last_ts = ts
        kind = type(msg)
        if kind is PacketIn:
            idx = self._pin_idx
            uppers = self._uppers
            while idx < self._n - 1 and ts >= uppers[idx]:
                idx += 1
            self._pin_idx = idx
            self._pins[idx].append(msg)
        elif kind is FlowMod:
            reply_id = msg.in_reply_to
            if reply_id is None:
                self._mark_dirty("flowmod_without_reply_id")
            elif reply_id in self._mods:
                self._mark_dirty("duplicate_flowmod_reply_id")
            elif reply_id in self._unpaired:
                self._mark_dirty("late_flowmod_reply")
            else:
                self._mods[reply_id] = msg
        elif kind is FlowRemoved:
            self._removed.append(msg)
        elif kind is PortStatus:
            if not msg.live:
                self._port_down.append((msg.timestamp, msg.dpid, msg.port))
        if ts >= self._next_fold_ts and self.dirty is None:
            self._advance(ts)

    def _mark_dirty(self, reason: str) -> None:
        if self.dirty is None:
            self.dirty = reason

    # -- fold / seal / build --------------------------------------------

    def _advance(self, frontier: float) -> None:
        """Fold, seal, and build everything the stream clock has passed."""
        while (
            self._folded < self._n
            and frontier >= self._uppers[self._folded] + self._gap
        ):
            self._fold(self._folded, final=False)
        self._next_fold_ts = (
            self._uppers[self._folded] + self._gap
            if self._folded < self._n
            else float("inf")
        )
        # The seal bound is the earliest report that could still extend an
        # open run: the stream clock bounds *future* messages, but pins
        # already buffered in unfolded slices can precede it.
        seal_bound = frontier
        for k in range(self._folded, self._n):
            pins = self._pins[k]
            if pins:
                if pins[0].timestamp < seal_bound:
                    seal_bound = pins[0].timestamp
                break
        self._seal(seal_bound, final=False)
        self._build_ready(seal_bound)

    def _fold(self, k: int, final: bool) -> None:
        """Group slice ``k``'s pins into runs and stitch them on.

        A slice's head run continues the previous open tail when the
        boundary gap stays within ``occurrence_gap``, so every gap
        decision is made exactly once and exactly as the batch extractor
        would.
        """
        pins = self._pins[k]
        runs = build_occurrence_runs(pins, self._mods, self._gap)
        open_runs = self._open_runs
        for flow, flow_runs in runs.items():
            existing = open_runs.get(flow)
            if existing is None:
                open_runs[flow] = flow_runs
                continue
            head = flow_runs[0]
            tail = existing[-1]
            if not splits_occurrence(
                tail[-1].packet_in_at, head[0].packet_in_at, self._gap
            ):
                tail.extend(head)
                existing.extend(flow_runs[1:])
            else:
                existing.extend(flow_runs)
        if not final:
            mods = self._mods
            for pin in pins:
                if pin.buffer_id not in mods:
                    self._unpaired.add(pin.buffer_id)
        self._pins[k] = []
        self._folded = k + 1

    def _seal(self, frontier: float, final: bool) -> None:
        """Freeze runs no future report can extend into arrivals."""
        open_runs = self._open_runs
        if not open_runs:
            return
        uppers = self._uppers
        last_slice = self._n - 1
        for flow in list(open_runs):
            flow_runs = open_runs[flow]
            keep: Optional[List[List[HopReport]]] = None
            if not final:
                tail = flow_runs[-1]
                if not splits_occurrence(
                    tail[-1].packet_in_at, frontier, self._gap
                ):
                    keep = [tail]
                    flow_runs = flow_runs[:-1]
            for hops in flow_runs:
                arrival = FlowArrival(
                    flow=flow, time=hops[0].packet_in_at, hops=tuple(hops)
                )
                j = bisect_right(uppers, arrival.time)
                self._sealed[j if j <= last_slice else last_slice].append(arrival)
            if keep is None:
                del open_runs[flow]
            else:
                open_runs[flow] = keep

    def _build_ready(self, frontier: float) -> None:
        """Build partials for every slice whose arrival set is complete.

        A slice can still gain arrivals two ways: an unfolded pin starting
        a run inside it, or an open run whose head already lies in it
        sealing later. Both are bounded below by ``bound``.
        """
        bound = frontier
        for flow_runs in self._open_runs.values():
            head_ts = flow_runs[0][0].packet_in_at
            if head_ts < bound:
                bound = head_ts
        while self._built < self._folded and self._uppers[self._built] <= bound:
            self._build_slice(self._built)

    def _build_slice(self, j: int) -> None:
        """Build slice ``j``'s partial signatures against expected groups."""
        arrivals = sorted(self._sealed[j], key=arrival_sort_key)
        self._sealed[j] = arrivals
        member_of = self._member_of
        per_group: Dict[str, List[FlowArrival]] = {
            grp.key: [] for grp in self.expected_groups
        }
        for arrival in arrivals:
            src, dst = arrival.src, arrival.dst
            grp = member_of.get(src) or member_of.get(dst)
            if grp is not None and grp.owns_edge(src, dst):
                per_group[grp.key].append(arrival)
        cfg = self._cfg
        t0, t1 = self.t_start, self.t_end
        app: Dict[str, _AppParts] = {}
        for key, grp_arrivals in per_group.items():
            app[key] = (
                ConnectivityGraph.build(grp_arrivals),
                ComponentInteraction.build(grp_arrivals),
                DelayDistribution.build(
                    grp_arrivals,
                    window=cfg.dd_window,
                    bin_width=cfg.dd_bin_width,
                    keep_events=True,
                ),
                # PC series span the whole window (the merge re-buckets
                # against the same bounds), not the slice.
                PartialCorrelation.build(
                    grp_arrivals, t0, t1, epoch=cfg.epoch, keep_times=True
                ),
            )
        infra = build_infrastructure_signature(arrivals, keep_partials=True)
        self._parts[j] = (app, infra)
        self._built = j + 1

    # -- close -----------------------------------------------------------

    def close(self) -> Optional[WindowOutcome]:
        """Finish the window; ``None`` when dirty (caller takes fallback)."""
        if self.dirty is not None:
            return None
        while self._folded < self._n:
            self._fold(self._folded, final=True)
        self._seal(self.t_end, final=True)
        while self._built < self._n:
            self._build_slice(self._built)

        # Per-slice lists are each sorted and partition the window by
        # time, so their concatenation is the full sorted arrival stream.
        all_arrivals: List[FlowArrival] = []
        for slice_arrivals in self._sealed:
            all_arrivals.extend(slice_arrivals)
        records = join_flow_records(all_arrivals, self._removed)
        true_groups = tuple(
            extract_groups(all_arrivals, self._cfg.special_nodes)
        )
        t0, t1 = self.t_start, self.t_end
        cfg = self._cfg

        if true_groups == self.expected_groups:
            by_group = group_records(records, true_groups)
            app_sigs: Dict[str, ApplicationSignature] = {}
            for grp in true_groups:
                key = grp.key
                parts = [self._parts[j][0][key] for j in range(self._n)]  # type: ignore[index]
                app_sigs[key] = ApplicationSignature(
                    group=grp,
                    cg=ConnectivityGraph.merge([p[0] for p in parts]),
                    # FS joins arrivals with expiry counters window-wide,
                    # so it is built once from the joined records instead
                    # of merged from per-slice partials.
                    fs=FlowStats.build(by_group[key], t0, t1, cfg.epoch),
                    ci=ComponentInteraction.merge([p[1] for p in parts]),
                    dd=DelayDistribution.merge(
                        [p[2] for p in parts],
                        window=cfg.dd_window,
                        bin_width=cfg.dd_bin_width,
                    ),
                    pc=PartialCorrelation.merge(
                        [p[3] for p in parts], t0, t1, epoch=cfg.epoch
                    ),
                )
            merged_infra = InfrastructureSignature.merge(
                [self._parts[j][1] for j in range(self._n)]  # type: ignore[index]
            )
            infra = InfrastructureSignature(
                pt=merged_infra.pt,
                isl=merged_infra.isl,
                crt=merged_infra.crt,
                port_down_events=tuple(self._port_down),
            )
            status = STATUS_MERGED
        else:
            app_sigs = build_application_signatures(
                None, cfg, window=(t0, t1), records=records
            )
            infra = build_infrastructure_signature(
                [r.arrival for r in records],
                port_down_events=self._port_down,
            )
            status = STATUS_REBUILT

        model = BehaviorModel(
            app_signatures=app_sigs,
            infrastructure=infra,
            window=(t0, t1),
        )
        return WindowOutcome(
            model=model, records=records, status=status, groups=true_groups
        )

    def as_log(self) -> ControllerLog:
        """The window's raw messages as a (re-sorted) controller log."""
        return ControllerLog(self.raw)
