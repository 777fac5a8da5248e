"""Incremental window extraction: the streaming half of the FlowDiff pipeline.

The batch monitor (:class:`repro.core.monitor.SlidingDiagnoser`) remodels
every window from scratch: slice the log, re-extract every flow record,
build every signature. This module maintains one *open* window whose flow
arrivals are extracted as control messages arrive, so that closing the
window is the join and the signature build only — through the same
builder batch uses; no signature has a streaming form.

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
   ``occurrence_gap`` past its tail).
4. **Close** — the sealed arrivals are sorted, joined with the window's
   expiry reports and handed to
   :func:`~repro.core.signatures.application.build_application_signatures`
   and
   :func:`~repro.core.signatures.infrastructure.build_infrastructure_signature`
   (status ``merged``). When anything made the window :attr:`dirty`
   (out-of-order timestamps, unpairable ``FlowMod`` traffic), the caller
   re-extracts from the raw messages instead (status ``fallback``); that
   produces byte-identical output, so correctness never depends on the
   incremental extraction applying.

Equivalence with the batch path is exact, not approximate: every gap
decision is made once with the shared :func:`splits_occurrence`
predicate, and everything after extraction is the batch code.
``tests/test_service.py`` asserts the closed window models are
dict-identical to ``SlidingDiagnoser`` output.
"""

from __future__ import annotations

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
from repro.core.groups import ApplicationGroup
from repro.core.model import BehaviorModel
from repro.core.occurrence import splits_occurrence
from repro.core.signatures.application import (
    SignatureConfig,
    build_application_signatures,
)
from repro.core.signatures.infrastructure import build_infrastructure_signature
from repro.openflow.log import ControllerLog
from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowRemoved,
    PacketIn,
    PortStatus,
)

#: How a closed window's model was produced. ``merged``: closed from the
#: incrementally stitched arrivals; ``fallback``: the window went dirty and
#: was re-extracted from its raw messages.
STATUS_MERGED = "merged"
# Never produced: bench/stream.py still imports it for its status tally
# and bench/ is frozen outside benchmark PRs; drop both together.
STATUS_REBUILT = "rebuilt"
STATUS_FALLBACK = "fallback"


@dataclass(frozen=True)
class WindowOutcome:
    """Everything a closed window hands to the diagnosis stream."""

    model: BehaviorModel
    records: List[FlowRecord]
    status: str
    # Read only by bench/stream.py, which hands it to the next window as
    # ``expected_groups``; drop both together in a benchmark PR.
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
        slices: how many equal sub-intervals to fold the window into —
            the cadence at which buffered pins become stitched runs.
        expected_groups: accepted and ignored — nothing reads it.
    """

    def __init__(
        self,
        t_start: float,
        t_end: float,
        config: SignatureConfig,
        slices: int,
        # Unread: bench/stream.py still passes it positionally and bench/
        # is frozen outside benchmark PRs; drop both together.
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

        self.raw: List[ControlMessage] = []
        self.dirty: Optional[str] = None
        self._pins: List[List[PacketIn]] = [[] for _ in range(self._n)]
        self._pin_idx = 0
        self._mods: Dict[int, FlowMod] = {}
        self._removed: List[FlowRemoved] = []
        self._port_down: List[Tuple[float, str, int]] = []
        #: Open occurrence runs carried across folded slices, per flow.
        self._open_runs: Dict[object, List[List[HopReport]]] = {}
        self._sealed: List[FlowArrival] = []
        self._folded = 0
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

    # -- fold / seal -----------------------------------------------------

    def _advance(self, frontier: float) -> None:
        """Fold and seal everything the stream clock has passed."""
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
                self._sealed.append(
                    FlowArrival(flow=flow, time=hops[0].packet_in_at, hops=tuple(hops))
                )
            if keep is None:
                del open_runs[flow]
            else:
                open_runs[flow] = keep

    # -- close -----------------------------------------------------------

    def close(self) -> Optional[WindowOutcome]:
        """Finish the window; ``None`` when dirty (caller takes fallback)."""
        if self.dirty is not None:
            return None
        while self._folded < self._n:
            self._fold(self._folded, final=True)
        self._seal(self.t_end, final=True)
        arrivals = sorted(self._sealed, key=arrival_sort_key)
        records = join_flow_records(arrivals, self._removed)
        window = (self.t_start, self.t_end)
        model = BehaviorModel(
            app_signatures=build_application_signatures(
                None, self._cfg, window=window, records=records
            ),
            infrastructure=build_infrastructure_signature(
                arrivals, port_down_events=self._port_down
            ),
            window=window,
        )
        return WindowOutcome(
            model=model,
            records=records,
            status=STATUS_MERGED,
            groups=tuple(model.groups()),
        )

    def as_log(self) -> ControllerLog:
        """The window's raw messages as a (re-sorted) controller log."""
        return ControllerLog(self.raw)
