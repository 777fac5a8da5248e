"""The daemon's open diagnosis window: an ordered buffer of control messages.

An :class:`IncrementalWindow` buffers the messages of one open
``[t_start, t_end)`` window in arrival order; nothing is extracted or
built while they arrive. The tenant closes it as the batch monitor
closes a window: :meth:`repro.core.monitor.DiagnosisStream.close` over
``ControllerLog(window.raw)``, one ``FlowDiff.model(log, window,
assess=False)`` call and the diff, so ``tests/test_service.py`` can
assert that every closed window is dict-identical to ``SlidingDiagnoser``
output.

While buffering, the window notes the first reason it arrived *dirty*:
a timestamp older than the one before it (``out_of_order``) or ``FlowMod``
traffic whose pairing depends on more than the reply id
(``flowmod_without_reply_id``, ``duplicate_flowmod_reply_id``). The
reason is only a label: a clean window closes with status ``merged``, a
dirty one with ``fallback``.

:meth:`IncrementalWindow.close`, :class:`WindowOutcome` and
``STATUS_REBUILT`` are bench-pinned: nothing in the package calls or
produces them, and they stay only because ``bench/stream.py`` (frozen
outside benchmark changes) does; drop them together with its use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.groups import ApplicationGroup
from repro.core.model import BehaviorModel
from repro.core.signatures.application import SignatureConfig
from repro.openflow.log import ControllerLog
from repro.openflow.messages import ControlMessage, FlowMod

#: How a closed window arrived: ``merged`` when clean, ``fallback`` when
#: :attr:`IncrementalWindow.dirty`. Both close through the same code.
STATUS_MERGED = "merged"
STATUS_REBUILT = "rebuilt"  # Bench-pinned: never produced; bench/stream.py tallies it.
STATUS_FALLBACK = "fallback"


@dataclass(frozen=True)
class WindowOutcome:
    """What :meth:`IncrementalWindow.close` returns (bench-pinned)."""

    model: BehaviorModel
    status: str
    #: The sorted window the model was built from.
    log: ControllerLog
    groups: Tuple[ApplicationGroup, ...]  # Read only by bench/stream.py (frozen).


class IncrementalWindow:
    """One open ``[t_start, t_end)`` window buffering control traffic.

    Messages are expected in timestamp order; one that is not (or
    ``FlowMod`` traffic without a unique reply id) marks the window
    :attr:`dirty`, which changes only the status it closes with.

    Args:
        t_start/t_end: the window bounds.
        config: signature construction knobs (shared with the batch path).
        slices/expected_groups: accepted and ignored — nothing reads them.
    """

    def __init__(
        self,
        t_start: float,
        t_end: float,
        config: SignatureConfig,
        slices: int = 0,  # Unread; bench/stream.py (frozen) passes it.
        expected_groups: Sequence[ApplicationGroup] = (),  # Unread; as above.
    ) -> None:
        if t_end <= t_start:
            raise ValueError(f"empty window [{t_start}, {t_end})")
        self.t_start = t_start
        self.t_end = t_end
        self._cfg = config
        self.raw: List[ControlMessage] = []
        self.dirty: Optional[str] = None
        self._reply_ids: Set[int] = set()
        self._last_ts = float("-inf")

    def add(self, msg: ControlMessage) -> None:
        """Buffer one message with timestamp inside ``[t_start, t_end)``."""
        ts = msg.timestamp
        self.raw.append(msg)
        if ts < self._last_ts:
            self._mark_dirty("out_of_order")
        self._last_ts = ts
        if type(msg) is FlowMod:
            reply_id = msg.in_reply_to
            if reply_id is None:
                self._mark_dirty("flowmod_without_reply_id")
            elif reply_id in self._reply_ids:
                self._mark_dirty("duplicate_flowmod_reply_id")
            else:
                self._reply_ids.add(reply_id)

    def _mark_dirty(self, reason: str) -> None:
        if self.dirty is None:
            self.dirty = reason

    def close(self) -> WindowOutcome:
        """Model the buffered window with a metric-less ``FlowDiff``.

        Bench-pinned: only ``bench/stream.py`` calls it. The tenant closes
        through :meth:`repro.core.monitor.DiagnosisStream.close` instead.
        """
        log = self.as_log()
        model = FlowDiff(FlowDiffConfig(signature=self._cfg)).model(
            log, window=(self.t_start, self.t_end), assess=False
        )
        return WindowOutcome(
            model=model,
            status=STATUS_MERGED if self.dirty is None else STATUS_FALLBACK,
            log=log,
            groups=tuple(model.groups()),
        )

    def as_log(self) -> ControllerLog:
        """The window's raw messages as a (re-sorted) controller log."""
        return ControllerLog(self.raw)
