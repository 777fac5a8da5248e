"""The controller log: FlowDiff's sole measurement artifact.

A :class:`ControllerLog` is an append-ordered collection of timestamped
control messages (Section III-A). FlowDiff never inspects data-plane
payloads; every signature is derived from a window of this log. The class
therefore provides the windowing and type filtering the modeling phase
needs, plus (de)serialization so logs can be stored and replayed.

Ordering invariant: iteration yields messages by ``(timestamp, arrival)``
— ascending timestamp, and among equal timestamps the order they were
appended in. :meth:`ControllerLog.append` is O(1): it appends and, when
the timestamp falls below the last one, marks the log *late*. The first
read after that (iteration, a window, a type filter, ...) settles the log
with one stable sort on timestamp, which gives exactly the order that
inserting each message after its equal-timestamp peers would have; ``len``
never sorts. The timestamp index the bisecting readers (:meth:`window`,
:attr:`time_span`) need is built on their first call and dropped by the
next append, so a log that is only written (the simulator's) never builds
it. Appends and reads are single-threaded: only the simulator appends,
and a log it hands on is no longer appended to.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import attrgetter
from typing import Callable, Iterable, Iterator, List, Optional, Tuple, Type, TypeVar

from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowRemoved,
    PacketIn,
)

M = TypeVar("M", bound=ControlMessage)

_timestamp = attrgetter("timestamp")


class ControllerLog:
    """A time-ordered log of control messages captured at the controller.

    Messages may be appended out of order (the controller logs its replies
    at the future time they are sent); reads see them sorted by
    ``(timestamp, arrival sequence)`` and window queries are binary
    searches.
    """

    def __init__(self, messages: Optional[Iterable[ControlMessage]] = None) -> None:
        #: Sorted by timestamp, stably, unless ``_late``: the order appending
        #: ``messages`` one by one would give, from one sort that is linear
        #: when they already are in order.
        self._msgs: List[ControlMessage] = sorted(messages or (), key=_timestamp)
        #: An append went below the last timestamp; the next read sorts.
        self._late = False
        #: ``_ts[i]`` is ``_msgs[i].timestamp`` once a bisecting reader asked.
        self._ts: Optional[List[float]] = None

    @classmethod
    def _from_sorted(
        cls, msgs: List[ControlMessage], stamps: Optional[List[float]] = None
    ) -> "ControllerLog":
        """Adopt a message list already in log order (and its timestamps,
        where the caller has them as a slice for free)."""
        log = cls()
        log._msgs = msgs
        log._ts = stamps
        return log

    def append(self, message: ControlMessage) -> None:
        """Record a control message (read back stable-ordered by timestamp)."""
        msgs = self._msgs
        if msgs and message.timestamp < msgs[-1].timestamp:
            self._late = True
        msgs.append(message)
        self._ts = None

    def extend(self, messages: Iterable[ControlMessage]) -> None:
        """Record several control messages."""
        for message in messages:
            self.append(message)

    def _sorted(self) -> List[ControlMessage]:
        """The messages in log order, settling late appends first."""
        if self._late:
            self._msgs.sort(key=_timestamp)
            self._late = False
        return self._msgs

    def _stamps(self) -> List[float]:
        """The timestamp index, built on demand."""
        msgs = self._sorted()
        if self._ts is None:
            self._ts = [msg.timestamp for msg in msgs]
        return self._ts

    def __len__(self) -> int:
        return len(self._msgs)

    def __iter__(self) -> Iterator[ControlMessage]:
        return iter(self._sorted())

    @property
    def time_span(self) -> Tuple[float, float]:
        """``(first, last)`` message timestamps; ``(0.0, 0.0)`` when empty."""
        stamps = self._stamps()
        if not stamps:
            return 0.0, 0.0
        return stamps[0], stamps[-1]

    def window(self, t_start: float, t_end: float) -> "ControllerLog":
        """Return a sub-log of messages with ``t_start <= ts < t_end``.

        This is the primitive behind the paper's L1/L2 comparison: L1 and L2
        are two windows of the same underlying capture (or two captures).
        The sub-log is a copy (two slices).
        """
        stamps = self._stamps()
        lo = bisect_left(stamps, t_start)
        hi = bisect_left(stamps, t_end)
        return self._from_sorted(self._msgs[lo:hi], stamps[lo:hi])

    def of_type(self, message_type: Type[M]) -> List[M]:
        """Return all messages of exactly the given type, in time order."""
        return [msg for msg in self._sorted() if type(msg) is message_type]

    def packet_ins(self) -> List[PacketIn]:
        """All ``PacketIn`` messages, the richest signal FlowDiff mines."""
        return self.of_type(PacketIn)

    def flow_mods(self) -> List[FlowMod]:
        """All ``FlowMod`` messages."""
        return self.of_type(FlowMod)

    def flow_removed(self) -> List[FlowRemoved]:
        """All ``FlowRemoved`` messages."""
        return self.of_type(FlowRemoved)

    def correlation_ids(self) -> List[int]:
        """Distinct flight-recorder correlation ids, in first-seen order.

        Messages without a correlation id (old captures, PortStatus, ...)
        are skipped; :mod:`repro.obs.flightrec` groups those heuristically.
        """
        seen: List[int] = []
        known = set()
        for msg in self._sorted():
            cid = msg.corr_id
            if cid is not None and cid not in known:
                known.add(cid)
                seen.append(cid)
        return seen

    def correlated(self, corr_id: int) -> "ControllerLog":
        """The sub-log of one flow's causal chain (messages with this id)."""
        return self.filter(lambda msg: msg.corr_id == corr_id)

    def filter(self, predicate: Callable[[ControlMessage], bool]) -> "ControllerLog":
        """Return a sub-log of messages satisfying ``predicate``."""
        return self._from_sorted([msg for msg in self._sorted() if predicate(msg)])

    def merged_with(self, other: "ControllerLog") -> "ControllerLog":
        """Combine two captures (e.g. from a distributed controller pair).

        Section VI notes that distributing the controller requires
        synchronizing captured information across controllers; this is that
        synchronization for offline logs. One stable sort of the
        concatenation: among equal timestamps ``self``'s messages come
        before ``other``'s and each side keeps its own order — what
        appending ``other`` message by message would give.
        """
        msgs = self._sorted() + other._sorted()
        msgs.sort(key=_timestamp)
        return self._from_sorted(msgs)
