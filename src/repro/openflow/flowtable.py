"""Switch flow tables: entries, priorities, and soft/hard timeouts.

Each flow entry carries two timeouts (Section III-A): a *soft* (idle)
timeout counted from the last matched packet, and a *hard* timeout counted
from the first matched packet. When an entry expires the switch emits a
``FlowRemoved`` with the matched byte/packet totals and the entry duration.
Tuning these timeouts is the operator's lever for balancing control-channel
load against measurement visibility, which the ablation benchmarks explore.

The table is structured for per-packet cost that does not grow with
occupancy: microflow entries (every match field concrete) live in a dict
keyed by their 5-tuple, wildcard entries in a small side list, and expiry
candidates in a lazily re-keyed min-heap so the periodic sweep pops only
what actually expired instead of scanning every entry per tick. Resolution
semantics — highest (priority, specificity, created_at) wins, ties to the
earliest install — are identical to the previous linear-scan table and are
cross-checked against a brute-force reference by the stateful property
tests.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowRemovedReason

#: The concrete 5-tuple a microflow match (or a flow key) indexes under.
ExactKey = Tuple[str, str, int, int, str]


@dataclass(slots=True)
class FlowEntry:
    """A single flow-table entry with counters and timeout bookkeeping.

    Attributes:
        match: the match structure (microflow or wildcard).
        out_port: the forwarding action's output port.
        priority: higher wins on overlapping matches; ties broken by
            match specificity, then recency.
        idle_timeout: soft timeout in seconds; 0 disables idle expiry.
        hard_timeout: hard timeout in seconds; 0 disables hard expiry.
        created_at: installation time.
        send_flow_removed: whether expiry emits a ``FlowRemoved``
            (Section VI notes entries may be set up not to).
        corr_id: flight-recorder correlation id of the flow whose miss
            installed this entry; stamped onto the expiry ``FlowRemoved``
            so the causal chain closes (None for proactive installs).
    """

    match: Match
    out_port: int
    priority: int = 0
    idle_timeout: float = 5.0
    hard_timeout: float = 0.0
    created_at: float = 0.0
    send_flow_removed: bool = True
    byte_count: int = 0
    packet_count: int = 0
    last_matched_at: float = field(default=0.0)
    corr_id: Optional[int] = None

    def __post_init__(self) -> None:
        if self.last_matched_at < self.created_at:
            self.last_matched_at = self.created_at

    def record_match(self, now: float, nbytes: int, npackets: int = 1) -> None:
        """Update counters and the idle-timeout clock for a matched packet."""
        self.byte_count += nbytes
        self.packet_count += npackets
        if now > self.last_matched_at:
            self.last_matched_at = now

    def expiry_time(self) -> float:
        """The earliest time this entry can expire, given current counters.

        Returns ``inf`` when both timeouts are disabled.
        """
        candidates = []
        if self.idle_timeout > 0:
            candidates.append(self.last_matched_at + self.idle_timeout)
        if self.hard_timeout > 0:
            candidates.append(self.created_at + self.hard_timeout)
        return min(candidates) if candidates else float("inf")

    def expired_reason(self, now: float) -> Optional[FlowRemovedReason]:
        """Return the expiry reason if the entry has expired by ``now``."""
        if self.hard_timeout > 0 and now >= self.created_at + self.hard_timeout:
            return FlowRemovedReason.HARD_TIMEOUT
        if self.idle_timeout > 0 and now >= self.last_matched_at + self.idle_timeout:
            return FlowRemovedReason.IDLE_TIMEOUT
        return None

    @property
    def duration(self) -> float:
        """Active lifetime of the entry so far (last match - creation)."""
        return max(0.0, self.last_matched_at - self.created_at)


class FlowTable:
    """An indexed flow table with lazy and eager expiry.

    Lookups check expiry lazily (an expired entry never matches); the
    network simulator additionally calls :meth:`collect_expired` on timer
    events so that ``FlowRemoved`` messages fire close to their true expiry
    times rather than on the next lookup.

    Internally the table keeps three views of the same entries:

    * ``_exact`` — microflow entries keyed by their concrete 5-tuple, so
      the common reactive-install case resolves a lookup with one dict
      probe instead of a scan over the whole table;
    * ``_wild`` — the (typically few) wildcard entries, scanned linearly;
    * ``_heap`` — a min-heap of ``(expiry_time, install_seq, entry)``
      pushed at install time. Idle-timeout refreshes only ever move an
      expiry *later*, so a pushed key is a valid lower bound: the sweep
      pops candidates up to ``now`` and re-pushes any whose clock was
      refreshed. Replaced or deleted entries are dropped lazily when
      their stale heap node surfaces.

    ``_order`` (an insertion-ordered dict keyed by install sequence) is
    the authoritative live set and preserves the install-order iteration
    and ``FlowRemoved`` emission order the deterministic captures assert.

    With a real registry the table reports lookups, misses, installs,
    expiries (all labeled by owning ``dpid``), and its current occupancy —
    the miss rate and table-pressure view the scalability experiments
    need. The default :data:`NOOP_REGISTRY` keeps lookups on the
    uninstrumented fast path.
    """

    def __init__(
        self,
        metrics: MetricsRegistry = NOOP_REGISTRY,
        dpid: str = "",
    ) -> None:
        #: install seq -> entry; dict insertion order == install order.
        self._order: Dict[int, FlowEntry] = {}
        self._exact: Dict[ExactKey, List[Tuple[int, FlowEntry]]] = {}
        self._wild: List[Tuple[int, FlowEntry]] = []
        self._heap: List[Tuple[float, int, FlowEntry]] = []
        self._next_seq = 0
        labels = {"dpid": dpid} if dpid else {}
        self._m_lookups = metrics.counter("flowtable_lookups_total", **labels)
        self._m_misses = metrics.counter("flowtable_misses_total", **labels)
        self._m_installs = metrics.counter("flowtable_installs_total", **labels)
        self._m_expired = metrics.counter("flowtable_expired_total", **labels)
        self._m_occupancy = metrics.gauge("flowtable_entries", **labels)

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[FlowEntry]:
        return iter(self._order.values())

    @staticmethod
    def _exact_key(match: Match) -> ExactKey:
        # Only called for microflow matches, whose fields are all concrete.
        return (match.src, match.dst, match.src_port, match.dst_port, match.proto)

    def _bucket(self, match: Match) -> Optional[List[Tuple[int, FlowEntry]]]:
        """The container any entry with this match must live in."""
        if match.is_microflow:
            return self._exact.get(self._exact_key(match))
        return self._wild

    def install(self, entry: FlowEntry) -> None:
        """Add an entry; an identical match at equal priority is replaced."""
        match = entry.match
        if match.is_microflow:
            key = self._exact_key(match)
            bucket = self._exact.get(key)
            if bucket is None:
                bucket = self._exact[key] = []
        else:
            bucket = self._wild
        for i, (seq, existing) in enumerate(bucket):
            if existing.priority == entry.priority and existing.match == match:
                del bucket[i]
                del self._order[seq]
                break
        seq = self._next_seq
        self._next_seq += 1
        bucket.append((seq, entry))
        self._order[seq] = entry
        heapq.heappush(self._heap, (entry.expiry_time(), seq, entry))
        self._m_installs.inc()
        self._m_occupancy.set(len(self._order))

    def delete(self, match: Match) -> List[FlowEntry]:
        """Remove and return all entries whose match equals ``match``."""
        bucket = self._bucket(match)
        removed: List[Tuple[int, FlowEntry]] = []
        if bucket:
            removed = [(seq, e) for seq, e in bucket if e.match == match]
            if removed:
                gone = {seq for seq, _ in removed}
                bucket[:] = [pair for pair in bucket if pair[0] not in gone]
                for seq, _ in removed:
                    del self._order[seq]
                if match.is_microflow and not bucket:
                    del self._exact[self._exact_key(match)]
        self._m_occupancy.set(len(self._order))
        return [e for _, e in removed]

    def lookup(self, key: FlowKey, now: float) -> Optional[FlowEntry]:
        """Return the best live entry matching ``key``, or None on a miss.

        "Best" means highest priority, then most specific match, then most
        recently installed — the standard OpenFlow resolution order.
        Expired entries are skipped (but not removed; see
        :meth:`collect_expired`). A microflow entry can only tie a
        microflow entry (specificity 5 vs at most 4 for wildcards), so
        probing the exact bucket first and the wildcard list second
        resolves ties to the earliest install exactly as a single
        install-order scan would.
        """
        self._m_lookups.inc()
        best: Optional[FlowEntry] = None
        best_rank: Optional[Tuple[int, int, float]] = None
        bucket = self._exact.get(
            (key.src, key.dst, key.src_port, key.dst_port, key.proto)
        )
        if bucket is not None:
            for _, entry in bucket:
                if entry.expired_reason(now) is not None:
                    continue
                rank = (entry.priority, 5, entry.created_at)
                if best_rank is None or rank > best_rank:
                    best, best_rank = entry, rank
        for _, entry in self._wild:
            if entry.expired_reason(now) is not None:
                continue
            if not entry.match.matches(key):
                continue
            rank = (entry.priority, entry.match.specificity, entry.created_at)
            if best_rank is None or rank > best_rank:
                best, best_rank = entry, rank
        if best is None:
            self._m_misses.inc()
            return None
        return best

    def _unlink(self, seq: int, entry: FlowEntry) -> None:
        """Drop one entry from its bucket (``_order`` already updated)."""
        match = entry.match
        if match.is_microflow:
            key = self._exact_key(match)
            bucket = self._exact[key]
            for i, (s, _) in enumerate(bucket):
                if s == seq:
                    del bucket[i]
                    break
            if not bucket:
                del self._exact[key]
        else:
            for i, (s, _) in enumerate(self._wild):
                if s == seq:
                    del self._wild[i]
                    break

    def collect_expired(
        self, now: float
    ) -> List[Tuple[FlowEntry, FlowRemovedReason]]:
        """Remove and return every entry expired by ``now`` with its reason.

        One heap-ordered sweep: only entries whose (lower-bound) expiry
        key has passed are examined, entries whose idle clock was
        refreshed since the push are re-keyed, and the results come back
        in install order — the ``FlowRemoved`` emission order of the
        previous full-scan implementation.
        """
        heap = self._heap
        order = self._order
        hits: List[Tuple[int, FlowEntry, FlowRemovedReason]] = []
        while heap and heap[0][0] <= now:
            _, seq, entry = heapq.heappop(heap)
            if seq not in order:
                continue  # replaced or deleted since the push
            reason = entry.expired_reason(now)
            if reason is None:
                # Idle-timeout clock refreshed after the push; the true
                # expiry is strictly in the future, so re-key and move on.
                heapq.heappush(heap, (entry.expiry_time(), seq, entry))
                continue
            hits.append((seq, entry, reason))
        if not hits:
            return []
        hits.sort()
        expired: List[Tuple[FlowEntry, FlowRemovedReason]] = []
        for seq, entry, reason in hits:
            del order[seq]
            self._unlink(seq, entry)
            expired.append((entry, reason))
        self._m_expired.inc(len(expired))
        self._m_occupancy.set(len(order))
        return expired

    def next_expiry(self) -> float:
        """The earliest expiry time across live entries (``inf`` if none)."""
        heap = self._heap
        while heap:
            pushed, seq, entry = heap[0]
            if seq not in self._order:
                heapq.heappop(heap)
                continue
            actual = entry.expiry_time()
            if actual > pushed:
                heapq.heapreplace(heap, (actual, seq, entry))
                continue
            return pushed
        return float("inf")

    def stats(self) -> Dict[str, int]:
        """Aggregate table counters, handy for scalability experiments."""
        entries = self._order.values()
        return {
            "entries": len(self._order),
            "bytes": sum(e.byte_count for e in entries),
            "packets": sum(e.packet_count for e in entries),
        }
