"""Unit tests for flow tables: priorities, timeouts, expiry."""

import pytest

from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowRemovedReason

KEY = FlowKey("a", "b", 1000, 80)


def entry(match=None, **kwargs):
    return FlowEntry(match=match or Match.exact(KEY), out_port=1, **kwargs)


class TestFlowEntry:
    def test_counters_accumulate(self):
        e = entry(created_at=0.0)
        e.record_match(1.0, 100, 2)
        e.record_match(2.0, 50, 1)
        assert e.byte_count == 150
        assert e.packet_count == 3
        assert e.last_matched_at == 2.0

    def test_idle_expiry_from_last_match(self):
        e = entry(created_at=0.0, idle_timeout=5.0)
        e.record_match(3.0, 10)
        assert e.expired_reason(7.9) is None
        assert e.expired_reason(8.0) == FlowRemovedReason.IDLE_TIMEOUT

    def test_hard_expiry_from_creation(self):
        e = entry(created_at=0.0, idle_timeout=0.0, hard_timeout=10.0)
        e.record_match(9.0, 10)
        assert e.expired_reason(9.5) is None
        assert e.expired_reason(10.0) == FlowRemovedReason.HARD_TIMEOUT

    def test_hard_beats_idle_when_both_hit(self):
        e = entry(created_at=0.0, idle_timeout=2.0, hard_timeout=3.0)
        assert e.expired_reason(5.0) == FlowRemovedReason.HARD_TIMEOUT

    def test_no_timeouts_never_expires(self):
        e = entry(created_at=0.0, idle_timeout=0.0, hard_timeout=0.0)
        assert e.expired_reason(1e9) is None
        assert e.expiry_time() == float("inf")

    def test_duration_is_active_lifetime(self):
        e = entry(created_at=2.0)
        e.record_match(5.5, 10)
        assert e.duration == pytest.approx(3.5)

    def test_expiry_time_minimum(self):
        e = entry(created_at=0.0, idle_timeout=5.0, hard_timeout=4.0)
        assert e.expiry_time() == 4.0


class TestFlowTable:
    def test_lookup_hit_and_miss(self):
        table = FlowTable()
        table.install(entry(created_at=0.0))
        assert table.lookup(KEY, 1.0) is not None
        assert table.lookup(KEY.reversed(), 1.0) is None

    def test_expired_entry_never_matches(self):
        table = FlowTable()
        table.install(entry(created_at=0.0, idle_timeout=1.0))
        assert table.lookup(KEY, 0.5) is not None
        assert table.lookup(KEY, 2.0) is None

    def test_priority_resolution(self):
        table = FlowTable()
        low = entry(match=Match.destination("b"), created_at=0.0)
        high = FlowEntry(
            match=Match.exact(KEY), out_port=2, priority=10, created_at=0.0
        )
        table.install(low)
        table.install(high)
        assert table.lookup(KEY, 1.0).out_port == 2

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        table.install(FlowEntry(match=Match.destination("b"), out_port=1, created_at=0.0))
        table.install(FlowEntry(match=Match.exact(KEY), out_port=2, created_at=0.0))
        assert table.lookup(KEY, 1.0).out_port == 2

    def test_reinstall_replaces(self):
        table = FlowTable()
        table.install(entry(created_at=0.0))
        table.install(FlowEntry(match=Match.exact(KEY), out_port=7, created_at=1.0))
        assert len(table) == 1
        assert table.lookup(KEY, 2.0).out_port == 7

    def test_delete_by_match(self):
        table = FlowTable()
        table.install(entry(created_at=0.0))
        removed = table.delete(Match.exact(KEY))
        assert len(removed) == 1
        assert len(table) == 0

    def test_collect_expired_removes_and_reports(self):
        table = FlowTable()
        table.install(entry(created_at=0.0, idle_timeout=1.0))
        table.install(
            FlowEntry(
                match=Match.destination("z"),
                out_port=3,
                created_at=0.0,
                idle_timeout=100.0,
            )
        )
        expired = table.collect_expired(5.0)
        assert len(expired) == 1
        assert expired[0][1] == FlowRemovedReason.IDLE_TIMEOUT
        assert len(table) == 1

    def test_stats(self):
        table = FlowTable()
        e = entry(created_at=0.0)
        table.install(e)
        e.record_match(1.0, 500, 4)
        stats = table.stats()
        assert stats == {"entries": 1, "bytes": 500, "packets": 4}
