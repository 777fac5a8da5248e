"""Unit and property tests for the controller log."""

from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey
from repro.openflow.messages import FlowMod, FlowRemoved, PacketIn, PacketOut

KEY = FlowKey("a", "b", 1000, 80)

#: Timestamps that collide often: ties are where the ordering contract bites.
STAMPS = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0]) | st.floats(0, 4)


def pin(ts, dpid="sw1"):
    return PacketIn(timestamp=ts, dpid=dpid, flow=KEY, in_port=1)


class TestControllerLog:
    def test_append_and_len(self):
        log = ControllerLog()
        log.append(pin(1.0))
        log.append(pin(2.0))
        assert len(log) == 2

    def test_out_of_order_appends_sorted(self):
        log = ControllerLog()
        log.append(pin(2.0))
        log.append(pin(1.0))
        log.append(pin(3.0))
        assert [m.timestamp for m in log] == [1.0, 2.0, 3.0]

    def test_stable_order_for_equal_timestamps(self):
        log = ControllerLog()
        a = pin(1.0, "first")
        b = pin(1.0, "second")
        log.append(a)
        log.append(b)
        assert [m.dpid for m in log] == ["first", "second"]

    def test_time_span(self):
        log = ControllerLog([pin(1.5), pin(4.5)])
        assert log.time_span == (1.5, 4.5)
        assert ControllerLog().time_span == (0.0, 0.0)

    def test_window_half_open(self):
        log = ControllerLog([pin(1.0), pin(2.0), pin(3.0)])
        sub = log.window(1.0, 3.0)
        assert [m.timestamp for m in sub] == [1.0, 2.0]

    def test_type_filters(self):
        log = ControllerLog()
        log.append(pin(1.0))
        log.append(FlowMod(timestamp=1.1, dpid="sw1"))
        log.append(PacketOut(timestamp=1.1, dpid="sw1", flow=KEY))
        log.append(FlowRemoved(timestamp=6.0, dpid="sw1"))
        assert len(log.packet_ins()) == 1
        assert len(log.flow_mods()) == 1
        assert len(log.of_type(PacketOut)) == 1
        assert len(log.flow_removed()) == 1

    def test_filter_predicate(self):
        log = ControllerLog([pin(1.0, "sw1"), pin(2.0, "sw2")])
        sub = log.filter(lambda m: m.dpid == "sw2")
        assert len(sub) == 1

    def test_merged_with(self):
        a = ControllerLog([pin(1.0, "sw1")])
        b = ControllerLog([pin(0.5, "sw2")])
        merged = a.merged_with(b)
        assert [m.dpid for m in merged] == ["sw2", "sw1"]
        assert len(a) == 1  # originals untouched
        assert len(b) == 1

    def test_merged_with_ties_keep_self_first_then_arrival_order(self):
        a = ControllerLog([pin(1.0, "a1"), pin(2.0, "a2"), pin(1.0, "a3")])
        b = ControllerLog([pin(2.0, "b1"), pin(1.0, "b2"), pin(0.5, "b3")])
        merged = a.merged_with(b)
        assert [m.dpid for m in merged] == ["b3", "a1", "a3", "b2", "a2", "b1"]
        # ... which is what appending ``b`` message by message gives.
        appended = ControllerLog(list(a) + list(b))
        assert [id(m) for m in merged] == [id(m) for m in appended]
        assert merged.window(1.0, 2.0).time_span == (1.0, 1.0)

    @given(st.lists(STAMPS, max_size=50))
    def test_iteration_always_sorted(self, times):
        """Any append order reads back sorted by ``(timestamp, arrival)``,
        and the constructor's one sort gives the log appending gives."""
        messages = [pin(t, str(arrival)) for arrival, t in enumerate(times)]
        log = ControllerLog()
        for message in messages:
            log.append(message)
        reference = sorted(
            enumerate(messages), key=lambda pair: (pair[1].timestamp, pair[0])
        )
        assert [id(m) for m in log] == [id(m) for _, m in reference]
        assert len(log) == len(times)
        assert log.time_span == ((min(times), max(times)) if times else (0.0, 0.0))
        for adopted in (ControllerLog(messages), ControllerLog(iter(messages))):
            assert [id(m) for m in adopted] == [id(m) for m in log]
            assert [m.timestamp for m in adopted] == [m.timestamp for m in log]
            assert adopted.time_span == log.time_span
        assert messages == [pin(t, str(arrival)) for arrival, t in enumerate(times)]

    @given(st.lists(STAMPS, max_size=50), STAMPS, STAMPS)
    def test_window_subset_invariant(self, times, lo, hi):
        """``window(lo, hi)`` is exactly ``lo <= ts < hi``, order kept,
        also when ``lo``/``hi`` fall on a run of equal timestamps."""
        log = ControllerLog()
        for arrival, t in enumerate(times):
            log.append(pin(t, str(arrival)))
        sub = log.window(lo, hi)
        assert [id(m) for m in sub] == [
            id(m) for m in log if lo <= m.timestamp < hi
        ]
        assert sub.time_span == ControllerLog(list(sub)).time_span


class InsertionOracle:
    """The log as it used to be kept: every append inserted after the
    messages already holding its timestamp (``bisect_right``)."""

    def __init__(self):
        self.stamps = []
        self.msgs = []

    def append(self, message):
        at = bisect_right(self.stamps, message.timestamp)
        self.stamps.insert(at, message.timestamp)
        self.msgs.insert(at, message)


def ids(messages):
    return [id(m) for m in messages]


#: Every reader, as ``(log, oracle message list, lo, hi) -> (got, expected)``.
READERS = {
    "len": lambda log, ref, lo, hi: (len(log), len(ref)),
    "iter": lambda log, ref, lo, hi: (ids(log), ids(ref)),
    "window": lambda log, ref, lo, hi: (
        ids(log.window(lo, hi)),
        ids(m for m in ref if lo <= m.timestamp < hi),
    ),
    "time_span": lambda log, ref, lo, hi: (
        log.time_span,
        (ref[0].timestamp, ref[-1].timestamp) if ref else (0.0, 0.0),
    ),
    "of_type": lambda log, ref, lo, hi: (
        ids(log.of_type(FlowMod)),
        ids(m for m in ref if type(m) is FlowMod),
    ),
    "correlation_ids": lambda log, ref, lo, hi: (
        log.correlation_ids(),
        list(dict.fromkeys(m.corr_id for m in ref)),
    ),
    "filter": lambda log, ref, lo, hi: (
        ids(log.filter(lambda m: m.corr_id % 2)),
        ids(m for m in ref if m.corr_id % 2),
    ),
    "merged_with": lambda log, ref, lo, hi: (
        ids(log.merged_with(log)),
        ids(sorted(ref + ref, key=lambda m: m.timestamp)),
    ),
}

#: An append (a timestamp, a PacketIn or a FlowMod) or a read with a window.
STEPS = st.lists(
    st.tuples(st.just("append"), STAMPS, st.booleans())
    | st.tuples(st.sampled_from(sorted(READERS)), STAMPS, STAMPS),
    max_size=60,
)


class TestSortOnFirstRead:
    @given(STEPS)
    @settings(max_examples=300)
    def test_every_read_sees_the_insertion_order(self, steps):
        """Appends interleaved with reads, ties and out-of-order stamps
        included: each read equals the oracle at that point, also for
        appends made after an earlier read already sorted the log."""
        log = ControllerLog()
        oracle = InsertionOracle()
        for arrival, (step, a, b) in enumerate(steps):
            if step == "append":
                message = (
                    FlowMod(timestamp=a, dpid="sw1", corr_id=arrival)
                    if b
                    else PacketIn(timestamp=a, dpid="sw1", flow=KEY, corr_id=arrival)
                )
                log.append(message)
                oracle.append(message)
            else:
                got, expected = READERS[step](log, list(oracle.msgs), a, b)
                assert got == expected, step
        assert ids(log) == ids(oracle.msgs)

    def test_len_does_not_sort(self):
        log = ControllerLog()
        log.append(pin(2.0, "late"))
        log.append(pin(1.0, "early"))
        assert len(log) == 2
        assert [m.dpid for m in log._msgs] == ["late", "early"]
        assert [m.dpid for m in log] == ["early", "late"]
