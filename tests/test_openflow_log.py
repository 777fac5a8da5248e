"""Unit and property tests for the controller log."""

import pytest
from hypothesis import given, strategies as st

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
        assert len(log.packet_outs()) == 1
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
            assert adopted._ts == log._ts
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
