"""Unit tests for controller-log decoding into flow-level observations."""

import pytest

from repro.core.events import (
    FlowArrival,
    FlowRecord,
    HopReport,
    arrival_sort_key,
    extract_flow_arrivals,
    extract_flow_records,
    timed_flows,
)
from repro.core.occurrence import splits_occurrence
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, FlowRemoved, PacketIn

KEY = FlowKey("a", "b", 1000, 80)


def traversal(log, key, t0, dpids, gap=0.001, response=0.0005):
    """Append one flow traversal: PacketIn + FlowMod per switch."""
    t = t0
    for i, dpid in enumerate(dpids):
        pin = PacketIn(timestamp=t, dpid=dpid, flow=key, in_port=i + 1, buffer_id=len(log))
        log.append(pin)
        log.append(
            FlowMod(
                timestamp=t + response,
                dpid=dpid,
                match=Match.exact(key),
                out_port=i + 2,
                in_reply_to=pin.buffer_id,
            )
        )
        t += gap


class TestExtractFlowArrivals:
    def test_single_traversal_one_arrival(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2", "sw3"])
        arrivals = extract_flow_arrivals(log)
        assert len(arrivals) == 1
        a = arrivals[0]
        assert a.flow == KEY
        assert a.time == 1.0
        assert a.path_dpids == ("sw1", "sw2", "sw3")
        assert a.src == "a" and a.dst == "b"

    def test_hops_carry_flow_mod_pairing(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        a = extract_flow_arrivals(log)[0]
        for hop in a.hops:
            assert hop.flow_mod_at == pytest.approx(hop.packet_in_at + 0.0005)
            assert hop.out_port is not None

    def test_occurrence_gap_splits(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        traversal(log, KEY, 10.0, ["sw1", "sw2"])
        arrivals = extract_flow_arrivals(log, occurrence_gap=1.0)
        assert len(arrivals) == 2
        assert arrivals[0].time == 1.0
        assert arrivals[1].time == 10.0

    def test_within_gap_same_occurrence(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        arrivals = extract_flow_arrivals(log, occurrence_gap=1.0)
        assert len(arrivals) == 1

    def test_multiple_flows_interleaved(self):
        log = ControllerLog()
        other = FlowKey("c", "d", 2000, 443)
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        traversal(log, other, 1.0005, ["sw2", "sw3"])
        arrivals = extract_flow_arrivals(log)
        assert len(arrivals) == 2
        assert {a.flow for a in arrivals} == {KEY, other}

    def test_unpaired_packet_in_has_none_flow_mod(self):
        log = ControllerLog()
        log.append(PacketIn(timestamp=1.0, dpid="sw1", flow=KEY, in_port=1))
        a = extract_flow_arrivals(log)[0]
        assert a.hops[0].flow_mod_at is None

    def test_sorted_by_time(self):
        log = ControllerLog()
        traversal(log, FlowKey("x", "y", 1, 2), 5.0, ["sw1"])
        traversal(log, KEY, 1.0, ["sw1"])
        arrivals = extract_flow_arrivals(log)
        assert [a.time for a in arrivals] == [1.0, 5.0]

    def test_empty_log(self):
        assert extract_flow_arrivals(ControllerLog()) == []


class TestExtractFlowRecords:
    def test_joins_flow_removed_counters(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        log.append(
            FlowRemoved(
                timestamp=7.0,
                dpid="sw1",
                match=Match.exact(KEY),
                duration=1.5,
                byte_count=12345,
                packet_count=9,
            )
        )
        records = extract_flow_records(log)
        assert len(records) == 1
        assert records[0].byte_count == 12345
        assert records[0].packet_count == 9
        assert records[0].duration == 1.5

    def test_max_across_switches(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        for dpid, nbytes in (("sw1", 1000), ("sw2", 1200)):
            log.append(
                FlowRemoved(
                    timestamp=7.0,
                    dpid=dpid,
                    match=Match.exact(KEY),
                    duration=1.0,
                    byte_count=nbytes,
                    packet_count=1,
                )
            )
        records = extract_flow_records(log)
        assert records[0].byte_count == 1200

    def test_no_counters_defaults_zero(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        records = extract_flow_records(log)
        assert records[0].byte_count == 0

    def test_removed_not_double_consumed(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        traversal(log, KEY, 10.0, ["sw1"])
        log.append(
            FlowRemoved(
                timestamp=8.0, dpid="sw1", match=Match.exact(KEY),
                duration=1.0, byte_count=500, packet_count=1,
            )
        )
        log.append(
            FlowRemoved(
                timestamp=16.0, dpid="sw1", match=Match.exact(KEY),
                duration=1.0, byte_count=700, packet_count=1,
            )
        )
        records = extract_flow_records(log)
        assert [r.byte_count for r in records] == [500, 700]


class TestTimedFlows:
    def test_flattens_with_dedup(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2", "sw3"])
        flat = timed_flows(log, dedup_window=0.05)
        assert len(flat) == 1
        assert flat[0] == (1.0, KEY)

    def test_no_dedup_keeps_all(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1", "sw2"])
        assert len(timed_flows(log, dedup_window=0.0)) == 2

    def test_reoccurrence_after_window_kept(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        traversal(log, KEY, 5.0, ["sw1"])
        assert len(timed_flows(log, dedup_window=0.5)) == 2


class TestOccurrenceBoundary:
    """The shared gap predicate and both of its call sites pin the
    boundary: a report at exactly ``previous + gap`` continues the same
    occurrence; only strictly beyond starts a new one."""

    GAP = 1.0
    EPS = 1e-6

    def test_predicate_at_boundary(self):
        assert not splits_occurrence(10.0, 10.0 + self.GAP, self.GAP)
        assert not splits_occurrence(10.0, 10.0 + self.GAP - self.EPS, self.GAP)
        assert splits_occurrence(10.0, 10.0 + self.GAP + self.EPS, self.GAP)

    @pytest.mark.parametrize(
        "offset,expected_arrivals",
        [(GAP, 1), (GAP - EPS, 1), (GAP + EPS, 2)],
    )
    def test_extraction_boundary(self, offset, expected_arrivals):
        log = ControllerLog()
        key = FlowKey("a", "b", 1000, 80)
        for i, ts in enumerate((10.0, 10.0 + offset)):
            log.append(
                PacketIn(timestamp=ts, dpid="sw1", flow=key, in_port=1, buffer_id=i)
            )
        arrivals = extract_flow_arrivals(log, occurrence_gap=self.GAP)
        assert len(arrivals) == expected_arrivals

    @pytest.mark.parametrize(
        "offset,expected_timelines",
        [(GAP, 1), (GAP - EPS, 1), (GAP + EPS, 2)],
    )
    def test_flight_recorder_boundary(self, offset, expected_timelines):
        from repro.obs.flightrec import FlightRecorder

        log = ControllerLog()
        key = FlowKey("a", "b", 1000, 80)
        for ts in (10.0, 10.0 + offset):
            # No corr_id: forces the recorder's heuristic occurrence
            # grouping, the second user of the shared predicate.
            log.append(
                PacketIn(timestamp=ts, dpid="sw1", flow=key, in_port=1, buffer_id=0)
            )
        recorder = FlightRecorder.from_log(log, occurrence_gap=self.GAP)
        assert len(recorder.timelines) == expected_timelines


class TestRecordTuples:
    """``HopReport`` / ``FlowArrival`` / ``FlowRecord`` are named tuples."""

    HOP = HopReport(dpid="sw1", in_port=1, packet_in_at=1.0, flow_mod_at=1.5, out_port=2)
    ARRIVAL = FlowArrival(flow=KEY, time=1.0, hops=(HOP,))
    RECORD = FlowRecord(arrival=ARRIVAL, byte_count=10, packet_count=2, duration=0.5)

    @pytest.mark.parametrize("record", [HOP, ARRIVAL, RECORD], ids=lambda r: type(r).__name__)
    def test_immutable_and_dictless(self, record):
        assert not hasattr(record, "__dict__")
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            record.extra = 1

    def test_keyword_and_positional_construction_agree(self):
        assert self.HOP == HopReport("sw1", 1, 1.0, 1.5, 2)
        assert self.ARRIVAL == FlowArrival(KEY, 1.0, (self.HOP,))
        assert self.RECORD == FlowRecord(self.ARRIVAL, 10, 2, 0.5)
        dropped = HopReport(dpid="sw1", in_port=1, packet_in_at=1.0)
        assert dropped == HopReport("sw1", 1, 1.0, None, None)
        assert (dropped.flow_mod_at, dropped.out_port) == (None, None)

    def test_equality_and_hash_follow_the_fields(self):
        twin = FlowRecord(
            FlowArrival(FlowKey("a", "b", 1000, 80), 1.0, (HopReport("sw1", 1, 1.0, 1.5, 2),)),
            10, 2, 0.5,
        )
        assert twin == self.RECORD and hash(twin) == hash(self.RECORD)
        assert twin.arrival is not self.ARRIVAL
        assert len({self.HOP, twin.arrival.hops[0]}) == 1
        assert self.RECORD._replace(byte_count=11) != self.RECORD
        assert self.HOP == ("sw1", 1, 1.0, 1.5, 2)  # a tuple of its fields

    def test_properties_survive(self):
        assert (self.ARRIVAL.src, self.ARRIVAL.dst) == ("a", "b")
        assert self.ARRIVAL.path_dpids == ("sw1",)

    def test_arrival_sort_key_order_unchanged(self):
        """(time, flow key): not the tuple's own order, which would go on
        to compare hops."""
        late = FlowArrival(FlowKey("a", "b", 1, 80), 2.0, ())
        tie_low = FlowArrival(FlowKey("a", "b", 1, 80), 1.0, (self.HOP, self.HOP))
        tie_high = FlowArrival(FlowKey("a", "c", 1, 80), 1.0, ())
        ordered = sorted([late, tie_high, tie_low], key=arrival_sort_key)
        assert ordered == [tie_low, tie_high, late]
        assert arrival_sort_key(tie_low) == (1.0, FlowKey("a", "b", 1, 80))
