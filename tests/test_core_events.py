"""Unit tests for controller-log decoding into flow-level observations."""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.events import (
    FlowArrival,
    FlowRecord,
    HopReport,
    arrival_sort_key,
    extract_flow_arrivals,
    extract_flow_records,
    join_flow_records,
    timed_flows,
)
from repro.core.flowdiff import FlowDiff
from repro.core.occurrence import splits_occurrence
from repro.core.persist import model_digest
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import FlowMod, FlowRemoved, PacketIn
from repro.openflow.serialize import read_log, save_log

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


# ----------------------------------------------------------------------
# Oracles: the two-scan extraction and the keyword-built join, verbatim
# but for names. The rewritten loops must equal them exactly.
# ----------------------------------------------------------------------


def oracle_extract_flow_arrivals(
    log: ControllerLog, occurrence_gap: float = 1.0
) -> List[FlowArrival]:
    mods_by_reply: Dict[int, FlowMod] = {}
    unpaired_mods: Dict[str, List[FlowMod]] = {}
    for mod in log.flow_mods():
        if mod.in_reply_to is not None:
            mods_by_reply[mod.in_reply_to] = mod
        else:
            unpaired_mods.setdefault(mod.dpid, []).append(mod)

    def find_mod(pin: PacketIn) -> Optional[FlowMod]:
        if pin.buffer_id in mods_by_reply:
            return mods_by_reply[pin.buffer_id]
        candidates = unpaired_mods.get(pin.dpid, [])
        for mod in candidates:
            if mod.timestamp >= pin.timestamp and mod.match.matches(pin.flow):
                candidates.remove(mod)
                return mod
        return None

    arrivals: List[FlowArrival] = []
    open_runs: Dict[FlowKey, List[HopReport]] = {}
    last_seen: Dict[FlowKey, float] = {}

    def close(flow: FlowKey) -> None:
        hops = open_runs.pop(flow, [])
        if hops:
            arrivals.append(
                FlowArrival(flow=flow, time=hops[0].packet_in_at, hops=tuple(hops))
            )

    for pin in log.packet_ins():
        flow = pin.flow
        if flow in open_runs and splits_occurrence(last_seen[flow], pin.timestamp, occurrence_gap):
            close(flow)
        mod = find_mod(pin)
        hop = HopReport(
            dpid=pin.dpid,
            in_port=pin.in_port,
            packet_in_at=pin.timestamp,
            flow_mod_at=mod.timestamp if mod else None,
            out_port=mod.out_port if mod else None,
        )
        open_runs.setdefault(flow, []).append(hop)
        last_seen[flow] = pin.timestamp

    for flow in list(open_runs):
        close(flow)
    arrivals.sort(key=arrival_sort_key)
    return arrivals


def oracle_join_flow_records(
    arrivals: List[FlowArrival], removed: List[FlowRemoved]
) -> List[FlowRecord]:
    exact: Dict[tuple, Dict[str, List[FlowRemoved]]] = {}
    wildcards: List[List] = []
    for fr in removed:
        m = fr.match
        if m is not None and m.is_microflow:
            key = (m.src, m.dst, m.src_port, m.dst_port, m.proto)
            exact.setdefault(key, {}).setdefault(fr.dpid, []).append(fr)
        else:
            wildcards.append([fr, False])
    cursors: Dict[tuple, Dict[str, int]] = {}

    records: List[FlowRecord] = []
    for arrival in arrivals:
        best_bytes = 0
        best_packets = 0
        best_duration = 0.0
        on_path = {h.dpid for h in arrival.hops}
        taken_dpids: set = set()
        f = arrival.flow
        flow_key = (f.src, f.dst, f.src_port, f.dst_port, f.proto)
        by_dpid = exact.get(flow_key)
        if by_dpid:
            flow_cursors = cursors.setdefault(flow_key, {})
            for dpid in on_path:
                bucket = by_dpid.get(dpid)
                if not bucket:
                    continue
                i = flow_cursors.get(dpid, 0)
                while i < len(bucket) and bucket[i].timestamp < arrival.time:
                    i += 1
                if i < len(bucket):
                    fr = bucket[i]
                    flow_cursors[dpid] = i + 1
                    taken_dpids.add(dpid)
                    best_bytes = max(best_bytes, fr.byte_count)
                    best_packets = max(best_packets, fr.packet_count)
                    best_duration = max(best_duration, fr.duration)
        for item in wildcards:
            fr, consumed = item
            if consumed or fr.timestamp < arrival.time:
                continue
            if fr.dpid not in on_path or fr.dpid in taken_dpids:
                continue
            if not fr.match.matches(arrival.flow):
                continue
            item[1] = True
            taken_dpids.add(fr.dpid)
            best_bytes = max(best_bytes, fr.byte_count)
            best_packets = max(best_packets, fr.packet_count)
            best_duration = max(best_duration, fr.duration)
        records.append(
            FlowRecord(
                arrival=arrival,
                byte_count=best_bytes,
                packet_count=best_packets,
                duration=best_duration,
            )
        )
    return records


GAP = 1.0
KEYS = [
    FlowKey("a", "b", 1000, 80),
    FlowKey("b", "a", 80, 1000),
    FlowKey("a", "c", 1001, 53, "udp"),
]
DPIDS = ["sw1", "sw2", "sw3"]
#: A quarter-second grid makes ties and gaps of exactly ``GAP`` common.
times = st.one_of(
    st.integers(0, 24).map(lambda k: k * 0.25),
    st.floats(0.0, 6.0, allow_nan=False),
)
matches = st.one_of(
    st.sampled_from(KEYS).map(Match.exact),
    st.sampled_from(["a", "b", "c"]).map(Match.destination),
    st.builds(Match, src=st.sampled_from(["a", "b"]), src_port=st.sampled_from([80, 1000])),
    st.just(Match()),
)
#: A small id pool makes duplicate replies and replies to no PacketIn.
buffer_ids = st.integers(0, 5)
packet_ins = st.builds(
    lambda ts, dpid, key, port, bid: PacketIn(
        timestamp=ts, dpid=dpid, flow=key, in_port=port, buffer_id=bid
    ),
    times, st.sampled_from(DPIDS), st.sampled_from(KEYS), st.integers(1, 4), buffer_ids,
)
flow_mods = st.builds(
    lambda ts, dpid, match, port, reply: FlowMod(
        timestamp=ts, dpid=dpid, match=match, out_port=port, in_reply_to=reply
    ),
    times, st.sampled_from(DPIDS), matches, st.integers(1, 4),
    st.one_of(st.none(), buffer_ids),
)
durations = st.one_of(
    st.floats(allow_nan=True, allow_infinity=False),
    st.sampled_from([-1.0, 0, 0.0, 2, 2.0, float("nan")]),
)
flow_removeds = st.builds(
    lambda ts, dpid, match, duration, nbytes, npackets: FlowRemoved(
        timestamp=ts, dpid=dpid, match=match, duration=duration,
        byte_count=nbytes, packet_count=npackets,
    ),
    times, st.sampled_from(DPIDS), matches, durations,
    st.integers(-5, 10**6), st.integers(-1, 100),
)
logs = st.lists(
    st.one_of(packet_ins, flow_mods, flow_removeds), max_size=40
).map(ControllerLog)
#: Messages without flow identity: the loops must act as if they were absent.
flowless = st.lists(
    st.one_of(
        st.builds(
            lambda ts, dpid, bid: PacketIn(timestamp=ts, dpid=dpid, flow=None, buffer_id=bid),
            times, st.sampled_from(DPIDS), buffer_ids,
        ),
        st.builds(
            lambda ts, dpid: FlowMod(timestamp=ts, dpid=dpid, match=None, out_port=1),
            times, st.sampled_from(DPIDS),
        ),
        st.builds(
            lambda ts, dpid, nbytes: FlowRemoved(
                timestamp=ts, dpid=dpid, match=None, duration=1.0, byte_count=nbytes
            ),
            times, st.sampled_from(DPIDS), st.integers(0, 10**6),
        ),
    ),
    min_size=1,
    max_size=4,
)


class TestAgainstOracle:
    """Extraction and join equal the two-scan versions they replaced,
    order and value types included (``repr`` tells ``2`` from ``2.0``).
    A negative gap splits a flow at every report, so two occurrences of
    one flow can tie on ``(time, flow)``."""

    @settings(max_examples=400, deadline=None)
    @given(logs, st.sampled_from([-1.0, 0.25, GAP]))
    def test_extraction_and_join_equal_the_oracle(self, log, gap):
        arrivals = extract_flow_arrivals(log, gap)
        want = oracle_extract_flow_arrivals(log, gap)
        assert arrivals == want and repr(arrivals) == repr(want)
        removed = log.flow_removed()
        records = join_flow_records(arrivals, removed)
        want_records = oracle_join_flow_records(want, removed)
        assert records == want_records and repr(records) == repr(want_records)
        assert extract_flow_records(log, gap) == want_records

    def test_an_equal_counter_keeps_the_first_value_like_max(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        log.append(
            FlowRemoved(
                timestamp=7.0, dpid="sw1", match=Match.exact(KEY),
                duration=0, byte_count=0.0, packet_count=0.0,
            )
        )
        (record,) = extract_flow_records(log)
        (want,) = oracle_join_flow_records(extract_flow_arrivals(log), log.flow_removed())
        assert repr(record) == repr(want)
        assert repr((record.byte_count, record.packet_count, record.duration)) == "(0, 0, 0.0)"

    @settings(max_examples=200, deadline=None)
    @given(logs, flowless)
    def test_flowless_messages_are_as_if_absent(self, log, extra):
        noisy = ControllerLog(list(log) + extra)
        want = oracle_join_flow_records(
            oracle_extract_flow_arrivals(log, GAP), log.flow_removed()
        )
        assert repr(extract_flow_records(noisy, GAP)) == repr(want)


class TestFlowlessMessages:
    """A ``"flow": null`` / ``"match": null`` line decodes (the format
    allows it) and must not stop modeling: each used to raise
    ``AttributeError`` on a window that a flow left unfinished."""

    def test_unpaired_null_match_flow_mod_pairs_with_nothing(self):
        log = ControllerLog()
        log.append(PacketIn(timestamp=1.0, dpid="sw1", flow=KEY, in_port=1, buffer_id=7))
        log.append(FlowMod(timestamp=1.5, dpid="sw1", match=None, out_port=2))
        (arrival,) = extract_flow_arrivals(log)
        assert arrival.hops == (HopReport("sw1", 1, 1.0),)

    def test_null_flow_packet_in_joins_no_occurrence(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        log.append(PacketIn(timestamp=1.2, dpid="sw1", flow=None, in_port=1, buffer_id=99))
        assert [a.flow for a in extract_flow_arrivals(log)] == [KEY]

    def test_null_match_expiry_joins_nothing(self):
        log = ControllerLog()
        traversal(log, KEY, 1.0, ["sw1"])
        log.append(
            FlowRemoved(timestamp=7.0, dpid="sw1", match=None, duration=1.0, byte_count=9)
        )
        (record,) = extract_flow_records(log)
        assert (record.byte_count, record.packet_count, record.duration) == (0, 0, 0.0)


@pytest.fixture(scope="module")
def cut_capture(tmp_path_factory):
    """A lab capture cut mid-traffic, so the last flows lose their
    replies and expiries: they reach the fallback pairing and the
    wildcard join, the two loops that dereferenced a null field."""
    workdir = tmp_path_factory.mktemp("flowless")
    path = str(workdir / "full.jsonl")
    assert main(["simulate", "--out", path, "--seed", "5", "--duration", "8.0"]) == 0
    full = read_log(path)
    # Cut right after a PacketIn, before the controller's reply to it.
    last = [p for p in full.packet_ins() if p.timestamp < 6.0][-1]
    return workdir, full.window(0.0, last.timestamp + 1e-6)


def one_flowless(log: ControllerLog, kind: str):
    if kind == "flow_removed":
        return FlowRemoved(
            timestamp=3.0, dpid="ofs1", match=None, duration=1.0, byte_count=500, packet_count=1
        )
    if kind == "packet_in":
        return PacketIn(timestamp=3.0, dpid="ofs1", flow=None, in_port=1, buffer_id=10**6)
    # The last PacketIn whose reply fell outside the cut scans its
    # switch's unpaired FlowMods; put the null one there.
    replied = {mod.in_reply_to for mod in log.flow_mods()}
    pin = [p for p in log.packet_ins() if p.buffer_id not in replied][-1]
    return FlowMod(timestamp=pin.timestamp, dpid=pin.dpid, match=None, out_port=1)


@pytest.mark.parametrize("kind", ["flow_removed", "flow_mod", "packet_in"])
class TestOneFlowlessLine:
    def test_model_is_the_same_as_without_it(self, cut_capture, kind):
        _, log = cut_capture
        noisy = ControllerLog(list(log) + [one_flowless(log, kind)])
        assert len(noisy) == len(log) + 1
        assert model_digest(FlowDiff().model(noisy)) == model_digest(FlowDiff().model(log))

    def test_diff_with_evidence_runs(self, cut_capture, kind, capsys):
        workdir, log = cut_capture
        clean = str(workdir / "clean.jsonl")
        noisy = str(workdir / f"{kind}.jsonl")
        save_log(log, clean)
        save_log(ControllerLog(list(log) + [one_flowless(log, kind)]), noisy)
        capsys.readouterr()
        want_code = main(["diff", clean, clean, "--evidence", "--json"])
        want = capsys.readouterr().out
        assert main(["diff", clean, noisy, "--evidence", "--json"]) == want_code
        assert capsys.readouterr().out == want
