"""Property harness for the Signature contract (flowlint's dynamic half).

The ``signature-contract`` lint rule checks statically that every
Signature subclass defines ``merge``/``diff``/``to_dict``/``from_dict``;
this file checks dynamically what no AST pass can: that ``merge`` is
associative over time-contiguous partial signatures (the invariant the
streaming window's per-slice merge rests on, so
``merge([merge([a, b]), c])``, ``merge([a, merge([b, c])])`` and
``merge([a, b, c])`` must all agree), that merging partials built over
slices of a real capture equals one build over the whole, and that the
``to_dict`` encoding is a fixed point under re-encoding.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import (
    FlowArrival,
    FlowRecord,
    HopReport,
    extract_flow_records,
)
from repro.core.signatures import (
    ComponentInteraction,
    ConnectivityGraph,
    ControllerResponseTime,
    DelayDistribution,
    FlowStats,
    InterSwitchLatency,
    PartialCorrelation,
    PhysicalTopology,
)
from repro.core.signatures.infrastructure import build_infrastructure_signature
from repro.openflow.match import FlowKey

HOSTS = ("h0", "h1", "h2", "h3")
DPIDS = ("s1", "s2", "s3")
T_START, T_END = 0.0, 30.0


def make_arrival(t, src, dst, n_hops):
    hops = []
    ts = t
    for i in range(n_hops):
        hops.append(
            HopReport(
                dpid=DPIDS[i % len(DPIDS)],
                in_port=i + 1,
                packet_in_at=ts,
                flow_mod_at=ts + 0.001,
                out_port=i + 2,
            )
        )
        ts += 0.002
    return FlowArrival(flow=FlowKey(src, dst, 1000, 80), time=t, hops=tuple(hops))


def make_record(arrival_obj, nbytes):
    return FlowRecord(
        arrival=arrival_obj,
        byte_count=nbytes,
        packet_count=max(1, nbytes // 1460),
        duration=0.05,
    )


#: One raw event: (centisecond timestamp, src index, dst offset, hop count,
#: byte count). Timestamps are integers scaled to floats so generated
#: streams sort deterministically without float-precision edge cases.
event_st = st.tuples(
    st.integers(min_value=0, max_value=2999),
    st.integers(min_value=0, max_value=len(HOSTS) - 1),
    st.integers(min_value=1, max_value=len(HOSTS) - 1),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=100, max_value=100_000),
)

events_st = st.lists(event_st, min_size=0, max_size=40)


def arrivals_from(events):
    """Sorted, time-contiguous arrival stream from raw generated events."""
    out = []
    for ts, src_i, dst_off, n_hops, _nbytes in sorted(events):
        src = HOSTS[src_i]
        dst = HOSTS[(src_i + dst_off) % len(HOSTS)]
        out.append(make_arrival(ts / 100.0, src, dst, n_hops))
    return out


def records_from(events):
    return [
        make_record(a, nbytes)
        for a, (_, _, _, _, nbytes) in zip(
            arrivals_from(events), sorted(events)
        )
    ]


def slices(items):
    """Three contiguous slices (some possibly empty) covering the stream."""
    third = len(items) // 3
    return items[:third], items[third : 2 * third], items[2 * third :]


class TestMergeAssociativity:
    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_connectivity_graph(self, events):
        a, b, c = (ConnectivityGraph.build(s) for s in slices(arrivals_from(events)))
        left = ConnectivityGraph.merge([ConnectivityGraph.merge([a, b]), c])
        right = ConnectivityGraph.merge([a, ConnectivityGraph.merge([b, c])])
        flat = ConnectivityGraph.merge([a, b, c])
        assert left == right == flat
        assert flat == ConnectivityGraph.build(arrivals_from(events))

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_component_interaction(self, events):
        a, b, c = (
            ComponentInteraction.build(s) for s in slices(arrivals_from(events))
        )
        left = ComponentInteraction.merge([ComponentInteraction.merge([a, b]), c])
        right = ComponentInteraction.merge([a, ComponentInteraction.merge([b, c])])
        flat = ComponentInteraction.merge([a, b, c])
        assert left == right == flat
        assert flat == ComponentInteraction.build(arrivals_from(events))

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_flow_stats(self, events):
        def build(s, keep):
            return FlowStats.build(s, T_START, T_END, keep_rows=keep)

        a, b, c = (build(s, True) for s in slices(records_from(events)))
        ab = FlowStats.merge([a, b], T_START, T_END, keep_rows=True)
        bc = FlowStats.merge([b, c], T_START, T_END, keep_rows=True)
        left = FlowStats.merge([ab, c], T_START, T_END)
        right = FlowStats.merge([a, bc], T_START, T_END)
        flat = FlowStats.merge([a, b, c], T_START, T_END)
        assert left == right == flat
        # Merging partials matches one build over the whole stream.
        assert flat == build(records_from(events), False)

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_delay_distribution(self, events):
        def build(s, keep):
            return DelayDistribution.build(s, keep_events=keep)

        a, b, c = (build(s, True) for s in slices(arrivals_from(events)))
        ab = DelayDistribution.merge([a, b], keep_events=True)
        bc = DelayDistribution.merge([b, c], keep_events=True)
        left = DelayDistribution.merge([ab, c])
        right = DelayDistribution.merge([a, bc])
        flat = DelayDistribution.merge([a, b, c])
        assert left == right == flat
        assert flat == build(arrivals_from(events), False)

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_partial_correlation(self, events):
        def build(s, keep):
            return PartialCorrelation.build(s, T_START, T_END, keep_times=keep)

        a, b, c = (build(s, True) for s in slices(arrivals_from(events)))
        ab = PartialCorrelation.merge([a, b], T_START, T_END, keep_times=True)
        bc = PartialCorrelation.merge([b, c], T_START, T_END, keep_times=True)
        left = PartialCorrelation.merge([ab, c], T_START, T_END)
        right = PartialCorrelation.merge([a, bc], T_START, T_END)
        flat = PartialCorrelation.merge([a, b, c], T_START, T_END)
        assert left == right == flat
        assert flat == build(arrivals_from(events), False)

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_physical_topology(self, events):
        def build(s, keep):
            return PhysicalTopology.build(s, keep_votes=keep)

        a, b, c = (build(s, True) for s in slices(arrivals_from(events)))
        ab = PhysicalTopology.merge([a, b], keep_votes=True)
        bc = PhysicalTopology.merge([b, c], keep_votes=True)
        left = PhysicalTopology.merge([ab, c])
        right = PhysicalTopology.merge([a, bc])
        flat = PhysicalTopology.merge([a, b, c])
        assert left == right == flat
        assert flat == build(arrivals_from(events), False)

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_inter_switch_latency(self, events):
        def build(s, keep):
            return InterSwitchLatency.build(s, keep_samples=keep)

        a, b, c = (build(s, True) for s in slices(arrivals_from(events)))
        ab = InterSwitchLatency.merge([a, b], keep_samples=True)
        bc = InterSwitchLatency.merge([b, c], keep_samples=True)
        left = InterSwitchLatency.merge([ab, c])
        right = InterSwitchLatency.merge([a, bc])
        flat = InterSwitchLatency.merge([a, b, c])
        assert left == right == flat
        assert flat == build(arrivals_from(events), False)

    @settings(max_examples=30, deadline=None)
    @given(events_st)
    def test_controller_response_time(self, events):
        def build(s, keep):
            return ControllerResponseTime.build(s, keep_samples=keep)

        a, b, c = (build(s, True) for s in slices(arrivals_from(events)))
        ab = ControllerResponseTime.merge([a, b], keep_samples=True)
        bc = ControllerResponseTime.merge([b, c], keep_samples=True)
        left = ControllerResponseTime.merge([ab, c])
        right = ControllerResponseTime.merge([a, bc])
        flat = ControllerResponseTime.merge([a, b, c])
        assert left == right == flat
        assert flat == build(arrivals_from(events), False)


class TestEncodingFixedPoint:
    """``to_dict`` output re-encodes to itself through ``from_dict``."""

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_connectivity_graph(self, events):
        sig = ConnectivityGraph.build(arrivals_from(events))
        data = sig.to_dict()
        assert ConnectivityGraph.from_dict(data).to_dict() == data

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_component_interaction(self, events):
        sig = ComponentInteraction.build(arrivals_from(events))
        data = sig.to_dict()
        assert ComponentInteraction.from_dict(data).to_dict() == data

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_flow_stats(self, events):
        sig = FlowStats.build(records_from(events), T_START, T_END)
        data = sig.to_dict()
        assert FlowStats.from_dict(data).to_dict() == data

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_delay_distribution(self, events):
        sig = DelayDistribution.build(arrivals_from(events))
        data = sig.to_dict()
        assert DelayDistribution.from_dict(data).to_dict() == data

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_partial_correlation(self, events):
        sig = PartialCorrelation.build(arrivals_from(events), T_START, T_END)
        data = sig.to_dict()
        assert PartialCorrelation.from_dict(data).to_dict() == data

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_infrastructure_components(self, events):
        arrivals = arrivals_from(events)
        for cls, sig in (
            (PhysicalTopology, PhysicalTopology.build(arrivals)),
            (InterSwitchLatency, InterSwitchLatency.build(arrivals)),
            (ControllerResponseTime, ControllerResponseTime.build(arrivals)),
        ):
            data = sig.to_dict()
            assert cls.from_dict(data).to_dict() == data


class TestSignatureMergeLaws:
    """merge(partials) == build(whole), per signature class."""

    @pytest.fixture(scope="class")
    def lab_log(self):
        from repro.scenarios import three_tier_lab

        return three_tier_lab(seed=3).run(stop=12.0)

    @pytest.fixture(scope="class")
    def records(self, lab_log):
        records = extract_flow_records(lab_log, 1.0)
        assert len(records) > 30
        return records

    @pytest.fixture(scope="class")
    def arrivals(self, records):
        return [r.arrival for r in records]

    @pytest.fixture(scope="class")
    def span(self, lab_log):
        return lab_log.time_span

    def test_connectivity_merge(self, arrivals):
        full = ConnectivityGraph.build(arrivals)
        parts = [ConnectivityGraph.build(p) for p in slices(arrivals)]
        assert ConnectivityGraph.merge(parts) == full

    def test_interaction_merge(self, arrivals):
        full = ComponentInteraction.build(arrivals)
        parts = [ComponentInteraction.build(p) for p in slices(arrivals)]
        assert ComponentInteraction.merge(parts) == full

    def test_flowstats_merge(self, records, span):
        t0, t1 = span
        full = FlowStats.build(records, t0, t1)
        parts = [
            FlowStats.build(p, t0, t1, keep_rows=True)
            for p in slices(records)
        ]
        assert FlowStats.merge(parts, t0, t1) == full

    def test_flowstats_merge_requires_rows(self, records, span):
        t0, t1 = span
        parts = [FlowStats.build(p, t0, t1) for p in slices(records)]
        with pytest.raises(ValueError, match="keep_rows"):
            FlowStats.merge(parts, t0, t1)

    def test_delay_merge(self, arrivals):
        full = DelayDistribution.build(arrivals)
        parts = [
            DelayDistribution.build(p, keep_events=True)
            for p in slices(arrivals)
        ]
        assert DelayDistribution.merge(parts) == full

    def test_delay_merge_requires_events(self, arrivals):
        parts = [DelayDistribution.build(p) for p in slices(arrivals)]
        if not any(p.samples for p in parts):
            pytest.skip("scenario produced no delay samples")
        with pytest.raises(ValueError, match="keep_events"):
            DelayDistribution.merge(parts)

    def test_correlation_merge(self, arrivals, span):
        t0, t1 = span
        full = PartialCorrelation.build(arrivals, t0, t1)
        parts = [
            PartialCorrelation.build(p, t0, t1, keep_times=True)
            for p in slices(arrivals)
        ]
        assert PartialCorrelation.merge(parts, t0, t1) == full

    def test_infrastructure_merge(self, arrivals):
        full = build_infrastructure_signature(arrivals, port_down_events=((1.0, "sw1", 3),))
        thirds = slices(arrivals)
        parts = [
            build_infrastructure_signature(
                p, port_down_events=((1.0, "sw1", 3),) if i == 0 else (),
                keep_partials=True,
            )
            for i, p in enumerate(thirds)
        ]
        merged = type(full).merge(parts)
        assert merged == full

    def test_merge_is_associative(self, arrivals, records, span):
        t0, t1 = span
        parts = [
            DelayDistribution.build(p, keep_events=True)
            for p in slices(arrivals)
        ]
        left = DelayDistribution.merge(
            [DelayDistribution.merge(parts[:2], keep_events=True), parts[2]]
        )
        assert left == DelayDistribution.merge(parts)
        fs_parts = [
            FlowStats.build(p, t0, t1, keep_rows=True)
            for p in slices(records)
        ]
        fs_left = FlowStats.merge(
            [FlowStats.merge(fs_parts[:2], t0, t1, keep_rows=True), fs_parts[2]],
            t0,
            t1,
        )
        assert fs_left == FlowStats.merge(fs_parts, t0, t1)
