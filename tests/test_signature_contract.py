"""Property harness for the Signature contract (flowlint's dynamic half).

The ``signature-contract`` lint rule checks statically that every
Signature subclass defines ``diff``/``to_dict``/``from_dict``; this file
checks dynamically what no AST pass can: that a signature holds exactly
what its ``to_dict`` writes, so ``from_dict(sig.to_dict()) == sig`` — a
reloaded signature *is* the built one, not an approximation of it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.events import FlowArrival, FlowRecord, HopReport
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


class TestEncodingFixedPoint:
    """``from_dict`` of a signature's ``to_dict`` is that signature."""

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_connectivity_graph(self, events):
        sig = ConnectivityGraph.build(arrivals_from(events))
        assert ConnectivityGraph.from_dict(sig.to_dict()) == sig

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_component_interaction(self, events):
        sig = ComponentInteraction.build(arrivals_from(events))
        assert ComponentInteraction.from_dict(sig.to_dict()) == sig

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_flow_stats(self, events):
        sig = FlowStats.build(records_from(events), T_START, T_END)
        assert FlowStats.from_dict(sig.to_dict()) == sig

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_delay_distribution(self, events):
        sig = DelayDistribution.build(arrivals_from(events))
        assert DelayDistribution.from_dict(sig.to_dict()) == sig

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_partial_correlation(self, events):
        sig = PartialCorrelation.build(arrivals_from(events), T_START, T_END)
        assert PartialCorrelation.from_dict(sig.to_dict()) == sig

    @settings(max_examples=20, deadline=None)
    @given(events_st)
    def test_infrastructure_components(self, events):
        arrivals = arrivals_from(events)
        for cls, sig in (
            (PhysicalTopology, PhysicalTopology.build(arrivals)),
            (InterSwitchLatency, InterSwitchLatency.build(arrivals)),
            (ControllerResponseTime, ControllerResponseTime.build(arrivals)),
        ):
            assert cls.from_dict(sig.to_dict()) == sig
