"""Unit tests for the five application signatures and infrastructure bundle."""

from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

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
    SignatureKind,
)
from repro.core.signatures.delay import delay_cdf, pair_delays
from repro.core.signatures.flowstats import byte_cdf
from repro.openflow.match import FlowKey


def arrival(src, dst, t, dpids=(), response=0.001, hop_gap=0.002):
    hops = []
    ts = t
    for i, dpid in enumerate(dpids):
        hops.append(
            HopReport(
                dpid=dpid,
                in_port=i + 1,
                packet_in_at=ts,
                flow_mod_at=ts + response,
                out_port=i + 2,
            )
        )
        ts += hop_gap
    return FlowArrival(flow=FlowKey(src, dst, 1000, 80), time=t, hops=tuple(hops))


def record(src, dst, t, nbytes=1000, duration=0.1):
    return FlowRecord(
        arrival=arrival(src, dst, t),
        byte_count=nbytes,
        packet_count=max(1, nbytes // 1460),
        duration=duration,
    )


class TestConnectivityGraph:
    def test_build_and_first_seen(self):
        cg = ConnectivityGraph.build(
            [arrival("a", "b", 2.0), arrival("a", "b", 1.0), arrival("b", "c", 3.0)]
        )
        assert cg.edges == {("a", "b"), ("b", "c")}
        assert cg.first_seen_at(("a", "b")) == 1.0
        assert cg.first_seen_at(("z", "z")) is None

    def test_nodes_and_undirected(self):
        cg = ConnectivityGraph.build([arrival("a", "b", 1.0), arrival("b", "a", 2.0)])
        assert cg.nodes() == {"a", "b"}
        assert cg.undirected_edges() == {("a", "b")}

    def test_distance(self):
        cg1 = ConnectivityGraph.build([arrival("a", "b", 1.0)])
        cg2 = ConnectivityGraph.build([arrival("a", "b", 1.0), arrival("b", "c", 1.0)])
        assert cg1.distance(cg1) == 0.0
        assert cg1.distance(cg2) == pytest.approx(0.5)

    def test_diff_directions(self):
        cg1 = ConnectivityGraph.build([arrival("a", "b", 1.0), arrival("b", "c", 1.0)])
        cg2 = ConnectivityGraph.build([arrival("a", "b", 1.0), arrival("x", "y", 4.0)])
        changes = cg1.diff(cg2, scope="g")
        added = [c for c in changes if c.direction == "added"]
        removed = [c for c in changes if c.direction == "removed"]
        assert len(added) == 1 and added[0].timestamp == 4.0
        assert "x" in added[0].components
        assert len(removed) == 1
        assert all(c.kind == SignatureKind.CG for c in changes)


class TestFlowStats:
    def test_scalar_summaries(self):
        records = [record("a", "b", float(i), nbytes=1000) for i in range(10)]
        fs = FlowStats.build(records, 0.0, 10.0, epoch=1.0)
        assert fs.flow_count == 10
        assert fs.byte_mean == pytest.approx(1000)
        assert fs.flows_per_sec.average == pytest.approx(1.0)
        assert dict(fs.per_edge_bytes)[("a", "b")] == 10000

    def test_zero_counter_records_excluded_from_moments(self):
        records = [record("a", "b", 0.0, nbytes=0), record("a", "b", 1.0, nbytes=500)]
        fs = FlowStats.build(records, 0.0, 2.0)
        assert fs.byte_mean == pytest.approx(500)
        assert fs.flow_count == 2

    def test_byte_cdf(self):
        records = [record("a", "b", 0.0, nbytes=n) for n in (100, 200, 300)]
        cdf = byte_cdf(records)
        assert cdf(200) == pytest.approx(2 / 3)

    def test_diff_flags_byte_growth(self):
        base = FlowStats.build(
            [record("a", "b", float(i), nbytes=1000) for i in range(20)], 0, 20
        )
        cur = FlowStats.build(
            [record("a", "b", float(i), nbytes=2000) for i in range(20)], 0, 20
        )
        changes = base.diff(cur, "g", threshold=0.3)
        assert changes
        assert all(c.kind == SignatureKind.FS for c in changes)
        assert any("byte count" in c.description for c in changes)

    def test_no_diff_within_threshold(self):
        base = FlowStats.build(
            [record("a", "b", float(i), nbytes=1000) for i in range(20)], 0, 20
        )
        cur = FlowStats.build(
            [record("a", "b", float(i), nbytes=1100) for i in range(20)], 0, 20
        )
        assert base.diff(cur, "g", threshold=0.3) == []


class TestComponentInteraction:
    def arrivals(self, counts):
        """counts: list of ((src, dst), n)."""
        out = []
        t = 0.0
        for (src, dst), n in counts:
            for _ in range(n):
                out.append(arrival(src, dst, t))
                t += 0.01
        return out

    def test_normalization(self):
        ci = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 3), (("n", "b"), 1)])
        )
        norm = ci.normalized("n")
        assert norm[("in", "a")] == pytest.approx(0.75)
        assert norm[("out", "b")] == pytest.approx(0.25)

    def test_chi2_zero_for_identical(self):
        arrivals = self.arrivals([(("a", "n"), 5), (("n", "b"), 5)])
        ci1 = ComponentInteraction.build(arrivals)
        ci2 = ComponentInteraction.build(arrivals)
        assert ci1.chi2_at(ci2, "n") == 0.0

    def test_chi2_scales_out_volume(self):
        """Double the workload, same distribution: chi2 stays ~0."""
        ci1 = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 10), (("n", "b"), 10)])
        )
        ci2 = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 20), (("n", "b"), 20)])
        )
        assert ci1.chi2_at(ci2, "n") == pytest.approx(0.0, abs=1e-9)

    def test_chi2_detects_distribution_shift(self):
        ci1 = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 50), (("n", "b"), 50)])
        )
        ci2 = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 95), (("n", "b"), 5)])
        )
        assert ci1.chi2_at(ci2, "n") > 10.0

    def test_diff_emits_change_records(self):
        ci1 = ComponentInteraction.build(
            self.arrivals([(("a", "n"), 50), (("n", "b"), 50)])
        )
        ci2 = ComponentInteraction.build(self.arrivals([(("a", "n"), 100)]))
        changes = ci1.diff(ci2, "g", chi2_threshold=10.0)
        assert changes
        assert any("n" in c.components for c in changes)

    def test_distance_bounded(self):
        ci1 = ComponentInteraction.build(self.arrivals([(("a", "n"), 5)]))
        ci2 = ComponentInteraction.build(self.arrivals([(("n", "b"), 5)]))
        assert 0.0 <= ci1.distance(ci2) <= 1.0


class TestDelayDistribution:
    def chain(self, delay, n=50, spacing=1.0):
        """n request chains a->n then n->b `delay` seconds later."""
        arrivals = []
        for i in range(n):
            t = i * spacing
            arrivals.append(arrival("a", "n", t))
            arrivals.append(arrival("n", "b", t + delay))
        return arrivals

    def test_peak_at_processing_delay(self):
        dd = DelayDistribution.build(self.chain(0.06), bin_width=0.02)
        pair = (("a", "n"), ("n", "b"))
        assert dd.dominant_peak(pair) == pytest.approx(0.07, abs=0.011)

    def test_mean_delay_first_pairing(self):
        dd = DelayDistribution.build(self.chain(0.06))
        pair = (("a", "n"), ("n", "b"))
        assert dd.mean_delay(pair) == pytest.approx(0.06, abs=0.005)

    def test_window_excludes_far_flows(self):
        dd = DelayDistribution.build(self.chain(2.0, spacing=5.0), window=1.0)
        assert (("a", "n"), ("n", "b")) not in dd.pairs()

    def test_diff_detects_peak_shift(self):
        dd1 = DelayDistribution.build(self.chain(0.06))
        dd2 = DelayDistribution.build(self.chain(0.12))
        changes = dd1.diff(dd2, "g", shift_threshold=0.03, mean_threshold=0.015)
        assert changes
        assert changes[0].kind == SignatureKind.DD
        assert "n" in changes[0].components

    def test_diff_detects_mean_shift_without_peak_move(self):
        """A delayed minority (retransmission tail) moves the mean only."""
        base = self.chain(0.05, n=60)
        tail = self.chain(0.05, n=45) + [
            a for pair in [
                (arrival("a", "n", 100 + i), arrival("n", "b", 100 + i + 0.25))
                for i in range(15)
            ] for a in pair
        ]
        dd1 = DelayDistribution.build(base)
        dd2 = DelayDistribution.build(tail)
        changes = dd1.diff(dd2, "g", shift_threshold=0.5, mean_threshold=0.015)
        assert changes
        assert "mean" in changes[0].description

    def test_no_diff_when_stable(self):
        dd1 = DelayDistribution.build(self.chain(0.06))
        dd2 = DelayDistribution.build(self.chain(0.062))
        assert dd1.diff(dd2, "g", shift_threshold=0.03, mean_threshold=0.015) == []

    def test_ambiguous_peak_reported_unknown(self):
        bimodal = self.chain(0.05, n=30) + [
            a
            for i in range(30)
            for a in (arrival("a", "n", 500 + i), arrival("n", "b", 500 + i + 0.15))
        ]
        dd = DelayDistribution.build(bimodal)
        assert dd.dominant_peak((("a", "n"), ("n", "b"))) == -1.0

    def test_delay_cdf(self):
        cdf = delay_cdf(self.chain(0.06), (("a", "n"), ("n", "b")))
        assert cdf(0.1) == pytest.approx(1.0)
        assert cdf(0.01) == pytest.approx(0.0)


def oracle_pair_delays(
    arrivals: Sequence[FlowArrival],
    window: float = 1.0,
    max_pairs_per_in: int = 8,
) -> Tuple[Dict, Dict]:
    """``pair_delays`` as it was, copying the tail per incoming flow."""
    incoming: Dict[str, List] = {}
    outgoing: Dict[str, List] = {}
    for arrival in arrivals:
        edge = (arrival.src, arrival.dst)
        outgoing.setdefault(arrival.src, []).append((arrival.time, edge))
        incoming.setdefault(arrival.dst, []).append((arrival.time, edge))

    delays: Dict = {}
    first_delays: Dict = {}
    for node, in_list in incoming.items():
        out_list = sorted(outgoing.get(node, []))
        if not out_list:
            continue
        out_times = [t for t, _ in out_list]
        for t_in, in_edge in sorted(in_list):
            lo, hi = 0, len(out_times)
            while lo < hi:
                mid = (lo + hi) // 2
                if out_times[mid] <= t_in:
                    lo = mid + 1
                else:
                    hi = mid
            paired = 0
            seen_pairs = set()
            for t_out, out_edge in out_list[lo:]:
                if t_out - t_in > window or paired >= max_pairs_per_in:
                    break
                pair = (in_edge, out_edge)
                delays.setdefault(pair, []).append(t_out - t_in)
                if pair not in seen_pairs:
                    seen_pairs.add(pair)
                    first_delays.setdefault(pair, []).append(t_out - t_in)
                paired += 1
    return delays, first_delays


class TestPairDelaysOracle:
    """The bisecting, capped scan equals the tail-copying one exactly:
    the same pairs, in the same order, with the same delay lists."""

    hosts = st.sampled_from(["a", "n", "b", "c"])
    #: A dense eighth-second grid over three seconds: ties, gaps of
    #: exactly the window, and bursts of far more than eight outgoing
    #: flows inside one window.
    times = st.one_of(
        st.integers(0, 24).map(lambda k: k * 0.125),
        st.floats(0.0, 3.0, allow_nan=False),
    )
    arrivals = st.lists(
        st.builds(lambda s, d, t: arrival(s, d, t), hosts, hosts, times), max_size=80
    )

    @settings(max_examples=300, deadline=None)
    @given(arrivals, st.sampled_from([0.125, 0.5, 1.0]), st.integers(-1, 10))
    def test_equals_the_oracle(self, arrivals, window, cap):
        got = pair_delays(arrivals, window, cap)
        want = oracle_pair_delays(arrivals, window, cap)
        for mine, theirs in zip(got, want):
            assert list(mine.items()) == list(theirs.items())

    @pytest.mark.parametrize("cap", [0, -1, -3])
    def test_a_non_positive_cap_pairs_nothing(self, cap):
        arrivals = [arrival("a", "n", 0.0), arrival("n", "b", 0.1), arrival("n", "c", 0.2)]
        assert pair_delays(arrivals, 1.0, cap) == ({}, {}) == oracle_pair_delays(arrivals, 1.0, cap)

    def test_a_burst_is_capped_per_incoming_flow(self):
        burst = [arrival("a", "n", 0.0)] + [arrival("n", "b", 0.01 * k) for k in range(1, 21)]
        delays, first = pair_delays(burst, window=1.0, max_pairs_per_in=8)
        pair = (("a", "n"), ("n", "b"))
        assert delays[pair] == [0.01 * k for k in range(1, 9)]
        assert first[pair] == [0.01]


class TestPartialCorrelation:
    def correlated_arrivals(self, n_epochs=30, per_epoch=(5, 5)):
        arrivals = []
        for e in range(n_epochs):
            burst = 1 + (e % 5)
            for i in range(burst * per_epoch[0]):
                arrivals.append(arrival("a", "n", e + i * 0.001))
            for i in range(burst * per_epoch[1]):
                arrivals.append(arrival("n", "b", e + 0.5 + i * 0.001))
        return arrivals

    def test_dependent_edges_high_correlation(self):
        pc = PartialCorrelation.build(self.correlated_arrivals(), 0.0, 30.0, epoch=1.0)
        pair = (("a", "n"), ("n", "b"))
        assert pc.value(pair) > 0.9

    def test_independent_edges_low_correlation(self):
        import random

        rng = random.Random(9)
        arrivals = []
        for e in range(40):
            for _ in range(rng.randint(1, 10)):
                arrivals.append(arrival("a", "n", e + rng.random()))
            for _ in range(rng.randint(1, 10)):
                arrivals.append(arrival("n", "b", e + rng.random()))
        pc = PartialCorrelation.build(arrivals, 0.0, 40.0, epoch=1.0)
        assert abs(pc.value((("a", "n"), ("n", "b")))) < 0.6

    def test_sparse_edges_skipped(self):
        arrivals = [arrival("a", "n", 1.0), arrival("n", "b", 1.1)]
        pc = PartialCorrelation.build(arrivals, 0.0, 10.0, min_count=4)
        assert pc.correlations == ()

    def test_reverse_edges_not_paired(self):
        arrivals = []
        for e in range(20):
            arrivals.append(arrival("a", "n", e + 0.1))
            arrivals.append(arrival("n", "a", e + 0.2))
        pc = PartialCorrelation.build(arrivals, 0.0, 20.0)
        assert (("a", "n"), ("n", "a")) not in pc.pairs()

    def test_diff_flags_collapse(self):
        pc1 = PartialCorrelation.build(self.correlated_arrivals(), 0.0, 30.0)
        import random

        rng = random.Random(3)
        noise = []
        for e in range(30):
            for _ in range(rng.randint(1, 12)):
                noise.append(arrival("a", "n", e + rng.random()))
            for _ in range(rng.randint(1, 12)):
                noise.append(arrival("n", "b", e + rng.random()))
        pc2 = PartialCorrelation.build(noise, 0.0, 30.0)
        changes = pc1.diff(pc2, "g", delta_threshold=0.4)
        assert changes
        assert changes[0].kind == SignatureKind.PC


class TestInfrastructure:
    def test_physical_topology_inference(self):
        arrivals = [
            arrival("a", "b", 1.0, dpids=("sw1", "sw2", "sw3")),
            arrival("b", "a", 2.0, dpids=("sw3", "sw2", "sw1")),
        ]
        pt = PhysicalTopology.build(arrivals)
        assert pt.switch_links == {("sw1", "sw2"), ("sw2", "sw3")}
        assert pt.attachment_of("a") == "sw1"
        assert pt.attachment_of("b") == "sw3"

    def test_pt_diff_reports_moves_and_links(self):
        pt1 = PhysicalTopology.build([arrival("a", "b", 1.0, dpids=("sw1", "sw2"))])
        pt2 = PhysicalTopology.build(
            [
                arrival("a", "b", 1.0, dpids=("sw1", "sw3")),
                # Keep sw2 observed so the missing sw1--sw2 link counts as
                # a change rather than an idle link.
                arrival("x", "y", 2.0, dpids=("sw2",)),
            ]
        )
        changes = pt1.diff(pt2)
        descs = " | ".join(c.description for c in changes)
        assert "missing switch link sw1 -- sw2" in descs
        assert "new switch link sw1 -- sw3" in descs
        assert "host b moved sw2 -> sw3" in descs

    def test_pt_idle_link_not_reported_missing(self):
        """A link unobserved because no flow crossed it is not a change."""
        pt1 = PhysicalTopology.build([arrival("a", "b", 1.0, dpids=("sw1", "sw2"))])
        pt2 = PhysicalTopology.build([arrival("x", "y", 1.0, dpids=("sw9",))])
        changes = pt1.diff(pt2)
        assert not any("missing switch link" in c.description for c in changes)

    def test_pt_attachment_majority_vote(self):
        """Truncated traversals must not flip a host's attachment."""
        arrivals = [
            arrival("a", "b", float(i), dpids=("sw1", "sw2")) for i in range(5)
        ]
        # One window-truncated observation pointing the wrong way.
        arrivals.append(arrival("a", "b", 9.0, dpids=("sw2",)))
        pt = PhysicalTopology.build(arrivals)
        assert pt.attachment_of("a") == "sw1"

    def test_isl_measures_hop_gap(self):
        arrivals = [
            arrival("a", "b", float(i), dpids=("sw1", "sw2"), response=0.001, hop_gap=0.003)
            for i in range(10)
        ]
        isl = InterSwitchLatency.build(arrivals)
        # gap between flow_mod(sw1)=t+0.001 and packet_in(sw2)=t+0.003.
        assert isl.mean_of(("sw1", "sw2")) == pytest.approx(0.002, abs=1e-6)

    def test_isl_diff_sigma_threshold(self):
        base = InterSwitchLatency.build(
            [arrival("a", "b", float(i), dpids=("sw1", "sw2"), hop_gap=0.003) for i in range(10)]
        )
        slow = InterSwitchLatency.build(
            [arrival("a", "b", float(i), dpids=("sw1", "sw2"), hop_gap=0.03) for i in range(10)]
        )
        assert base.diff(slow, sigma_threshold=3.0)
        assert base.diff(base, sigma_threshold=3.0) == []

    def test_crt_mean_and_diff(self):
        fast = ControllerResponseTime.build(
            [arrival("a", "b", float(i), dpids=("sw1",), response=0.001) for i in range(10)]
        )
        slow = ControllerResponseTime.build(
            [arrival("a", "b", float(i), dpids=("sw1",), response=0.02) for i in range(10)]
        )
        assert fast.mean == pytest.approx(0.001)
        assert fast.diff(slow, sigma_threshold=3.0)
        assert fast.diff(fast, sigma_threshold=3.0) == []

    def test_crt_needs_samples(self):
        empty = ControllerResponseTime.build([])
        assert empty.count == 0
        assert empty.diff(empty, sigma_threshold=3.0) == []
