"""Tests for the per-flow causal flight recorder (``repro.obs.flightrec``)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diff.evidence import attach_evidence
from repro.core.diff.html import report_to_html
from repro.core.diff.ranking import select_evidence_flows
from repro.core.flowdiff import FlowDiff
from repro.core.occurrence import splits_occurrence
from repro.faults import HostShutdown
from repro.faults.network import LinkFailure
from repro.obs import flightrec
from repro.obs.flightrec import (
    DEFAULT_OCCURRENCE_GAP,
    FlightRecorder,
    FlowTimeline,
    TimelineEvent,
    reconstruct,
)
from repro.obs.metrics import MetricsRegistry
from repro.openflow.log import ControllerLog
from repro.openflow.match import FlowKey, Match
from repro.openflow.messages import (
    FlowMod,
    FlowRemoved,
    FlowStatsReply,
    PacketIn,
    PacketOut,
    PortStatus,
)
from repro.openflow.serialize import message_from_json, message_to_json
from repro.scenarios import scalability_sim, three_tier_lab


@pytest.fixture(scope="module")
def lab_log():
    """A healthy 3-tier run, long enough that every flow expires."""
    return three_tier_lab(seed=3).run(0.5, 10.0)


@pytest.fixture(scope="module")
def recorder(lab_log):
    return FlightRecorder.from_log(lab_log)


class TestCorrelationPlumbing:
    def test_every_tracked_message_carries_an_id(self, lab_log):
        for msg in lab_log:
            if isinstance(msg, (PacketIn, FlowRemoved)):
                assert msg.corr_id is not None

    def test_ids_partition_packet_ins_by_flow(self, lab_log):
        # All PacketIns sharing a corr_id must describe the same 5-tuple.
        flows = {}
        for msg in lab_log.packet_ins():
            flows.setdefault(msg.corr_id, set()).add(str(msg.flow))
        assert flows
        assert all(len(v) == 1 for v in flows.values())

    def test_log_helpers(self, lab_log):
        ids = lab_log.correlation_ids()
        assert ids and len(ids) == len(set(ids))
        one = lab_log.correlated(ids[0])
        assert len(one) > 0
        assert all(m.corr_id == ids[0] for m in one)

    def test_serialization_round_trips_corr_id(self, lab_log):
        for msg in list(lab_log)[:200]:
            back = message_from_json(message_to_json(msg))
            assert back.corr_id == msg.corr_id


class TestReconstruction:
    def test_every_flow_has_a_complete_monotone_chain(self, recorder):
        """Acceptance: PacketIn -> FlowMod -> FlowRemoved for every flow."""
        assert len(recorder) > 0
        for timeline in recorder.timelines:
            assert timeline.complete, timeline.describe()
            assert timeline.monotone, timeline.describe()
            assert not timeline.synthetic
            stages = [e.stage for e in timeline.events]
            assert stages[0] == "packet_in"
            assert "flow_mod" in stages
            assert stages[-1] == "flow_removed"

    def test_multi_hop_chains_cover_the_path(self, recorder):
        multi = [t for t in recorder.timelines if len(t.hops) >= 2]
        assert multi, "expected cross-switch flows in the 3-tier lab"
        for timeline in multi:
            # One controller decision per traversed switch.
            assert len(timeline.controller_latencies()) == len(timeline.hops)
            assert all(lat >= 0 for lat in timeline.controller_latencies())

    def test_summary_counts(self, recorder):
        s = recorder.summary()
        assert s["flows"] == len(recorder)
        assert s["complete"] == s["flows"]
        assert s["incomplete"] == s["synthetic"] == s["reordered"] == 0

    def test_timeline_lookup_and_flow_filter(self, recorder):
        first = recorder.timelines[0]
        assert recorder.timeline(first.corr_id) is first
        assert recorder.timeline(10**9) is None
        db = recorder.for_flow(":3306")
        assert db
        assert all(":3306" in str(t.flow) for t in db)

    def test_for_component_switch_host_edge(self, recorder):
        by_switch = recorder.for_component("ofs1")
        assert by_switch and all("ofs1" in t.hops for t in by_switch)
        by_host = recorder.for_component("S8")
        assert by_host and all("S8" in t.flow.endpoints() for t in by_host)
        # Edge matching needs consecutive traversal of both endpoints.
        a_switch = recorder.timelines[0].hops[0]
        for t in recorder.for_component(f"{a_switch}--nonexistent"):
            pytest.fail(f"edge with unknown endpoint matched {t.describe()}")

    def test_total_latency_is_setup_portion(self, recorder):
        t = recorder.timelines[0]
        mods = t.stage_events("flow_mod")
        assert t.total_latency == pytest.approx(mods[-1].timestamp - t.t_start)
        assert t.total_latency < t.t_end - t.t_start  # excludes the expiry wait


class TestDegradedCaptures:
    def test_dropped_flow_removed_marks_incomplete(self, lab_log):
        pruned = lab_log.filter(lambda m: not isinstance(m, FlowRemoved))
        timelines = reconstruct(pruned)
        assert timelines
        for t in timelines:
            assert not t.complete
            assert "flow_removed" in t.dropped_stages

    def test_reordered_messages_flagged_not_fatal(self, lab_log):
        # Corrupt one flow's PacketIn to arrive after everything else.
        victim = lab_log.correlation_ids()[0]
        _, t_end = lab_log.time_span
        messages = []
        for m in lab_log:
            if m.corr_id == victim and isinstance(m, PacketIn):
                m = dataclasses.replace(m, timestamp=t_end + 100.0)
            messages.append(m)
        recorder = FlightRecorder.from_log(ControllerLog(messages))
        broken = recorder.timeline(victim)
        assert broken is not None
        assert broken.complete  # all stages still present
        assert recorder.summary()["reordered"] >= 1 or broken.monotone is False

    def test_idless_capture_grouped_heuristically(self, lab_log):
        stripped = _strip_corr(lab_log)
        timelines = reconstruct(stripped, occurrence_gap=DEFAULT_OCCURRENCE_GAP)
        assert timelines
        assert all(t.synthetic and t.corr_id < 0 for t in timelines)
        # Heuristic grouping still recovers complete chains for lab flows.
        assert any(t.complete for t in timelines)

    def test_occurrence_gap_splits_instances(self, lab_log):
        stripped = _strip_corr(lab_log)
        coarse = reconstruct(stripped, occurrence_gap=10**6)
        fine = reconstruct(stripped, occurrence_gap=0.001)
        assert len(fine) > len(coarse)


class TestAnnotations:
    def test_registry_samples_attached(self):
        metrics = MetricsRegistry()
        log = three_tier_lab(seed=3, metrics=metrics).run(0.5, 5.0)
        recorder = FlightRecorder.from_log(log, metrics=metrics)
        annotated = [t for t in recorder.timelines if t.annotations]
        assert annotated
        keys = set().union(*(t.annotations for t in annotated))
        assert any(k.startswith("flowtable_entries") for k in keys)


class TestEvidenceChains:
    @pytest.fixture(scope="class")
    def faulted(self):
        scenario = three_tier_lab(seed=3)
        scenario.inject(LinkFailure("ofs1", "ofs3"), at=40.0)
        return scenario.run(0.5, 70.0)

    def test_attach_evidence_populates_report(self, lab_log, faulted):
        fd = FlowDiff()
        baseline = fd.model(lab_log)
        current_log = faulted.window(40.0, 70.0)
        report = fd.diff(baseline, fd.model(current_log, assess=False))
        assert report.component_ranking
        enriched = attach_evidence(report, current_log)
        assert enriched.evidence
        for chain in enriched.evidence:
            assert chain.timelines
            assert any(chain.component == c for c, _ in report.component_ranking)
        # Rendering and serialization carry the chains.
        assert "Evidence chains" in enriched.render()
        assert enriched.to_dict()["evidence"]
        assert "Evidence chains" in report_to_html(enriched)

    def test_healthy_report_unchanged(self, lab_log):
        fd = FlowDiff()
        model = fd.model(lab_log)
        report = fd.diff(model, model)
        assert attach_evidence(report, lab_log) is report

    def test_select_evidence_prefers_broken_flows(self, lab_log):
        recorder = FlightRecorder.from_log(lab_log)
        whole = recorder.timelines[0]
        incomplete = FlightRecorder.from_log(
            lab_log.filter(lambda m: not isinstance(m, FlowRemoved))
        ).timelines[0]
        picked = select_evidence_flows([whole, incomplete], limit=1)
        assert picked == [incomplete]


# ----------------------------------------------------------------------
# The lazy recorder against an eager reference
# ----------------------------------------------------------------------

_STAGES = (
    (PacketIn, "packet_in"),
    (FlowMod, "flow_mod"),
    (PacketOut, "packet_out"),
    (FlowStatsReply, "flow_stats"),
    (FlowRemoved, "flow_removed"),
)


def _ref_stage(msg):
    return next((stage for cls, stage in _STAGES if isinstance(msg, cls)), None)


def _ref_flow(msg):
    if isinstance(msg, (PacketIn, PacketOut)):
        return msg.flow
    match = getattr(msg, "match", None)
    if isinstance(match, Match) and match.is_microflow:
        return FlowKey(
            match.src, match.dst, match.src_port, match.dst_port, match.proto or "tcp"
        )
    return None


def _ref_detail(msg):
    if isinstance(msg, PacketIn):
        return f"table miss, in_port={msg.in_port}"
    if isinstance(msg, FlowMod):
        reply = f" reply_to=#{msg.in_reply_to}" if msg.in_reply_to is not None else ""
        return f"install out_port={msg.out_port} idle={msg.idle_timeout:g}s{reply}"
    if isinstance(msg, PacketOut):
        return f"release buffered packet out_port={msg.out_port}"
    if isinstance(msg, FlowRemoved):
        return (
            f"expired ({msg.reason.value}) after {msg.duration:g}s, "
            f"{msg.byte_count}B/{msg.packet_count}pkt"
        )
    return f"counter poll: {msg.byte_count}B/{msg.packet_count}pkt"


def _ref_timeline(corr_id, messages, synthetic):
    order = [stage for _, stage in _STAGES]
    ordered = sorted(
        messages, key=lambda m: (m.timestamp, order.index(_ref_stage(m)))
    )
    flows = [f for f in map(_ref_flow, ordered) if f is not None]
    timeline = FlowTimeline(corr_id, flows[0] if flows else None, synthetic=synthetic)
    for prev, msg in zip([None] + ordered, ordered):
        timeline.events.append(
            TimelineEvent(
                msg.timestamp,
                _ref_stage(msg),
                msg.dpid,
                _ref_detail(msg),
                0.0 if prev is None else msg.timestamp - prev.timestamp,
            )
        )
    return timeline


def eager_reconstruct(log, occurrence_gap=DEFAULT_OCCURRENCE_GAP):
    """Every chain of ``log``, all built up front, the way the recorder
    did before it was an index: isinstance walks, a sort per chain, and
    synthetic ids handed out 5-tuple by 5-tuple, occurrence by occurrence."""
    by_corr, loose = {}, {}
    for msg in log:
        if _ref_stage(msg) is None:
            continue
        if msg.corr_id is not None:
            by_corr.setdefault(msg.corr_id, []).append(msg)
        elif _ref_flow(msg) is not None:
            loose.setdefault(_ref_flow(msg), []).append(msg)
    timelines = [_ref_timeline(cid, msgs, False) for cid, msgs in by_corr.items()]
    buckets = []
    for flow in sorted(loose, key=str):
        msgs = sorted(loose[flow], key=lambda m: m.timestamp)
        buckets.append([msgs[0]])
        for prev, msg in zip(msgs, msgs[1:]):
            if splits_occurrence(prev.timestamp, msg.timestamp, occurrence_gap):
                buckets.append([])
            buckets[-1].append(msg)
    timelines += [_ref_timeline(-n, b, True) for n, b in enumerate(buckets, 1)]
    timelines.sort(key=lambda t: (t.t_start, t.corr_id))
    return timelines


def eager_evidence(report, log, max_components=3, max_flows=3):
    """``(component, timelines)`` per suspect: build all, test all, pick."""
    timelines = eager_reconstruct(log)
    chains = []
    for component, _ in report.component_ranking[:max_components]:
        implicated = [
            t for t in timelines if flightrec._timeline_touches(t, component)
        ]
        if implicated:
            chains.append((component, select_evidence_flows(implicated, max_flows)))
    return chains


def _strip_corr(log):
    return ControllerLog([dataclasses.replace(m, corr_id=None) for m in log])


def _count_builds(monkeypatch):
    """Route ``_build_timeline`` through a recording wrapper; returns the
    list the built correlation ids land in."""
    built = []
    real = flightrec._build_timeline

    def counting(corr_id, messages, synthetic):
        built.append(corr_id)
        return real(corr_id, messages, synthetic)

    monkeypatch.setattr(flightrec, "_build_timeline", counting)
    return built


@pytest.fixture(scope="module")
def lab_fault(lab_log):
    """(report, current log) for a link failure on the lab testbed."""
    scenario = three_tier_lab(seed=3)
    scenario.inject(LinkFailure("ofs1", "ofs3"), at=40.0)
    current = scenario.run(0.5, 70.0).window(40.0, 70.0)
    fd = FlowDiff()
    report = fd.diff(fd.model(lab_log), fd.model(current, assess=False))
    assert report.component_ranking
    return report, current


@pytest.fixture(scope="module")
def tree_fault():
    """(report, current log) for a host shut down on the 320-server tree."""
    logs = []
    for shutdown in (False, True):
        network, workload = scalability_sim(n_apps=6, seed=11)
        if shutdown:
            HostShutdown(workload.apps[0].app[0]).inject_at(network, 0.0)
        workload.start(0.5, 3.0)
        network.sim.run(until=6.0)
        logs.append(network.log)
    fd = FlowDiff()
    report = fd.diff(
        fd.model(logs[0]), fd.model(logs[1], assess=False), current_log=logs[1]
    )
    assert report.component_ranking
    return report, logs[1]


@pytest.fixture(scope="module")
def stripped_fault(lab_fault):
    """The lab fault with every correlation id gone: synthetic ids only."""
    report, current = lab_fault
    return report, _strip_corr(current)


CAPTURES = ("lab_fault", "tree_fault", "stripped_fault")

_HEADER = dict(
    timestamp=st.sampled_from([0.0, 1.0, 1.0, 2.5, 20.0]),
    dpid=st.sampled_from(["s1", "s2"]),
    corr_id=st.sampled_from([None, None, 1, 2]),
)
_FLOWS = st.none() | st.builds(
    FlowKey, st.sampled_from(["h1", "h3"]), st.just("h2"), st.just(1000), st.just(80)
)
_MATCHES = st.none() | st.builds(
    Match,
    st.sampled_from(["h1", "h3"]),
    st.just("h2"),
    st.sampled_from([None, 1000]),
    st.just(80),
    st.sampled_from([None, "tcp"]),
)
#: Small, collision-heavy captures: few stamps, two switches, ids that
#: may be absent, flows and matches that may be missing or wildcarded.
RANDOM_MESSAGES = st.one_of(
    st.builds(PacketIn, **_HEADER, flow=_FLOWS),
    st.builds(PacketOut, **_HEADER, flow=_FLOWS),
    st.builds(FlowMod, **_HEADER, match=_MATCHES),
    st.builds(FlowRemoved, **_HEADER, match=_MATCHES),
    st.builds(FlowStatsReply, **_HEADER, match=_MATCHES),
    st.builds(PortStatus, **_HEADER),
)


class TestLazyRecorder:
    @pytest.mark.parametrize("capture", CAPTURES)
    def test_evidence_equals_eager_reference(self, capture, request):
        """Chain for chain, event for event, same order, same ids."""
        report, log = request.getfixturevalue(capture)
        enriched = attach_evidence(report, log)
        got = [(c.component, list(c.timelines)) for c in enriched.evidence]
        assert got == eager_evidence(report, log)
        assert got, "the fault must leave evidence to compare"

    @pytest.mark.parametrize("capture", CAPTURES)
    def test_whole_recorder_equals_eager_reference(self, capture, request):
        _, log = request.getfixturevalue(capture)
        recorder = FlightRecorder.from_log(log)
        eager = eager_reconstruct(log)
        summary = recorder.summary()  # counted on the groups, before any build
        assert list(recorder.timelines) == eager
        assert len(recorder) == len(recorder.timelines) == len(eager)
        assert reconstruct(log) == eager
        assert list(recorder.incomplete()) == [t for t in eager if not t.complete]
        assert summary == {
            "flows": len(eager),
            "complete": sum(t.complete for t in eager),
            "incomplete": sum(not t.complete for t in eager),
            "synthetic": sum(t.synthetic for t in eager),
            "reordered": sum(not t.monotone for t in eager),
        }
        needle = str(eager[0].flow)[:6]
        assert list(recorder.for_flow(needle)) == [
            t for t in eager if t.flow is not None and needle in str(t.flow)
        ]
        assert recorder.timelines[1:3] == eager[1:3]
        assert recorder.timelines[-1] == eager[-1]

    def test_ties_and_strays_match_the_reference(self):
        """Equal timestamps settle by stage, the flow comes from the first
        message in that order that has one, and classes outside every
        chain (PortStatus, wildcard-only groups) are left out."""
        key = FlowKey("h1", "h2", 1000, 80)
        other = FlowKey("h9", "h2", 1000, 80)
        exact = Match(src="h1", dst="h2", src_port=1000, dst_port=80, proto="tcp")
        log = ControllerLog(
            [
                FlowMod(1.0, "s1", 7, match=exact, out_port=2, in_reply_to=1),
                PacketOut(1.0, "s1", 7, flow=other, out_port=2),
                PacketIn(1.0, "s1", 7, flow=key, in_port=1, buffer_id=1),
                FlowMod(0.5, "s2", 8, match=Match(dst="h2"), out_port=1),
                FlowRemoved(0.9, "s2", 8, match=exact),
                PacketIn(0.95, "s2", 8, flow=other, in_port=1, buffer_id=2),
                PortStatus(0.1, "s1", 9, port=3, live=False),
                FlowRemoved(2.0, "s1", None, match=Match(dst="h2")),
                FlowStatsReply(2.0, "s1", None, match=exact, byte_count=10),
            ]
        )
        recorder = FlightRecorder.from_log(log)
        assert list(recorder.timelines) == eager_reconstruct(log)
        assert [t.corr_id for t in recorder.timelines] == [8, 7, -1]
        assert recorder.timeline(7).flow == key
        assert recorder.timeline(8).flow == key  # skipped the wildcard FlowMod
        assert recorder.timeline(9) is None
        assert recorder.timeline(8).monotone is False  # installed before its trigger
        assert recorder.summary()["reordered"] == 1

    @settings(max_examples=150, deadline=None)
    @given(messages=st.lists(RANDOM_MESSAGES, max_size=14), gap=st.sampled_from([0.5, 10.0]))
    def test_any_capture_matches_the_reference(self, messages, gap):
        """Ties, strays, missing flows, wildcard matches, ids reused across
        5-tuples: chains, counts and per-component answers all agree."""
        log = ControllerLog(messages)
        eager = eager_reconstruct(log, gap)
        recorder = FlightRecorder.from_log(log, occurrence_gap=gap)
        summary = recorder.summary()
        assert list(recorder.timelines) == eager
        assert summary["complete"] == sum(t.complete for t in eager)
        assert summary["reordered"] == sum(not t.monotone for t in eager)
        for component in ("s1", "h1", "s1--s2", "s2--h2", "h3--s1"):
            assert recorder.for_component(component) == [
                t for t in eager if flightrec._timeline_touches(t, component)
            ]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_prefilter_never_rejects_what_the_exact_test_accepts(
        self, data, lab_fault, stripped_fault
    ):
        """``for_component`` on any name or edge — real switches and hosts,
        strangers, nested ``a--b--c`` — is the exact test over every chain."""
        _, log = data.draw(st.sampled_from([lab_fault, stripped_fault]))
        eager = eager_reconstruct(log)
        names = sorted(
            {n for t in eager for n in t.hops}
            | {n for t in eager if t.flow for n in t.flow.endpoints()}
        )
        name = st.sampled_from(names + ["nowhere", ""])
        component = data.draw(
            st.one_of(name, st.lists(name, min_size=2, max_size=3).map("--".join))
        )
        recorder = FlightRecorder.from_log(log)
        assert recorder.for_component(component) == [
            t for t in eager if flightrec._timeline_touches(t, component)
        ]

    def test_evidence_builds_only_the_suspects_flows(self, tree_fault, monkeypatch):
        """No chain is built for a flow sharing no switch and no endpoint
        with a ranked suspect — on the tree that is nearly all of them."""
        report, log = tree_fault
        built = _count_builds(monkeypatch)
        enriched = attach_evidence(report, log)
        assert enriched.evidence and built
        suspects = set()
        for component, _ in report.component_ranking[:3]:
            suspects.update([component, *component.split("--")])
        chains = {t.corr_id: t for t in eager_reconstruct(log)}
        for corr_id in built:
            chain = chains[corr_id]
            touched = set(e.dpid for e in chain.events) | set(chain.flow.endpoints())
            assert touched & suspects, chain.describe()
        assert len(built) == len(set(built))
        assert len(built) * 10 < len(chains)

    def test_one_chain_read_is_one_chain_built(self, lab_log, monkeypatch):
        built = _count_builds(monkeypatch)
        recorder = FlightRecorder.from_log(lab_log)
        corr_id = lab_log.correlation_ids()[5]
        assert recorder.timeline(corr_id).corr_id == corr_id
        assert recorder.timeline(corr_id) is recorder.timeline(corr_id)
        assert built == [corr_id]
        assert len(recorder.timelines[:4]) == 4
        assert len(recorder.for_flow(":3306")) > 0
        recorder.summary()
        assert len(built) <= 5  # the slice may have held corr_id already
