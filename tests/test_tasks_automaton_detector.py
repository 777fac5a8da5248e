"""Unit tests for task automata and the streaming detector."""

import pytest

from repro.core.tasks.automaton import TaskAutomaton
from repro.core.tasks.detector import TaskDetector, TaskEvent, unify_label
from repro.openflow.match import FlowKey, MaskedFlow


class TestTaskAutomaton:
    RUNS = [
        ["f1", "f2", "f3", "f4", "f5"],
        ["f3", "f4", "f5", "f1"],
        ["f3", "f4", "f5", "f2", "f1"],
    ]

    def test_accepts_all_training_runs(self):
        """'All extracted logs can be precisely represented' (Section III-D)."""
        automaton = TaskAutomaton.build(self.RUNS, min_sup=0.6)
        for run in self.RUNS:
            assert automaton.accepts(run)

    def test_rejects_foreign_runs(self):
        automaton = TaskAutomaton.build(self.RUNS, min_sup=0.6)
        assert not automaton.accepts(["f9", "f8"])
        assert not automaton.accepts([])

    def test_states_include_figure6_chunk(self):
        automaton = TaskAutomaton.build(self.RUNS, min_sup=0.6)
        assert ("f3", "f4", "f5") in automaton.patterns

    def test_start_and_accept_states(self):
        automaton = TaskAutomaton.build(self.RUNS, min_sup=0.6)
        start_patterns = {automaton.patterns[s] for s in automaton.start_states}
        assert ("f1",) in start_patterns or ("f3", "f4", "f5") in start_patterns

    def test_empty_runs_raise(self):
        with pytest.raises(ValueError):
            TaskAutomaton.build([[], []])

    def test_edge_min_sup_prunes_outlier_endpoints(self):
        runs = [["a", "b", "c"]] * 9 + [["c", "a", "b"]]
        loose = TaskAutomaton.build(runs, min_sup=0.6, edge_min_sup=0.0)
        strict = TaskAutomaton.build(runs, min_sup=0.6, edge_min_sup=0.3)
        assert len(strict.start_states) <= len(loose.start_states)


class TestUnifyLabel:
    def test_flowkey_label_requires_equality(self):
        key = FlowKey("a", "b", 1000, 80)
        assert unify_label(key, key, {}, {}) == {}
        assert unify_label(key, key.reversed(), {}, {}) is None

    def test_placeholder_binds_and_sticks(self):
        label = MaskedFlow("#1", "*", "NFS", "2049")
        key = FlowKey("host9", "nfs-ip", 40000, 2049)
        bindings = unify_label(label, key, {}, {"nfs-ip": "NFS"})
        assert bindings == {"#1": "host9"}
        # Same placeholder must keep resolving to host9.
        key2 = FlowKey("other", "nfs-ip", 41000, 2049)
        assert unify_label(label, key2, bindings, {"nfs-ip": "NFS"}) is None

    def test_placeholder_injectivity(self):
        label = MaskedFlow("#2", "*", "#1", "8002")
        key = FlowKey("hostA", "hostA", 40000, 8002)
        # #1 already bound to hostA; #2 cannot also take hostA.
        assert unify_label(label, key, {"#1": "hostA"}, {}) is None

    def test_service_label_must_match(self):
        label = MaskedFlow("#1", "*", "DNS", "53")
        key = FlowKey("vm", "not-dns", 40000, 53)
        assert unify_label(label, key, {}, {"dns-ip": "DNS"}) is None

    def test_concrete_ports_enforced(self):
        label = MaskedFlow("#1", "68", "#2", "67")
        good = FlowKey("vm", "dhcp", 68, 67)
        bad = FlowKey("vm", "dhcp", 69, 67)
        assert unify_label(label, good, {}, {}) is not None
        assert unify_label(label, bad, {}, {}) is None

    def test_unmasked_host_equality(self):
        label = MaskedFlow("hostA", "*", "hostB", "80")
        assert unify_label(label, FlowKey("hostA", "hostB", 40000, 80), {}, {}) == {}
        assert unify_label(label, FlowKey("hostX", "hostB", 40000, 80), {}, {}) is None


class TestTaskDetector:
    def automaton(self, runs, **kwargs):
        return TaskAutomaton.build(runs, **kwargs)

    def keys(self, *specs):
        """specs: (t, src, dst, sport, dport)."""
        return [(t, FlowKey(s, d, sp, dp)) for t, s, d, sp, dp in specs]

    def simple_task(self):
        """A 3-flow task over concrete FlowKey labels."""
        a = FlowKey("h1", "nfs", 40001, 2049)
        b = FlowKey("h1", "h2", 8002, 8002)
        c = FlowKey("h2", "nfs", 40002, 2049)
        return [a, b, c]

    def test_detects_exact_sequence(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton})
        events = detector.detect([(0.1 * i, k) for i, k in enumerate(seq)])
        assert len(events) == 1
        assert events[0].name == "mig"
        assert events[0].t_start == pytest.approx(0.0)
        assert events[0].t_end == pytest.approx(0.2)
        assert "h1" in events[0].hosts and "nfs" in events[0].hosts

    def test_tolerates_interleaved_noise(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton}, interleave_threshold=1.0)
        noise = FlowKey("x", "y", 1, 2)
        stream = [
            (0.0, seq[0]),
            (0.1, noise),
            (0.2, seq[1]),
            (0.3, noise),
            (0.4, seq[2]),
        ]
        assert len(detector.detect(stream)) == 1

    def test_interleave_threshold_kills_stale_matchers(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton}, interleave_threshold=1.0)
        stream = [(0.0, seq[0]), (0.1, seq[1]), (5.0, seq[2])]  # 4.9s gap
        assert detector.detect(stream) == []

    def test_incomplete_sequence_not_detected(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton})
        assert detector.detect([(0.0, seq[0]), (0.1, seq[1])]) == []

    def test_multiple_occurrences_detected(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton})
        stream = [(0.1 * i, k) for i, k in enumerate(seq)]
        stream += [(10 + 0.1 * i, k) for i, k in enumerate(seq)]
        events = detector.detect(stream)
        assert len(events) == 2

    def test_overlapping_duplicates_merged(self):
        seq = self.simple_task()
        automaton = self.automaton([seq, seq])
        detector = TaskDetector({"mig": automaton})
        # Duplicate first flow: two matchers spawn, one event reported.
        stream = [(0.0, seq[0]), (0.01, seq[0]), (0.1, seq[1]), (0.2, seq[2])]
        assert len(detector.detect(stream)) == 1

    def test_masked_automaton_generalizes_to_other_hosts(self):
        from repro.openflow.match import mask_flows

        seq = self.simple_task()
        masked_runs = [
            mask_flows(seq, service_names={"nfs": "NFS"}) for _ in range(2)
        ]
        automaton = self.automaton(masked_runs)
        detector = TaskDetector(
            {"mig": automaton}, service_names={"nfs": "NFS"}
        )
        other_vm = [
            FlowKey("hostX", "nfs", 51000, 2049),
            FlowKey("hostX", "hostY", 8002, 8002),
            FlowKey("hostY", "nfs", 52000, 2049),
        ]
        events = detector.detect([(0.1 * i, k) for i, k in enumerate(other_vm)])
        assert len(events) == 1
        assert "hostX" in events[0].hosts

    def test_task_event_covers(self):
        event = TaskEvent(name="t", t_start=5.0, t_end=7.0)
        assert event.covers(6.0)
        assert event.covers(4.5, slack=1.0)
        assert not event.covers(9.0, slack=1.0)
