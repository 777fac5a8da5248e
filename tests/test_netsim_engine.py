"""Unit and property tests for the discrete-event engine."""

import inspect

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import Simulator
from repro.scenarios import scalability_sim


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(2.0, lambda: seen.append("b"))
        sim.schedule_at(1.0, lambda: seen.append("a"))
        sim.schedule_at(3.0, lambda: seen.append("c"))
        sim.run()
        assert seen == ["a", "b", "c"]

    def test_fifo_among_simultaneous(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.schedule_at(1.0, lambda i=i: seen.append(i))
        sim.run()
        assert seen == [0, 1, 2, 3, 4]

    def test_clock_advances_with_events(self):
        sim = Simulator()
        stamps = []
        sim.schedule_at(1.5, lambda: stamps.append(sim.now))
        sim.schedule_at(4.0, lambda: stamps.append(sim.now))
        sim.run()
        assert stamps == [1.5, 4.0]

    def test_run_until_stops_and_advances_clock(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append(1))
        sim.schedule_at(10.0, lambda: seen.append(10))
        executed = sim.run(until=5.0)
        assert executed == 1
        assert seen == [1]
        assert sim.now == 5.0
        sim.run()
        assert seen == [1, 10]

    def test_schedule_in_relative(self):
        sim = Simulator(start_time=10.0)
        fired = []
        sim.schedule_in(2.5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [12.5]

    def test_cannot_schedule_in_past(self):
        sim = Simulator(start_time=5.0)
        with pytest.raises(ValueError):
            sim.schedule_at(4.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_in(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        sim = Simulator()
        seen = []

        def chain(n):
            seen.append(n)
            if n < 3:
                sim.schedule_in(1.0, lambda: chain(n + 1))

        sim.schedule_at(0.0, lambda: chain(0))
        sim.run()
        assert seen == [0, 1, 2, 3]
        assert sim.now == 3.0

    def test_max_events_safety_valve(self):
        sim = Simulator()

        def forever():
            sim.schedule_in(0.1, forever)

        sim.schedule_at(0.0, forever)
        executed = sim.run(max_events=50)
        assert executed == 50

    def test_pending(self):
        sim = Simulator()
        assert sim.pending() == 0
        sim.schedule_at(3.0, lambda: None)
        assert sim.pending() == 1

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(7):
            sim.schedule_at(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 7

    @given(st.lists(st.floats(0, 1000), min_size=1, max_size=100))
    def test_execution_order_matches_sorted_times(self, times):
        sim = Simulator()
        fired = []
        for t in times:
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run()
        assert fired == sorted(times)

    @given(st.lists(st.floats(0, 100), min_size=1, max_size=50))
    def test_clock_monotone(self, times):
        sim = Simulator()
        stamps = []
        for t in times:
            sim.schedule_at(t, lambda: stamps.append(sim.now))
        sim.run()
        assert all(a <= b for a, b in zip(stamps, stamps[1:]))


class TestEventArguments:
    """An event carries its arguments: ``schedule_at(when, fn, *args)``."""

    def test_arguments_are_passed_through(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda *a, **k: seen.append((a, k)), "x", 2, None)
        sim.schedule_at(2.0, seen.append, ("one", "tuple"))
        sim.run()
        assert seen == [(("x", 2, None), {}), ("one", "tuple")]

    def test_fifo_among_simultaneous_mixed_arity(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(1.0, lambda: seen.append("zero-a"))
        sim.schedule_at(1.0, seen.append, "one")
        sim.schedule_at(1.0, lambda a, b: seen.append(a + b), "tw", "o")
        sim.schedule_at(1.0, lambda: seen.append("zero-b"))
        sim.schedule_at(0.5, seen.append, "earlier")
        sim.run()
        assert seen == ["earlier", "zero-a", "one", "two", "zero-b"]

    def test_schedule_in_with_arguments(self):
        sim = Simulator(start_time=3.0)
        fired = []
        sim.schedule_in(1.5, lambda tag, n: fired.append((sim.now, tag, n)), "t", 7)
        sim.run()
        assert fired == [(4.5, "t", 7)]

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 3)), min_size=1, max_size=60
        )
    )
    def test_execution_order_is_when_then_seq(self, events):
        # Few distinct times, so most events tie and only ``seq`` orders them.
        sim = Simulator()
        fired = []
        for seq, (when, arity) in enumerate(events):
            if arity == 0:
                sim.schedule_at(float(when), lambda seq=seq: fired.append(seq))
            else:
                sim.schedule_at(
                    float(when), lambda seq, *pad: fired.append(seq), seq, *range(arity - 1)
                )
        sim.run()
        assert fired == sorted(range(len(events)), key=lambda i: (events[i][0], i))


def _network_closure(callback):
    """True when ``callback`` is a nested function of ``repro.netsim.network``."""
    return (
        inspect.isfunction(callback)
        and callback.__module__ == "repro.netsim.network"
        and "<locals>" in callback.__qualname__
    )


class TestNetworkSchedulesNoClosures:
    """The hop path schedules bound methods with arguments; a closure per
    hop (and its cells) was most of what the cyclic GC traversed."""

    def test_tree_run_queues_no_network_closure(self):
        network, workload = scalability_sim(n_apps=4, seed=11)
        sim = network.sim
        scheduled = []
        schedule_at = sim.schedule_at

        def recording(when, callback, *args):
            scheduled.append(callback)
            schedule_at(when, callback, *args)

        sim.schedule_at = recording
        workload.start(0.5, 3.0)
        sim.run(until=2.0)
        queued = [entry[2] for entry in sim._queue]
        assert queued, "stop the run while hops are still in flight"
        assert not [cb for cb in scheduled + queued if _network_closure(cb)]
        names = {getattr(cb, "__name__", "") for cb in scheduled}
        # Non-vacuous: the hop, install, body and completion paths all ran.
        assert {
            "_process_at_node", "_install_and_continue", "_credit_body", "_finish"
        } <= names


class TestQueueDepthGauge:
    """The simulator gauge tracks pushes, not just the run loop."""

    def test_gauge_current_after_schedule_burst(self):
        from repro.obs.metrics import MetricsRegistry

        metrics = MetricsRegistry()
        sim = Simulator(metrics=metrics)
        gauge = metrics.gauge("sim_queue_depth")
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
            assert gauge.value == i + 1  # fresh on every push, pre-run
        sim.run(until=2.0)
        assert gauge.value == 2.0  # and kept current by the loop
