"""Unit and property tests for the discrete-event engine."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import Simulator


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

    def test_peek_and_pending(self):
        sim = Simulator()
        assert sim.peek() is None
        assert sim.pending() == 0
        sim.schedule_at(3.0, lambda: None)
        assert sim.peek() == 3.0
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
