"""Edge cases of :mod:`repro.obs.tracing` that the happy-path suite
skips: self-time under overlapping/nested children, empty-tracer phase
rows, and exception-exit unwinding."""

import unittest

from repro.obs.profile import phase_rows, render_phase_table
from repro.obs.tracing import NOOP_TRACER, Span, Tracer


class SelfDurationTest(unittest.TestCase):
    def _fixed(self, name, start, end, children=()):
        span = Span(name)
        span.start_wall = start
        span.end_wall = end
        span.children = list(children)
        return span

    def test_nested_children_subtract_once(self):
        # parent [0, 10]; child [1, 4] wrapping grandchild [2, 3].
        # Only the parent's *direct* child counts against its self time:
        # 10 - 3 = 7, not 10 - 3 - 1.
        grandchild = self._fixed("gc", 2.0, 3.0)
        child = self._fixed("c", 1.0, 4.0, [grandchild])
        parent = self._fixed("p", 0.0, 10.0, [child])
        self.assertAlmostEqual(parent.self_duration, 7.0)
        self.assertAlmostEqual(child.self_duration, 2.0)
        self.assertAlmostEqual(grandchild.self_duration, 1.0)

    def test_overlapping_children_clamp_to_zero(self):
        # Two children whose recorded windows overlap (possible when
        # clock skew stretches them) can sum past the parent;
        # self time clamps at zero rather than going negative.
        a = self._fixed("a", 0.0, 3.0)
        b = self._fixed("b", 2.0, 6.0)
        parent = self._fixed("p", 0.0, 6.0, [a, b])
        self.assertEqual(parent.self_duration, 0.0)

    def test_open_span_uses_now(self):
        span = Span("open")
        self.assertGreaterEqual(span.duration, 0.0)
        self.assertGreaterEqual(span.self_duration, 0.0)
        self.assertIsNone(span.end_wall)


class EmptyTracerTest(unittest.TestCase):
    def test_phase_rows_empty(self):
        self.assertEqual(phase_rows(Tracer()), [])

    def test_render_phase_table_empty(self):
        table = render_phase_table(Tracer())
        self.assertIsInstance(table, str)

    def test_noop_tracer_has_no_rows(self):
        with NOOP_TRACER.span("ignored"):
            pass
        self.assertEqual(phase_rows(NOOP_TRACER), [])


class ExceptionExitTest(unittest.TestCase):
    def test_exception_closes_span(self):
        tracer = Tracer()
        with self.assertRaises(ValueError):
            with tracer.span("outer"):
                raise ValueError("boom")
        (outer,) = tracer.roots
        self.assertIsNotNone(outer.end_wall)
        self.assertEqual(tracer._stack, [])

    def test_exception_in_parent_closes_orphaned_children(self):
        # A child block whose __exit__ never runs (generator abandoned,
        # manual misuse) must still be closed when the parent unwinds,
        # stamped with the parent's end time.
        tracer = Tracer()
        with self.assertRaises(RuntimeError):
            with tracer.span("parent"):
                tracer.span("orphan")  # never exited
                raise RuntimeError("parent dies")
        (parent,) = tracer.roots
        (orphan,) = parent.children
        self.assertIsNotNone(orphan.end_wall)
        self.assertEqual(orphan.end_wall, parent.end_wall)
        self.assertEqual(tracer._stack, [])
        self.assertLessEqual(orphan.duration, parent.duration)

    def test_reuse_after_exception(self):
        tracer = Tracer()
        with self.assertRaises(ValueError):
            with tracer.span("first"):
                raise ValueError
        with tracer.span("second"):
            pass
        self.assertEqual([s.name for s in tracer.roots], ["first", "second"])
        self.assertTrue(all(s.end_wall is not None for s in tracer.roots))


if __name__ == "__main__":
    unittest.main()
