"""Good/bad fixture pairs for the three concurrency rules.

Fixture modules live under a fake ``repro.confix`` package; the rules
are built with ``packages=("repro.confix",)`` so the fixtures are in
reporting scope. The final check runs over the shipped source tree: it
lints clean under ``repro lint``. The bugs the rules exist for are
injected into the real service in ``tests/test_concurrency_gates.py``.
"""

import os
import textwrap

from repro.qa import LintEngine, concurrency_rules, default_rules
from repro.qa.framework import ModuleFile, Project

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
SCOPE = ("repro.confix",)


def module(source, name="repro.confix.mod"):
    path = "src/" + name.replace(".", "/") + ".py"
    return ModuleFile(path, textwrap.dedent(source), module=name)


def run(mod):
    return LintEngine(concurrency_rules(SCOPE)).run(Project([mod]))


def rules_fired(result):
    return sorted({f.rule for f in result.findings})


class TestLockDiscipline:
    """The three kinds of shared state of a class with a lock or a worker."""

    BAD = """\
        import threading

        class Box:
            def __init__(self):
                self.value = 0
                self._thread = None

            def start(self):
                self._thread = threading.Thread(target=self._run)
                self._thread.start()

            def stop(self):
                self._thread.join()

            def _run(self):
                self.value += 1


        def poke(box: Box) -> int:
            return box.value
        """

    #: ``BAD`` with the reader as a method: still no lock anywhere.
    SHARED = BAD.replace(
        "            def _run(self):",
        "            def poke(self) -> int:\n                return self.value\n\n"
        "            def _run(self):",
    ).split("\n\n\n")[0] + "\n"

    #: ``SHARED`` with two locks: ``poke`` reads under ``_a``, the worker writes under ``_b``.
    TWO_LOCKS = SHARED.replace(
        "                self.value = 0\n",
        "                self._a = threading.Lock()\n                self._b = threading.Lock()\n"
        "                self.value = 0\n",
    ).replace(
        "                return self.value",
        "                with self._a:\n                    return self.value",
    ).replace(
        "                self.value += 1",
        "                with self._b:\n                    self.value += 1",
    )

    def test_unguarded_cross_thread_attribute_is_flagged(self):
        result = run(module(self.BAD))
        assert rules_fired(result) == ["shared-state"]
        assert "Box.value" in result.findings[0].message

    def test_public_method_sharing_worker_state_with_no_lock_is_flagged(self):
        result = run(module(self.SHARED))
        assert rules_fired(result) == ["shared-state"]
        assert "Box.value" in result.findings[0].message

    def test_common_lock_at_every_access_is_clean(self):
        locked = self.TWO_LOCKS.replace("with self._b:", "with self._a:")
        result = run(module(locked))
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_two_locks_that_never_meet_are_flagged(self):
        result = run(module(self.TWO_LOCKS))
        assert rules_fired(result) == ["shared-state"]
        assert "Box.value" in result.findings[0].message

    def test_worker_private_attribute_is_clean(self):
        private = self.SHARED.replace("return self.value", "return 0")
        result = run(module(private))
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_guarded_by_table_sanctions_the_attribute(self):
        for source in (self.BAD, self.SHARED):
            published = source.replace(
                "        class Box:\n",
                "        class Box:\n"
                '            _GUARDED_BY = {"value": "one writer, replaced whole"}\n\n',
            )
            result = run(module(published))
            assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_published_attribute_mutated_in_place_is_flagged(self):
        for mutation in ("self.value.append(1)", "self.value[0] = 1"):
            source = self.SHARED.replace(
                "        class Box:\n",
                "        class Box:\n"
                '            _GUARDED_BY = {"value": "one writer, replaced whole"}\n\n',
            ).replace("self.value += 1", mutation)
            result = run(module(source))
            assert rules_fired(result) == ["shared-state"], mutation
            assert "mutated" in result.findings[0].message

    def test_empty_guarded_by_justification_is_a_finding(self):
        result = run(
            module(
                """\
                class Box:
                    _GUARDED_BY = {"value": ""}

                    def __init__(self):
                        self.value = 0
                """
            )
        )
        assert rules_fired(result) == ["shared-state"]
        assert "empty" in result.findings[0].message

    def test_constructor_writes_are_exempt(self):
        source = """\
            import threading

            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.limit = 10
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def stop(self):
                    self._thread.join()

                def _run(self):
                    return self.limit

                def limit_now(self) -> int:
                    return self.limit
            """
        assert run(module(source)).ok
        rewritten = source.replace(
            "def limit_now(self) -> int:",
            "def set_limit(self, n):\n                    self.limit = n\n\n"
            "                def limit_now(self) -> int:",
        )
        result = run(module(rewritten))
        assert rules_fired(result) == ["shared-state"]
        assert "Box.limit" in result.findings[0].message

    def test_mutator_call_on_a_worker_counts_as_a_write(self):
        source = """\
            import threading

            class Ring:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()

                def stop(self):
                    self._thread.join()

                def size(self) -> int:
                    with self._lock:
                        return len(self.items)

                def _run(self):
                    with self._lock:
                        self.items = self.items + [1]
            """
        assert run(module(source)).ok
        bare = source.replace(
            "with self._lock:\n                        self.items = self.items + [1]",
            "self.items.append(1)",
        )
        result = run(module(bare))
        assert rules_fired(result) == ["shared-state"]
        assert "Ring.items" in result.findings[0].message

    def test_another_objects_unpublished_state_is_flagged(self):
        source = """\
            import threading

            class Pipe:
                _GUARDED_BY = {"view": "an immutable value, replaced whole"}

                def __init__(self):
                    self.view = ()
                    self.count = 0

                def ingest(self, batch):
                    self.count += len(batch)
                    self.view = tuple(batch)


            class Hub:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.pipe = Pipe()

                def peek(self):
                    pipe = self.pipe
                    return pipe.view
            """
        assert run(module(source)).ok
        result = run(module(source.replace("return pipe.view", "return pipe.count")))
        assert rules_fired(result) == ["shared-state"]
        assert ".count" in result.findings[0].message


class TestBlockingUnderLock:
    """A lock body is a leaf: no call but ``len``, so nothing blocks."""

    def test_sleep_under_lock_is_flagged(self):
        result = run(
            module(
                """\
                import threading
                import time

                class Sleeper:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def nap(self):
                        with self._lock:
                            time.sleep(0.1)
                """
            )
        )
        assert rules_fired(result) == ["shared-state"]
        assert "time.sleep()" in result.findings[0].message

    def test_transitive_blocking_through_a_call_is_flagged(self):
        result = run(
            module(
                """\
                import threading
                import time

                class Sleeper:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def nap(self):
                        with self._lock:
                            self._slow()

                    def _slow(self):
                        time.sleep(0.1)
                """
            )
        )
        assert rules_fired(result) == ["shared-state"]
        assert "self._slow()" in result.findings[0].message

    def test_blocking_outside_the_lock_is_clean(self):
        result = run(
            module(
                """\
                import threading
                import time

                class Sleeper:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.n = 0

                    def nap(self, batch):
                        with self._lock:
                            if self.n < 0:
                                raise ValueError(f"negative {self.n}")
                            self.n += len(batch)
                        time.sleep(0.1)
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_acquire_outside_a_with_is_flagged(self):
        result = run(
            module(
                """\
                import threading

                class Manual:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def hold(self):
                        self._lock.acquire()
                """
            )
        )
        assert rules_fired(result) == ["shared-state"]


class TestLockOrder:
    def test_both_orders_is_a_deadlock_hazard(self):
        result = run(
            module(
                """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def ab(self):
                        with self._a:
                            with self._b:
                                pass

                    def ba(self):
                        with self._b, self._a:
                            pass
                """
            )
        )
        assert rules_fired(result) == ["shared-state"]
        assert {f.line for f in result.findings} == {10, 14}  # nested, then paired


class TestUnmanagedThread:
    def test_discarded_thread_is_flagged(self):
        result = run(
            module(
                """\
                import threading

                def fire(work):
                    threading.Thread(target=work).start()
                """
            )
        )
        assert rules_fired(result) == ["unmanaged-thread"]

    def test_discarded_thread_beside_a_str_join_is_flagged(self):
        """A ``join`` on a receiver that is no name (``", ".join``)
        used to count as joining every discarded thread."""
        result = run(
            module(
                """\
                import os
                import threading

                def fire(work, parts):
                    threading.Thread(target=work).start()
                    return os.path.join(*parts) + ", ".join(parts)
                """
            )
        )
        assert rules_fired(result) == ["unmanaged-thread"]
        assert "discarded" in result.findings[0].message

    def test_joined_attr_thread_is_clean(self):
        result = run(
            module(
                """\
                import threading

                class Owner:
                    def __init__(self):
                        self._thread = None

                    def start(self, work):
                        self._thread = threading.Thread(target=work)
                        self._thread.start()

                    def stop(self):
                        self._thread.join()
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_stop_event_counts_as_managed(self):
        result = run(
            module(
                """\
                import threading

                class Owner:
                    def __init__(self):
                        self._stop = threading.Event()
                        self._thread = None

                    def start(self):
                        self._thread = threading.Thread(target=self._run)
                        self._thread.start()

                    def stop(self):
                        self._stop.set()

                    def _run(self):
                        while not self._stop.is_set():
                            pass
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_locally_joined_thread_is_clean(self):
        result = run(
            module(
                """\
                import threading

                def run_once(work):
                    t = threading.Thread(target=work)
                    t.start()
                    t.join()
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


class TestPragmas:
    def test_justified_pragma_suppresses_a_concurrency_finding(self):
        result = run(
            module(
                """\
                import threading
                import time

                class Sleeper:
                    def __init__(self):
                        self._lock = threading.Lock()

                    def nap(self):
                        with self._lock:
                            time.sleep(0.1)  # flowlint: disable=shared-state -- test-only fixture, single-threaded
                """
            )
        )
        assert result.ok
        assert result.suppressed == 1


class TestLockConfinement:
    SOURCE = """\
        import threading
        from threading import RLock

        class Cache:
            def __init__(self):
                self._lock = threading.Lock()
                self._rlock = RLock()
        """

    def test_lock_outside_the_concurrency_packages_is_flagged(self):
        result = run(module(self.SOURCE, name="repro.elsewhere.mod"))
        assert rules_fired(result) == ["lock-confinement"]
        assert [f.line for f in result.findings] == [6, 7]

    def test_lock_inside_the_concurrency_packages_is_clean(self):
        result = run(module(self.SOURCE))
        assert result.ok, "\n".join(f.render() for f in result.findings)


class TestSelfCheck:
    def test_repository_lints_clean_with_concurrency_rules(self):
        """`repro lint` over the shipped tree — the CI gate."""
        project = Project.load([REPO_SRC])
        result = LintEngine(default_rules()).run(project)
        assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)
