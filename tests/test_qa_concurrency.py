"""Good/bad fixture pairs for the five concurrency rules.

Fixture modules live under a fake ``repro.confix`` package; the rules
are built with ``packages=("repro.confix",)`` so the fixtures are in
reporting scope. The final checks run over the shipped source tree: its
thread roots are the ones the service really has, and it lints clean
under ``repro lint``.
"""

import os
import textwrap

from repro.qa import CONCURRENCY_PACKAGES, LintEngine, concurrency_rules, default_rules
from repro.qa.concurrency import HTTP, MAIN, WORKER, class_models
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

    def test_unguarded_cross_thread_attribute_is_flagged(self):
        result = run(module(self.BAD))
        assert rules_fired(result) == ["lock-discipline"]
        assert "Box.value" in result.findings[0].message

    def test_common_lock_at_every_access_is_clean(self):
        result = run(
            module(
                """\
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.value = 0
                        self._thread = None

                    def start(self):
                        self._thread = threading.Thread(target=self._run)
                        self._thread.start()

                    def stop(self):
                        self._thread.join()

                    def _run(self):
                        with self._lock:
                            self.value += 1


                def poke(box: Box) -> int:
                    with box._lock:
                        return box.value
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_guarded_by_table_sanctions_the_attribute(self):
        result = run(
            module(
                """\
                import threading

                class Box:
                    _GUARDED_BY = {
                        "value": "single writer; torn reads are acceptable",
                    }

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
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

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
        assert rules_fired(result) == ["lock-discipline"]
        assert "empty" in result.findings[0].message

    def test_helper_locked_at_every_call_site_is_clean(self):
        # The inherited-lock fixpoint: _publish never takes the lock
        # itself, but every caller holds it.
        result = run(
            module(
                """\
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.snapshot = {}
                        self._thread = None

                    def start(self):
                        self._thread = threading.Thread(target=self._run)
                        self._thread.start()

                    def stop(self):
                        self._thread.join()

                    def _run(self):
                        with self._lock:
                            self._publish()

                    def _publish(self):
                        self.snapshot = {"n": 1}


                def peek(box: Box) -> dict:
                    with box._lock:
                        return box.snapshot
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


    def test_thread_target_color_does_not_leak_into_the_spawner(self):
        # start() spawns _run but runs on the caller's thread: `started`
        # is main-only, so it needs no lock until the worker touches it.
        source = """\
            import threading

            class Box:
                def __init__(self):
                    self.started = False
                    self._thread = None

                def start(self):
                    self._thread = threading.Thread(target=self._run)
                    self._thread.start()
                    self.started = True

                def stop(self):
                    self._thread.join()

                def running(self) -> bool:
                    return self.started

                def _run(self):
                    pass
            """
        result = run(module(source))
        assert result.ok, "\n".join(f.render() for f in result.findings)
        shared = source.replace("pass", "self.started = False")
        result = run(module(shared))
        assert rules_fired(result) == ["lock-discipline"]
        assert "Box.started" in result.findings[0].message

    def test_constructor_writes_are_exempt(self):
        source = """\
            import threading

            class Box:
                def __init__(self):
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
        assert rules_fired(result) == ["lock-discipline"]
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
                        self.items.append(1)
            """
        assert run(module(source)).ok
        bare = source.replace(
            "with self._lock:\n                        self.items.append(1)",
            "self.items.append(1)",
        )
        result = run(module(bare))
        assert rules_fired(result) == ["lock-discipline"]
        assert "Ring.items" in result.findings[0].message


class TestBlockingUnderLock:
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
        assert rules_fired(result) == ["blocking-under-lock"]

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
        assert "blocking-under-lock" in rules_fired(result)

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

                    def nap(self):
                        with self._lock:
                            self.n += 1
                        time.sleep(0.1)
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)

    def test_nonblocking_queue_put_is_clean(self):
        result = run(
            module(
                """\
                import queue
                import threading

                class Pusher:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self._q = queue.Queue()

                    def push(self, item):
                        with self._lock:
                            self._q.put(item, block=False)
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


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
                        with self._b:
                            with self._a:
                                pass
                """
            )
        )
        assert rules_fired(result) == ["lock-order"]
        assert len(result.findings) == 1  # one finding per pair, not two

    def test_consistent_order_is_clean(self):
        result = run(
            module(
                """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._a:
                            with self._b:
                                pass
                """
            )
        )
        assert result.ok, "\n".join(f.render() for f in result.findings)


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
                            time.sleep(0.1)  # flowlint: disable=blocking-under-lock -- test-only fixture, single-threaded
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

    def test_the_sanitizer_package_may_build_locks(self):
        result = run(module(self.SOURCE, name="repro.qa.mod"))
        assert result.ok, "\n".join(f.render() for f in result.findings)


class TestSelfCheck:
    def test_real_service_thread_roots(self):
        roots = {}
        for mod in Project.load([REPO_SRC]).modules:
            if mod.in_package(CONCURRENCY_PACKAGES):
                for model in class_models(mod):
                    roots.update(model.roots)
        assert roots["repro.service.daemon.StreamService._drain_loop"] == WORKER
        assert roots["repro.service.daemon.FileTailSource.run"] == WORKER
        assert roots["repro.obs.httpd._Handler.do_GET"] == HTTP
        assert roots["repro.service.http.ServiceState._route_diff"] == HTTP
        assert roots["repro.service.daemon.StreamService.feed"] == MAIN
        assert roots["repro.service.daemon.replay_messages"] == MAIN

    def test_repository_lints_clean_with_concurrency_rules(self):
        """`repro lint` over the shipped tree — the CI gate."""
        project = Project.load([REPO_SRC])
        result = LintEngine(default_rules()).run(project)
        assert result.ok, "\n" + "\n".join(f.render() for f in result.findings)
