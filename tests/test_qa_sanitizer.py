"""The runtime lockset sanitizer: injected races caught, guarded code clean.

The regression the ISSUE demands: a deliberately-injected unguarded
cross-thread write must be detected, and the guarded twin of the same
workload must not be. Plus the machinery itself: activation scoping,
instrumentation undo, the one free ownership handoff, and the
``_GUARDED_BY`` runtime sanction.
"""

import threading

import pytest

from repro.qa.sanitizer import (
    LocksetChecker,
    TrackedLock,
    instrument_class,
    wrap_locks,
)


class Unguarded:
    def __init__(self):
        self.counter = 0

    def bump(self, n=200):
        for _ in range(n):
            self.counter += 1


class Guarded:
    def __init__(self):
        self._lock = threading.Lock()
        self.counter = 0

    def bump(self, n=200):
        for _ in range(n):
            with self._lock:
                self.counter += 1


class Sanctioned:
    _GUARDED_BY = {"counter": "test fixture: torn increments acceptable"}

    def __init__(self):
        self.counter = 0

    def bump(self, n=200):
        for _ in range(n):
            self.counter += 1


def hammer(obj, threads=3):
    workers = [
        threading.Thread(target=obj.bump, name=f"w{i}") for i in range(threads)
    ]
    for t in workers:
        t.start()
    for t in workers:
        t.join()


@pytest.fixture
def instrumented():
    undos = [instrument_class(c) for c in (Unguarded, Guarded, Sanctioned)]
    yield
    for undo in undos:
        undo()


class TestDetection:
    def test_injected_unguarded_write_is_detected(
        self, instrumented, lockset_checker
    ):
        obj = Unguarded()
        hammer(obj)
        races = lockset_checker.races
        assert races, "the injected race must be detected"
        assert races[0].cls == "Unguarded"
        assert races[0].attr == "counter"
        with pytest.raises(AssertionError, match="race candidate"):
            lockset_checker.assert_clean()

    def test_guarded_twin_is_clean(self, instrumented, lockset_checker):
        obj = Guarded()
        wrap_locks(obj)
        hammer(obj)
        lockset_checker.assert_clean()

    def test_guarded_by_table_is_honoured_at_runtime(
        self, instrumented, lockset_checker
    ):
        obj = Sanctioned()
        hammer(obj)
        lockset_checker.assert_clean()

    def test_single_ownership_handoff_is_benign(
        self, instrumented, lockset_checker
    ):
        obj = Unguarded()  # constructed on the main thread...
        worker = threading.Thread(target=obj.bump, name="only-worker")
        worker.start()  # ...then owned exclusively by one worker
        worker.join()
        lockset_checker.assert_clean()

    def test_race_report_names_both_sites(self, instrumented, lockset_checker):
        obj = Unguarded()
        hammer(obj)
        text = lockset_checker.races[0].render()
        assert "Unguarded.counter" in text
        assert "lockset went empty" in text


class TestMachinery:
    def test_inert_without_activation(self, instrumented):
        checker = LocksetChecker()
        obj = Unguarded()
        hammer(obj)
        assert checker.accesses == 0
        assert not checker.races

    def test_undo_restores_the_class(self):
        undo = instrument_class(Unguarded)
        assert getattr(Unguarded, "_lockset_instrumented", False)
        undo()
        assert not getattr(Unguarded, "_lockset_instrumented", False)
        checker = LocksetChecker()
        with checker.activate():
            hammer(Unguarded())
        assert checker.accesses == 0

    def test_instrumentation_is_idempotent(self):
        undo = instrument_class(Unguarded)
        second = instrument_class(Unguarded)  # no-op
        second()
        checker = LocksetChecker()
        with checker.activate():
            obj = Unguarded()
            obj.bump(1)
        undo()
        assert checker.accesses > 0

    def test_tracked_lock_is_lock_compatible(self):
        lock = TrackedLock("test.lock")
        assert lock.acquire()
        assert lock.locked()
        lock.release()
        with lock:
            assert lock.locked()
        assert not lock.locked()

    def test_wrap_locks_names_follow_the_static_ids(self):
        obj = Guarded()
        wrapped = wrap_locks(obj)
        assert wrapped == ["Guarded._lock"]
        assert isinstance(obj._lock, TrackedLock)
