"""Shared fixtures for the test suite.

``lockset_checker`` is the runtime race sanitizer
(:mod:`repro.qa.sanitizer`) already activated for the duration of the
test: instrument the classes under test (``instrument_class``), wrap
their locks (``wrap_locks``), run the threads,
then call ``checker.assert_clean()``. Main-thread inspection of
instrumented objects after the workers finish should happen *after* the
test body deactivates the checker (or be tolerant of the one free
ownership handoff) — see ``tests/test_service_stress.py`` for the
pattern.
"""

import pytest

from repro.qa.sanitizer import LocksetChecker


@pytest.fixture
def lockset_checker():
    checker = LocksetChecker()
    with checker.activate():
        yield checker
