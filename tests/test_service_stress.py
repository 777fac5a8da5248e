"""Sanitizer-instrumented stress test of the live streaming service.

The acceptance property of the concurrency suite, asserted at runtime:
with :class:`StreamService` and :class:`TenantPipeline` fully
instrumented by the Eraser lockset checker and their locks wrapped,
concurrent producers hammering :meth:`StreamService.feed` while an HTTP
client hammers every service page must produce **zero** race candidates
— and a deliberately-injected unguarded write into the same workload
must be caught. A third tenant is registered mid-run, while the drain
thread and the handlers read the tenant map.

This test owns the races between objects — the drain thread calling
into a tenant, a handler reading a tenant's ``view`` or the service's
tenant map — which the per-class static rules of ``repro lint`` do not
see (the ``race-stress`` CI lane).

Main-thread assertions about pipeline state happen after the checker
deactivates: post-drain inspection is ordered by the joins, but the
checker cannot see that happens-before edge.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.qa.sanitizer import LocksetChecker, instrument_class, wrap_locks
from repro.scenarios import three_tier_lab
from repro.service import StreamService, TenantPipeline, create_server

pytestmark = pytest.mark.slow

WINDOW = 10.0
BASELINE = 15.0
BATCH = 400

PAGES = (
    "/tenants",
    "/healthz",
    "/diff?tenant=prod&n=2",
    "/alerts",
    "/traces?tenant=prod&limit=3",
)


@pytest.fixture(scope="module")
def capture():
    return list(three_tier_lab(seed=3).run(0.5, 30.0, drain=5.0))


def _get(url):
    with urllib.request.urlopen(url) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _producer(service, tenant, messages):
    for start in range(0, len(messages), BATCH):
        service.feed(tenant, messages[start : start + BATCH])


def test_stress_real_service_is_race_free(capture):
    undos = [instrument_class(StreamService), instrument_class(TenantPipeline)]
    checker = LocksetChecker()
    server = None
    try:
        service = StreamService(
            window=WINDOW, baseline_span=BASELINE, max_pending=8
        )
        service.add_tenant("prod")
        service.add_tenant("shadow")
        wrap_locks(service)
        for _, tenant in service.tenant_items():
            wrap_locks(tenant)
        server = create_server(service)
        server.start()
        stop_http = threading.Event()
        diffs = []

        def hammer():
            while not stop_http.is_set():
                for page in PAGES:
                    try:
                        payload = _get(server.url(page))
                    except urllib.error.HTTPError:
                        continue
                    if page.startswith("/diff"):
                        diffs.append(payload)

        with checker.activate():
            service.start()
            producers = [
                threading.Thread(
                    target=_producer,
                    args=(service, name, capture),
                    name=f"producer-{name}",
                )
                for name in ("prod", "shadow")
            ]
            http_client = threading.Thread(target=hammer, name="http-hammer")
            for t in producers:
                t.start()
            http_client.start()
            # A tenant registered under load: its copy-on-write insert
            # races the drain thread's and the handlers' reads of
            # `service.tenants`.
            late = service.add_tenant("late")
            wrap_locks(late)
            service.feed("late", capture[:BATCH])
            for t in producers:
                t.join()
            service.drain()
            stop_http.set()
            http_client.join()
            service.stop()
    finally:
        for undo in undos:
            undo()
        if server is not None:
            server.stop()

    checker.assert_clean()
    # The run must have genuinely exercised the shared surface.
    assert checker.accesses > 1000
    assert service.tenants["prod"].windows_total >= 1
    assert service.tenants["shadow"].windows_total >= 1
    assert len(service.tenants["late"].view.trace) == BATCH
    assert service.tenants["prod"].view.summary["phase"] == "streaming"
    # Every /diff page came from one published view: rows imply the
    # streaming phase, and their windows strictly advance.
    assert any(payload["windows"] for payload in diffs)
    for payload in diffs:
        ends = [row["t_end"] for row in payload["windows"]]
        if ends:
            assert payload["phase"] == "streaming"
        assert all(a < b for a, b in zip(ends, ends[1:]))


class LeakyService(StreamService):
    """The injected-race fixture: one unguarded cross-producer write."""

    def feed(self, tenant, messages, *, block=True):
        self.hot_tenant = tenant  # deliberately not under self._lock
        return super().feed(tenant, messages, block=block)


def test_injected_service_race_is_caught(capture):
    undo = instrument_class(LeakyService)
    checker = LocksetChecker()
    try:
        service = LeakyService(window=WINDOW, baseline_span=BASELINE)
        service.add_tenant("prod")
        service.add_tenant("shadow")
        wrap_locks(service)
        with checker.activate():
            with service:
                # Three producers: the checker grants one free ownership
                # handoff, so two strictly-sequential writers could look
                # benign — the third forces the shared state.
                producers = [
                    threading.Thread(
                        target=_producer,
                        args=(service, name, capture),
                        name=f"producer-{i}",
                    )
                    for i, name in enumerate(("prod", "shadow", "prod"))
                ]
                for t in producers:
                    t.start()
                for t in producers:
                    t.join()
                service.drain()
    finally:
        undo()

    raced = {r.attr for r in checker.races}
    assert "hot_tenant" in raced, (
        f"the injected unguarded write must be caught, saw races on {raced}"
    )
    # The injection is the *only* candidate: the inherited service
    # locking stays clean even under the subclass.
    assert raced == {"hot_tenant"}
