"""Stress test of the live streaming service.

Concurrent producers hammer :meth:`StreamService.feed` while an HTTP
client hammers every service page, and a third tenant is registered
mid-run, while the drain thread and the handlers read the tenant map.
The main thread only starts and joins.
Every ``/diff`` page must come from one published view, and every
tenant must have been diagnosed.

Every join is bounded: a deadlock (a blocking call under the service
lock, say) fails the test instead of hanging it. The static side of the
concurrency gate is ``repro lint``'s ``shared-state`` rule; the bugs it
exists for are injected one by one in ``tests/test_concurrency_gates.py``.
"""

import json
import sys
import threading
import urllib.error
import urllib.request

import pytest

from repro.scenarios import three_tier_lab
from repro.service import StreamService, create_server

pytestmark = pytest.mark.slow

WINDOW = 10.0
BASELINE = 15.0
BATCH = 400
#: Seconds any one thread may take to finish; far above a healthy run.
BOUND = 60.0

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
    with urllib.request.urlopen(url, timeout=BOUND) as resp:
        return json.loads(resp.read().decode("utf-8"))


def _producer(service, tenant, messages):
    for start in range(0, len(messages), BATCH):
        service.feed(tenant, messages[start : start + BATCH])


def _join(thread):
    thread.join(timeout=BOUND)
    assert not thread.is_alive(), f"{thread.name} still running after {BOUND} s"


def test_stress_real_service_is_race_free(capture):
    service = StreamService(window=WINDOW, baseline_span=BASELINE, max_pending=8)
    service.add_tenant("prod")
    service.add_tenant("shadow")
    server = create_server(service)
    server.start()
    stop_http, saw_rows = threading.Event(), threading.Event()
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
                    if payload["windows"]:
                        saw_rows.set()

    producers = [
        threading.Thread(
            target=_producer,
            args=(service, name, capture),
            name=f"producer-{name}",
            daemon=True,
        )
        for name in ("prod", "shadow")
    ]

    def late_tenant():
        # Registered under load: its copy-on-write insert races the drain
        # thread's and the handlers' reads of `service.tenants`.
        service.add_tenant("late")
        service.feed("late", capture[:BATCH])

    producers.append(threading.Thread(target=late_tenant, name="late", daemon=True))
    http_client = threading.Thread(target=hammer, name="http-hammer", daemon=True)
    drainer = threading.Thread(target=service.drain, name="drain-wait", daemon=True)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)  # switch threads often: more interleavings
    try:
        service.start()
        http_client.start()
        for t in producers:
            t.start()
        for t in producers:
            _join(t)
        drainer.start()
        _join(drainer)
        # Ingest can outrun the client: let it read at least one page
        # with rows before it stops.
        assert saw_rows.wait(BOUND), "no /diff page with rows was served"
    finally:
        sys.setswitchinterval(switch)
        stop_http.set()
        if http_client.is_alive():
            _join(http_client)
        server.stop()
    service.stop()

    views = service.views()
    assert views["prod"].summary["windows"] >= 1
    assert views["shadow"].summary["windows"] >= 1
    assert len(views["late"].trace) == BATCH
    assert views["prod"].summary["phase"] == "streaming"
    assert service.metrics.value("service_queue_depth") == 0
    # Every /diff page came from one published view: rows imply the
    # streaming phase, and their windows strictly advance.
    assert any(payload["windows"] for payload in diffs)
    for payload in diffs:
        ends = [row["t_end"] for row in payload["windows"]]
        if ends:
            assert payload["phase"] == "streaming"
        assert all(a < b for a, b in zip(ends, ends[1:]))
