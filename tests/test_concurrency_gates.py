"""The concurrency mutation list: each injected bug is caught by a named gate.

Every case applies a text substitution to the real service source (each
``old`` must occur exactly once) and lints the result in memory through
:class:`~repro.qa.framework.LintEngine`, next to the unmutated sources
of the other concurrency modules. It asserts that the named rule fires.
The unmutated sources lint clean.

M1, an HTTP route reaching a tenant pipeline, is the one bug no lint
rule sees. Its gate is the views-only surface: the mutated ``http.py``
is executed and driven over a stand-in service that has only
``views()``, ``metrics``, ``errors`` and ``config``, and the route
raises. ``tests/test_service.py::TestHTTPSurface::test_routes_read_views_only``
drives every route of the unmutated module that way.
"""

import types
from pathlib import Path

import pytest

from repro.qa import LintEngine, default_rules
from repro.qa.framework import ModuleFile, Project
from repro.service import StreamService

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: The modules the concurrency rules read, plus one that may not build a lock.
MODULES = (
    "service/daemon.py",
    "service/tenant.py",
    "service/http.py",
    "service/incremental.py",
    "obs/httpd.py",
    "obs/metrics.py",
)

DAEMON, TENANT, METRICS = "service/daemon.py", "service/tenant.py", "obs/metrics.py"

FEED_LOCK = """\
        with self._lock:
            self._depth_msgs += len(batch)
            depth = self._depth_msgs
"""
DRAIN_LOCK = """\
                with self._lock:
                    self._depth_msgs -= len(batch)
                    depth = self._depth_msgs
"""
DRAIN_ITEM = "            name, batch = self._queue.get()  # type: ignore[misc]\n"
INIT_DEPTH = "        self._depth_msgs = 0\n"
ITEM = "        item = (tenant, batch)\n"

#: id -> (rule, [(module, old, new), ...])
MUTANTS = {
    "M2-sleep-under-lock": (
        "shared-state",
        [(DAEMON, FEED_LOCK, FEED_LOCK.replace(":\n", ":\n            time.sleep(0.001)\n", 1))],
    ),
    "M2b-blocking-put-under-lock": (
        "shared-state",
        [(
            DAEMON,
            "        if block:\n            self._queue.put(item)\n",
            "        if block:\n"
            "            with self._lock:\n                self._queue.put(item)\n",
        )],
    ),
    "M3-two-locks-both-orders": (
        "shared-state",
        [
            (DAEMON, INIT_DEPTH, INIT_DEPTH + "        self._stats = threading.Lock()\n"),
            (DAEMON, FEED_LOCK, FEED_LOCK.replace(
                "            self._depth_msgs += len(batch)\n",
                "            with self._stats:\n                self._depth_msgs += len(batch)\n",
            )),
            (DAEMON, DRAIN_LOCK, DRAIN_LOCK.replace("self._lock:", "self._stats, self._lock:")),
        ],
    ),
    "M3b-two-locks-never-nested": (
        "shared-state",
        [
            (DAEMON, INIT_DEPTH, INIT_DEPTH + "        self._stats = threading.Lock()\n"),
            (DAEMON, DRAIN_LOCK, DRAIN_LOCK.replace("self._lock:", "self._stats:")),
        ],
    ),
    "M4-fire-and-forget-thread": (
        "unmanaged-thread",
        [(
            DAEMON,
            'name="repro-service-drain", daemon=True\n        )\n        self._thread.start()\n',
            'name="repro-service-drain", daemon=True\n        )\n        self._thread.start()\n'
            "        threading.Thread(target=self.drain, daemon=True).start()\n",
        )],
    ),
    # tenant.py calls os.path.join: a join whose receiver is no name.
    "M4b-fire-and-forget-thread-in-tenant": (
        "unmanaged-thread",
        [
            (TENANT, "import os\n", "import os\nimport threading\n"),
            (
                TENANT,
                "        self._publish(trace=())\n",
                "        self._publish(trace=())\n"
                "        threading.Thread(target=self._publish, daemon=True).start()\n",
            ),
        ],
    ),
    "M5-lock-outside-the-service": (
        "lock-confinement",
        [
            (METRICS, "import copy\n", "import copy\nimport threading\n"),
            (
                METRICS,
                "        self._instruments: Dict[MetricKey, Instrument] = {}\n",
                "        self._instruments: Dict[MetricKey, Instrument] = {}\n"
                "        self._lock = threading.Lock()\n",
            ),
        ],
    ),
    "M6-feed-counter-outside-lock": (
        "shared-state",
        [(
            DAEMON,
            FEED_LOCK,
            "        self._depth_msgs += len(batch)\n        with self._lock:\n"
            "            depth = self._depth_msgs\n",
        )],
    ),
    "M7-errors-mutated-in-place": (
        "shared-state",
        [(
            DAEMON,
            'self.errors = (self.errors + [f"{name}: {exc!r}"])[-16:]',
            'self.errors.append(f"{name}: {exc!r}")',
        )],
    ),
    "M8-tenants-mutated-in-place": (
        "shared-state",
        [(
            DAEMON,
            "            tenants = {**self.tenants, name: tenant}\n"
            "            self.tenants = tenants\n",
            "            self.tenants[name] = tenant\n            tenants = self.tenants\n",
        )],
    ),
    "M9-drain-counter-outside-lock": (
        "shared-state",
        [(
            DAEMON,
            DRAIN_LOCK,
            "                self._depth_msgs -= len(batch)\n                with self._lock:\n"
            "                    depth = self._depth_msgs\n",
        )],
    ),
    "M10-worker-field-read-by-public-method": (
        "shared-state",
        [
            (DAEMON, DRAIN_ITEM, DRAIN_ITEM + "            self.last_batch = len(batch)\n"),
            (
                DAEMON,
                "    def drain(self) -> None:\n",
                "    def last_batch_size(self) -> int:\n        return self.last_batch\n\n"
                "    def drain(self) -> None:\n",
            ),
        ],
    ),
    "M11-counter-bumped-by-producer-and-worker": (
        "shared-state",
        [
            (DAEMON, INIT_DEPTH, INIT_DEPTH + "        self.batches = 0\n"),
            (DAEMON, ITEM, ITEM + "        self.batches += 1\n"),
            (DAEMON, DRAIN_ITEM, DRAIN_ITEM + "            self.batches -= 1\n"),
        ],
    ),
    "M12-counter-bumped-by-many-producers": (
        "shared-state",
        [
            (DAEMON, INIT_DEPTH, INIT_DEPTH + "        self.fed = 0\n"),
            (DAEMON, ITEM, ITEM + "        self.fed += len(batch)\n"),
        ],
    ),
    # The service keeps its worker but builds no lock.
    "M13-service-lock-deleted": (
        "shared-state",
        [(DAEMON, "        self._lock = threading.Lock()\n", "")],
    ),
    "PR34-tenants-not-published": (
        "shared-state",
        [(
            DAEMON,
            '        "tenants": "copy-on-write: add_tenant swaps in a new dict under "\n'
            '        "_lock and no dict is mutated once published",\n',
            "",
        )],
    ),
    "PR34-errors-not-published": (
        "shared-state",
        [(DAEMON, '        "errors": "replaced whole, never mutated, by the drain thread '
                  'alone",\n', "")],
    ),
    "PR34-view-not-published": (
        "shared-state",
        [(
            TENANT,
            '        "view": "an immutable TenantView the worker publishes by one "\n'
            '        "attribute assignment (atomic in CPython); readers take one "\n'
            '        "reference and never mutate it",\n',
            "",
        )],
    ),
}


def sources(edits=()):
    """``{module path: text}`` with each ``(path, old, new)`` applied once."""
    texts = {rel: (SRC / rel).read_text(encoding="utf-8") for rel in MODULES}
    for rel, old, new in edits:
        assert texts[rel].count(old) == 1, f"substitution anchor moved in {rel}: {old!r}"
        texts[rel] = texts[rel].replace(old, new)
    return texts


def lint(edits=()):
    modules = [ModuleFile(f"src/repro/{rel}", text) for rel, text in sources(edits).items()]
    return LintEngine(default_rules()).run(Project(modules))


def test_unmutated_sources_lint_clean():
    result = lint()
    assert result.ok, "\n".join(f.render() for f in result.findings)


@pytest.mark.parametrize("case", sorted(MUTANTS))
def test_injected_bug_is_caught(case):
    rule, edits = MUTANTS[case]
    result = lint(edits)
    assert rule in {f.rule for f in result.findings}, (
        f"{case} escaped {rule}: " + "; ".join(f.render() for f in result.findings)
    )


# -- M1: the views-only HTTP surface -------------------------------------

M1 = (
    "service/http.py",
    '"tenants": [view.summary for view in self.service.views().values()]',
    '"tenants": [{"tenant": t.name, "phase": t.phase, "windows": t.windows_total}'
    " for t in self.service.tenants.values()]",
)


def service_state_class(edits=()):
    """``ServiceState`` executed from the (mutated) ``http.py`` source."""
    namespace = {"__name__": "repro.service.http_under_test"}
    exec(compile(sources(edits)["service/http.py"], "http.py", "exec"), namespace)
    return namespace["ServiceState"]


def views_only(service):
    """A stand-in with only what a route may read of the service."""
    return types.SimpleNamespace(
        views=service.views,
        metrics=service.metrics,
        errors=service.errors,
        config=service.config,
    )


def test_m1_route_reading_a_pipeline_is_caught():
    service = StreamService(window=10.0)
    service.add_tenant("prod")
    # The mutant works against the real service: a lint-clean race.
    mutant = service_state_class([M1])
    assert mutant(service).routes["/tenants"]({})[0] == 200
    assert service_state_class()(views_only(service)).routes["/tenants"]({})[0] == 200
    with pytest.raises(AttributeError, match="tenants"):
        mutant(views_only(service)).routes["/tenants"]({})
