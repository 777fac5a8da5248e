"""``repro profile`` — the CLI surface of the span-scoped profiler —
plus the ``HEAD``/``405``/``500`` behaviour of the ops endpoint."""

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request

import pytest

from repro.cli import main

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PROFILE_ARGS = [
    "profile",
    "--scenario",
    "scalability",
    "--apps",
    "2",
    "--duration",
    "5",
]


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One deterministic profiled run with every artifact written."""
    root = tmp_path_factory.mktemp("observatory")
    flame = str(root / "pipeline.svg")
    folded = str(root / "pipeline.folded")
    assert (
        main(
            PROFILE_ARGS
            + [
                "--deterministic",
                "--flame",
                flame,
                "--folded",
                folded,
            ]
        )
        == 0
    )
    return flame, folded


class TestProfileCommand:
    def test_artifacts_written(self, profiled):
        flame, folded = profiled
        with open(flame, encoding="utf-8") as fh:
            svg = fh.read()
        assert svg.startswith("<svg")
        assert "repro pipeline" in svg
        with open(folded, encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert int(value) > 0
            assert stack.split(";")[0] in ("model", "diff")

    def test_deterministic_rerun_is_byte_identical(self, tmp_path):
        """``--deterministic`` promises equal bytes per *invocation*, so
        each run gets a fresh interpreter.

        Two in-process runs used to differ in bursts, and only in
        full-suite order: an earlier test module imports hypothesis,
        which registers a Python-level ``gc.callbacks`` hook
        (``junkdrawer.py:gc_callback``, calling ``time.perf_counter``).
        Whenever the cyclic collector happened to fire inside a profiled
        span, that hook's call events were counted into the span
        (``model;extract;junkdrawer.py:gc_callback 4``), and where the
        collector fires depends on the process's allocation history.
        """
        outputs = []
        for name in ("first", "again"):
            flame = str(tmp_path / f"{name}.svg")
            folded = str(tmp_path / f"{name}.folded")
            env = dict(os.environ)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            subprocess.run(
                [sys.executable, "-m", "repro"]
                + PROFILE_ARGS
                + ["--deterministic", "--flame", flame, "--folded", folded],
                check=True,
                env=env,
                capture_output=True,
            )
            with open(flame, "rb") as a, open(folded, "rb") as b:
                outputs.append((a.read(), b.read()))
        assert outputs[0] == outputs[1]
        assert all(outputs[0])

    def test_stdout_reports_phases_and_functions(self, profiled, capsys, tmp_path):
        assert main(PROFILE_ARGS + ["--deterministic", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "model" in out
        assert "hot functions" in out
        assert "excl events" in out

    def test_folded_totals_reconcile_with_span_tree(self):
        """Per-phase folded sums agree with span durations within 5%."""
        from repro.obs import Tracer, attach_profiler, reconcile_phases
        from repro.core.flowdiff import FlowDiff
        from repro.scenarios import scalability_sim

        network, workload = scalability_sim(2, seed=3)
        workload.start(0.0, 5.0)
        network.sim.run(until=8.0)
        tracer = Tracer()
        profiler = attach_profiler(tracer)
        fd = FlowDiff(tracer=tracer)
        baseline = fd.model(network.log)
        fd.diff(baseline, fd.model(network.log, assess=False))
        rows = reconcile_phases(tracer, profiler, min_seconds=0.05)
        for row in rows:
            assert row["rel_err"] < 0.05, row


class TestRunsEndpoint:
    """Ops-endpoint behaviour that does not depend on any one page (the
    class keeps its ``/runs``-era name so the test ids stay stable)."""

    @pytest.fixture(scope="class")
    def srv(self):
        from repro.obs.httpd import ObsHTTPServer, ObsState

        with ObsHTTPServer(ObsState()) as srv:
            yield srv

    def test_raising_route_is_a_500_not_a_reset(self, caplog):
        from repro.obs.httpd import ObsHTTPServer, ObsState

        def boom(query):
            raise RuntimeError("page broke")

        state = ObsState()
        state.routes["/boom"] = boom
        with ObsHTTPServer(state) as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(srv.url("/boom"))
            assert err.value.code == 500
            assert "page broke" in json.loads(err.value.read())["error"]
            # The endpoint outlives the broken page.
            health = urllib.request.urlopen(srv.url("/healthz")).read()
            assert json.loads(health)["status"] == "ok"
        assert "page broke" in caplog.text  # traceback logged, not lost

    def test_head_matches_get(self, srv):
        for path in ("/healthz", "/metrics", "/alerts"):
            body = urllib.request.urlopen(srv.url(path)).read()
            head = urllib.request.urlopen(
                urllib.request.Request(srv.url(path), method="HEAD")
            )
            assert int(head.headers["Content-Length"]) == len(body)
            assert head.read() == b""

    def test_head_unknown_is_404_no_body(self, srv):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(srv.url("/nope"), method="HEAD")
            )
        assert err.value.code == 404
        assert err.value.read() == b""

    def test_post_refused_with_allow_header(self, srv):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    srv.url("/alerts"), data=b"{}", method="POST"
                )
            )
        assert err.value.code == 405
        assert err.value.headers["Allow"] == "GET, HEAD"
