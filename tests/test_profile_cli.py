"""``repro profile`` and ``repro runs``: the CLI surface of the
performance observatory, plus the ``/runs`` route and ``HEAD`` support
of the ops endpoint."""

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
    "--repeats",
    "1",
]


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """One deterministic profiled run with every artifact written."""
    root = tmp_path_factory.mktemp("observatory")
    flame = str(root / "pipeline.svg")
    folded = str(root / "pipeline.folded")
    ledger = str(root / "ledger")
    assert (
        main(
            PROFILE_ARGS
            + [
                "--deterministic",
                "--flame",
                flame,
                "--folded",
                folded,
                "--ledger-dir",
                ledger,
            ]
        )
        == 0
    )
    return flame, folded, ledger


def _record_ids(ledger):
    with open(ledger + "/ledger.jsonl", encoding="utf-8") as fh:
        return [json.loads(line)["record_id"] for line in fh if line.strip()]


class TestProfileCommand:
    def test_artifacts_written(self, profiled):
        flame, folded, ledger = profiled
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
        assert len(_record_ids(ledger)) == 1

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


class TestRunsCommands:
    @pytest.fixture(scope="class")
    def ledger(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("runs") / "ledger")
        for _ in range(2):
            assert main(PROFILE_ARGS + ["--ledger-dir", root]) == 0
        return root

    def test_list(self, ledger, capsys):
        assert main(["runs", "list", "--ledger-dir", ledger]) == 0
        out = capsys.readouterr().out
        assert "scalability_sim(2 apps, 5s)" in out
        assert main(["runs", "list", "--ledger-dir", ledger, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 2
        # Same workload, same seed: records line up under one run id.
        assert len({row["run_id"] for row in rows}) == 1

    def test_show(self, ledger, capsys):
        rid = _record_ids(ledger)[0]
        assert main(["runs", "show", rid[:6], "--ledger-dir", ledger]) == 0
        out = capsys.readouterr().out
        assert rid in out
        assert "phases:" in out
        assert main(["runs", "show", "zzzz", "--ledger-dir", ledger]) == 2

    def test_compare(self, ledger, capsys):
        first, second = _record_ids(ledger)
        assert (
            main(["runs", "compare", first, second, "--ledger-dir", ledger])
            == 0
        )
        out = capsys.readouterr().out
        assert "(total)" in out
        assert "model" in out

    def test_gate_passes_against_itself(self, ledger, capsys):
        rid = _record_ids(ledger)[-1]
        assert (
            main(
                [
                    "runs",
                    "gate",
                    rid,
                    "--baseline",
                    rid,
                    "--ledger-dir",
                    ledger,
                ]
            )
            == 0
        )
        assert "gate PASSED" in capsys.readouterr().out

    def test_gate_detects_injected_slowdown(self, ledger, tmp_path, capsys):
        """A ~2x slowdown must fail the gate (the regression regression
        test): double every phase of the latest record and gate it
        against the genuine one."""
        rid = _record_ids(ledger)[-1]
        assert (
            main(["runs", "show", rid, "--ledger-dir", ledger, "--json"]) == 0
        )
        record = json.loads(capsys.readouterr().out)
        record["phases"] = {
            k: v * 2.0 for k, v in record["phases"].items()
        }
        record["total_s"] *= 2.0
        record.pop("record_id")
        slowed = str(tmp_path / "slowed.json")
        with open(slowed, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        # Write the slowed record into a second ledger and gate it
        # against the honest baseline record (exported as a file).
        from repro.obs.ledger import RunLedger, RunRecord

        slow_dir = str(tmp_path / "slow-ledger")
        RunLedger(slow_dir).append(RunRecord.from_dict(record))
        honest = str(tmp_path / "honest.json")
        assert (
            main(["runs", "show", rid, "--ledger-dir", ledger, "--json"]) == 0
        )
        with open(honest, "w", encoding="utf-8") as fh:
            fh.write(capsys.readouterr().out)
        assert (
            main(
                [
                    "runs",
                    "gate",
                    "--baseline",
                    honest,
                    "--ledger-dir",
                    slow_dir,
                    "--tol-pct",
                    "25",
                ]
            )
            == 1
        )
        assert "gate FAILED" in capsys.readouterr().out

    def test_gate_rejects_baseline_file_that_is_no_record(
        self, ledger, tmp_path, capsys
    ):
        path = str(tmp_path / "phases.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"phases": {"model": 0.1}, "total_s": 0.1}, fh)
        capsys.readouterr()
        assert (
            main(["runs", "gate", "--baseline", path, "--ledger-dir", ledger])
            == 2
        )
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and "not a ledger record" in out

    def test_gate_empty_ledger(self, tmp_path, capsys):
        empty = str(tmp_path / "empty")
        assert (
            main(
                ["runs", "gate", "--baseline", "x", "--ledger-dir", empty]
            )
            == 2
        )


class TestRunsEndpoint:
    @pytest.fixture(scope="class")
    def server(self, tmp_path_factory):
        from repro.obs.httpd import ObsHTTPServer, ObsState
        from repro.obs.ledger import RunLedger

        root = str(tmp_path_factory.mktemp("httpd") / "ledger")
        assert main(PROFILE_ARGS + ["--ledger-dir", root]) == 0
        with ObsHTTPServer(ObsState(ledger=RunLedger(root))) as srv:
            yield srv, root

    def test_runs_listing(self, server):
        srv, root = server
        payload = json.loads(urllib.request.urlopen(srv.url("/runs")).read())
        assert len(payload["records"]) == 1
        assert payload["records"][0]["record_id"] == _record_ids(root)[0]
        assert "folded" not in payload["records"][0]

    def test_runs_by_id(self, server):
        srv, root = server
        rid = _record_ids(root)[0]
        record = json.loads(
            urllib.request.urlopen(srv.url(f"/runs?id={rid[:6]}")).read()
        )
        assert record["record_id"] == rid
        assert record["phases"]

    def test_runs_unknown_id_404(self, server):
        srv, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(srv.url("/runs?id=zzzz"))
        assert err.value.code == 404

    def test_runs_ambiguous_prefix_400(self, tmp_path):
        from repro.obs.httpd import ObsHTTPServer, ObsState
        from repro.obs.ledger import RunLedger, RunRecord

        ledger = RunLedger(str(tmp_path / "ledger"))
        for rid in ("abc111", "abc222"):
            ledger.append(
                RunRecord(
                    run_id="r", command="profile", scenario="lab", seed=3,
                    messages=1, phases={}, total_s=0.0, record_id=rid,
                )
            )
        with ObsHTTPServer(ObsState(ledger=ledger)) as srv:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(srv.url("/runs?id=abc"))
            assert err.value.code == 400
            assert "abc111, abc222" in json.loads(err.value.read())["error"]

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

    def test_head_matches_get(self, server):
        srv, _ = server
        for path in ("/healthz", "/metrics", "/runs"):
            body = urllib.request.urlopen(srv.url(path)).read()
            head = urllib.request.urlopen(
                urllib.request.Request(srv.url(path), method="HEAD")
            )
            assert int(head.headers["Content-Length"]) == len(body)
            assert head.read() == b""

    def test_head_unknown_is_404_no_body(self, server):
        srv, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(srv.url("/nope"), method="HEAD")
            )
        assert err.value.code == 404
        assert err.value.read() == b""

    def test_post_refused_with_allow_header(self, server):
        srv, _ = server
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                urllib.request.Request(
                    srv.url("/runs"), data=b"{}", method="POST"
                )
            )
        assert err.value.code == 405
        assert err.value.headers["Allow"] == "GET, HEAD"

    def test_no_ledger_configured(self):
        from repro.obs.httpd import ObsHTTPServer, ObsState

        with ObsHTTPServer(ObsState()) as srv:
            payload = json.loads(
                urllib.request.urlopen(srv.url("/runs")).read()
            )
        assert payload == {"records": []}
