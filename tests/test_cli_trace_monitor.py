"""CLI tests for ``repro trace`` and ``repro monitor``."""

import json

import pytest

from repro.cli import main
from repro.faults.network import LinkFailure
from repro.openflow.serialize import save_log
from repro.scenarios import three_tier_lab

FAULT_AT = 70.0
WINDOW = 30.0


def read_alerts(path):
    """An ``--alerts-out`` file, one ``json.loads`` per line."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


@pytest.fixture(scope="module")
def healthy_capture(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("trace") / "healthy.jsonl")
    assert main(["simulate", "--out", path, "--duration", "10"]) == 0
    return path


@pytest.fixture(scope="module")
def long_healthy_capture(tmp_path_factory):
    """40s of healthy traffic: long enough that a 20s monitoring window
    clears the post-run drain tail instead of diagnosing it."""
    path = str(tmp_path_factory.mktemp("trace") / "healthy40.jsonl")
    assert main(["simulate", "--out", path, "--duration", "40"]) == 0
    return path


@pytest.fixture(scope="module")
def faulted_capture(tmp_path_factory):
    scenario = three_tier_lab(seed=3)
    scenario.inject(LinkFailure("ofs1", "ofs3"), at=FAULT_AT)
    log = scenario.run(0.5, 130.0)
    path = str(tmp_path_factory.mktemp("monitor") / "faulted.jsonl")
    save_log(log, path)
    return path


class TestTraceCommand:
    def test_every_flow_complete_and_causally_ordered(self, healthy_capture, capsys):
        """Acceptance: full PacketIn->FlowMod->FlowRemoved chain per flow."""
        assert main(["trace", healthy_capture, "--json"]) == 0
        timelines = json.loads(capsys.readouterr().out)
        assert timelines
        for t in timelines:
            assert t["complete"], t
            assert t["monotone"], t
            assert t["dropped_stages"] == []
            stages = [e["stage"] for e in t["events"]]
            assert stages[0] == "packet_in"
            assert stages[-1] == "flow_removed"
            times = [e["t"] for e in t["events"]]
            assert times == sorted(times)

    def test_text_output_has_summary_footer(self, healthy_capture, capsys):
        assert main(["trace", healthy_capture]) == 0
        out = capsys.readouterr().out
        assert "flow(s) shown" in out
        assert "0 incomplete" in out

    def test_flow_filter(self, healthy_capture, capsys):
        assert main(["trace", healthy_capture, "--flow", ":3306", "--json"]) == 0
        timelines = json.loads(capsys.readouterr().out)
        assert timelines
        assert all(":3306" in t["flow"] for t in timelines)

    def test_corr_filter_selects_one(self, healthy_capture, capsys):
        assert main(["trace", healthy_capture, "--corr", "1", "--json"]) == 0
        timelines = json.loads(capsys.readouterr().out)
        assert len(timelines) == 1
        assert timelines[0]["corr_id"] == 1

    def test_corr_filter_builds_one_chain(self, healthy_capture, capsys, monkeypatch):
        """The footer's counts come off the recorder's groups: picking one
        chain out of the file builds one chain, in text mode too."""
        from repro.obs import flightrec

        built = []
        real = flightrec._build_timeline
        monkeypatch.setattr(
            flightrec,
            "_build_timeline",
            lambda corr_id, *rest: built.append(corr_id) or real(corr_id, *rest),
        )
        assert main(["trace", healthy_capture, "--corr", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("corr=1 ")
        assert "1 of " in out and "0 incomplete" in out
        assert built == [1]

    def test_missing_corr_exits_nonzero(self, healthy_capture, capsys):
        assert main(["trace", healthy_capture, "--corr", "999999999"]) == 1

    def test_incomplete_filter_empty_on_healthy(self, healthy_capture, capsys):
        assert main(["trace", healthy_capture, "--incomplete"]) == 1
        assert "0 incomplete" in capsys.readouterr().out


@pytest.mark.slow
class TestMonitorCommand:
    def test_healthy_capture_exits_zero(self, long_healthy_capture, tmp_path, capsys):
        out_path = str(tmp_path / "alerts.jsonl")
        code = main(
            [
                "monitor",
                long_healthy_capture,
                "--window",
                "20",
                "--alerts-out",
                out_path,
            ]
        )
        assert code == 0
        assert read_alerts(out_path) == []

    def test_fault_alerts_within_one_window(self, faulted_capture, tmp_path, capsys):
        """Acceptance: a correctly-timestamped alert follows the fault."""
        out_path = str(tmp_path / "alerts.jsonl")
        code = main(
            [
                "monitor",
                faulted_capture,
                "--window",
                str(WINDOW),
                "--alerts-out",
                out_path,
            ]
        )
        assert code == 1  # alerts fired
        alerts = read_alerts(out_path)
        assert alerts
        first = min(a["timestamp"] for a in alerts)
        assert FAULT_AT <= first <= FAULT_AT + WINDOW
        out = capsys.readouterr().out
        assert "alert(s)" in out

    def test_json_output(self, faulted_capture, capsys):
        assert main(
            ["monitor", faulted_capture, "--window", str(WINDOW), "--json"]
        ) == 1
        rows = json.loads(capsys.readouterr().out.split("\n", 0)[0])
        assert isinstance(rows, list) and rows
        assert {"rule", "severity", "timestamp"} <= set(rows[0])

    def test_cooldown_suppresses(self, faulted_capture, capsys):
        assert main(
            [
                "monitor",
                faulted_capture,
                "--window",
                "15",
                "--cooldown",
                "1000",
            ]
        ) == 1
        assert " suppressed" in capsys.readouterr().out


class TestDiffEvidenceFlag:
    def test_evidence_attached(self, faulted_capture, tmp_path, capsys):
        scenario_log = str(tmp_path / "baseline.jsonl")
        assert main(["simulate", "--out", scenario_log, "--duration", "30"]) == 0
        capsys.readouterr()
        code = main(["diff", scenario_log, faulted_capture, "--evidence", "--json"])
        assert code == 1  # the faulted capture is unhealthy
        payload = json.loads(capsys.readouterr().out)
        assert payload["evidence"]
        chain = payload["evidence"][0]
        assert chain["component"]
        assert chain["flows"] and chain["flows"][0]["events"]
