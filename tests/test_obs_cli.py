"""CLI observability surface: ``repro stats``, ``--profile``, ``--metrics-out``.

The reconciliation tests here are the acceptance gate for the metrics
export: counters written by ``--metrics-out`` must agree exactly with the
message counts of the capture they describe.
"""

import json
import logging

import pytest

from repro.cli import main
from repro.openflow.serialize import read_log


def read_events(path):
    """A ``--metrics-out`` file, read with one ``json.loads`` per line."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def value(events, name, **labels):
    """The value of the instrument ``name{labels}`` (a histogram's count);
    0 when no line carries it."""
    for event in events:
        if event.get("name") == name and event.get("labels") == labels:
            return event["value"] if "value" in event else event["count"]
    return 0.0


@pytest.fixture(scope="module")
def captures(tmp_path_factory):
    """One healthy and one faulty capture, simulated once per module."""
    root = tmp_path_factory.mktemp("captures")
    baseline = str(root / "l1.jsonl")
    current = str(root / "l2.jsonl")
    assert main(["simulate", "--out", baseline, "--duration", "15"]) == 0
    assert (
        main(
            [
                "simulate",
                "--out",
                current,
                "--duration",
                "15",
                "--fault",
                "logging",
            ]
        )
        == 0
    )
    return baseline, current


class TestStatsCommand:
    def test_stats_summary(self, captures, capsys):
        baseline, _ = captures
        assert main(["stats", baseline]) == 0
        out = capsys.readouterr().out
        assert "control messages" in out
        assert "packet_in" in out
        assert "flow_mod" in out
        assert "rate/s" in out
        assert "top talkers" in out
        assert "busiest switches" in out

    def test_stats_matches_log_counts(self, captures, capsys):
        baseline, _ = captures
        log = read_log(baseline)
        assert main(["stats", baseline]) == 0
        out = capsys.readouterr().out
        assert f"{baseline}: {len(log)} control messages" in out
        # The per-kind counts printed are the log's actual counts.
        for kind, count in (
            ("packet_in", len(log.packet_ins())),
            ("flow_mod", len(log.flow_mods())),
            ("flow_removed", len(log.flow_removed())),
        ):
            line = next(l for l in out.splitlines() if l.strip().startswith(kind))
            assert str(count) in line.split()

    def test_stats_metrics_out(self, captures, tmp_path, capsys):
        baseline, _ = captures
        out_path = str(tmp_path / "stats.jsonl")
        assert main(["stats", baseline, "--metrics-out", out_path]) == 0
        events = read_events(out_path)
        assert events[0]["type"] == "meta"
        log = read_log(baseline)
        assert value(
            events, "log_messages_total", kind="packet_in", role="capture"
        ) == len(log.packet_ins())

    def test_stats_top_zero(self, captures, capsys):
        baseline, _ = captures
        assert main(["stats", baseline, "--top", "0"]) == 0
        out = capsys.readouterr().out
        assert "top talkers" not in out


class TestDiffProfile:
    def test_profile_prints_phase_table(self, captures, capsys):
        baseline, current = captures
        rc = main(["diff", baseline, current, "--profile"])
        out = capsys.readouterr().out
        assert rc == 1  # the fault is detected, as without --profile
        assert "phase timings:" in out
        for phase in ("model", "extract", "app-signature", "stability",
                      "diff", "compare", "validate", "rank"):
            assert phase in out

    def test_metrics_out_reconciles_with_logs(self, captures, tmp_path, capsys):
        """Acceptance criterion: exported counters == capture message counts."""
        baseline, current = captures
        out_path = str(tmp_path / "diff.jsonl")
        rc = main(["diff", baseline, current, "--metrics-out", out_path])
        assert rc == 1
        events = read_events(out_path)
        for role, path in (("baseline", baseline), ("current", current)):
            log = read_log(path)
            for kind, count in (
                ("packet_in", len(log.packet_ins())),
                ("flow_mod", len(log.flow_mods())),
                ("flow_removed", len(log.flow_removed())),
            ):
                assert (
                    value(events, "log_messages_total", kind=kind, role=role)
                    == count
                ), f"{role}/{kind} mismatch"
        # Pipeline counters and spans came along too.
        assert value(events, "flowdiff_models_total") == 2
        assert value(events, "flowdiff_diffs_total") == 1
        span_paths = {e["path"] for e in events if e["type"] == "span"}
        assert {"model", "model/extract", "diff", "diff/compare"} <= span_paths

    def test_model_profile_and_metrics(self, captures, tmp_path, capsys):
        baseline, _ = captures
        model_path = str(tmp_path / "m.json")
        out_path = str(tmp_path / "model.jsonl")
        rc = main(
            ["model", baseline, "--out", model_path,
             "--profile", "--metrics-out", out_path]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert "stability" in out
        events = read_events(out_path)
        log = read_log(baseline)
        assert value(
            events, "log_messages_total", kind="packet_in", role="baseline"
        ) == len(log.packet_ins())


class TestSimulateTelemetry:
    def test_simulate_metrics_out_reconciles(self, tmp_path, capsys):
        capture = str(tmp_path / "cap.jsonl")
        out_path = str(tmp_path / "sim.jsonl")
        rc = main(
            ["simulate", "--out", capture, "--duration", "10",
             "--metrics-out", out_path]
        )
        assert rc == 0
        log = read_log(capture)
        events = read_events(out_path)
        # Live controller counters agree with what landed in the capture.
        for kind, count in (
            ("packet_in", len(log.packet_ins())),
            ("flow_mod", len(log.flow_mods())),
            ("flow_removed", len(log.flow_removed())),
        ):
            assert value(events, "controller_messages_total", kind=kind) == count
        # And so do the one-pass log counters.
        assert value(
            events, "log_messages_total", kind="packet_in", role="capture"
        ) == len(log.packet_ins())
        # Simulator and flow-table activity was recorded.
        assert value(events, "sim_events_total") > 0
        assert any(
            e["value"] > 0 for e in events if e.get("name") == "flowtable_lookups_total"
        )
        assert value(events, "controller_response_seconds") == len(log.packet_ins())

    def test_simulate_profile_table(self, tmp_path, capsys):
        capture = str(tmp_path / "cap.jsonl")
        rc = main(
            ["simulate", "--out", capture, "--duration", "5", "--profile"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert "simulate" in out


class TestVerboseFlag:
    def test_verbose_sets_root_level(self):
        tmp_main_args = ["--verbose"]
        assert main(tmp_main_args + ["stats", "/dev/null"]) == 0
        assert logging.getLogger().getEffectiveLevel() == logging.INFO

    def test_double_verbose_sets_debug(self):
        assert main(["-vv", "stats", "/dev/null"]) == 0
        assert logging.getLogger().getEffectiveLevel() == logging.DEBUG

    def test_default_is_warning(self):
        assert main(["stats", "/dev/null"]) == 0
        assert logging.getLogger().getEffectiveLevel() == logging.WARNING
