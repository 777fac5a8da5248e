"""Tests for the ``repro lint`` command-line surface."""

import json
import os
import textwrap

from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), "..", "src", "repro")


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


class TestLintCommand:
    def test_repo_lints_clean_with_exit_zero(self, capsys):
        assert main(["lint", REPO_SRC]) == 0
        out = capsys.readouterr().out
        assert out.startswith("clean:")

    def test_default_paths_are_the_installed_package(self, capsys):
        assert main(["lint"]) == 0

    def test_violation_exits_nonzero_with_clickable_line(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "repro/netsim/bad.py",
            """\
            import time

            def handle(pkt):
                return time.time()
            """,
        )
        assert main(["lint", bad]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4: [sim-clock]" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "repro/netsim/bad.py",
            """\
            import random

            def jitter():
                return random.random()
            """,
        )
        assert main(["lint", "--format", "json", bad]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["findings"][0]["rule"] == "determinism"

    def test_concurrency_rules_run_by_default(self, tmp_path, capsys):
        bad = write(
            tmp_path,
            "repro/netsim/bad.py",
            """\
            import threading

            LOCK = threading.Lock()
            """,
        )
        assert main(["lint", bad]) == 1
        assert f"{bad}:3: [lock-confinement]" in capsys.readouterr().out
