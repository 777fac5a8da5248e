"""Tests for the HTML report export."""

import pytest

from repro import FlowDiff
from repro.core.diff.html import report_to_html, save_html_report
from repro.faults import LoggingMisconfig
from repro.scenarios import three_tier_lab


@pytest.fixture(scope="module")
def report():
    fd = FlowDiff()

    def capture(fault=None):
        scenario = three_tier_lab(seed=3)
        if fault:
            scenario.inject(fault, at=0.0)
        return scenario.run(0.5, 25.0)

    baseline = fd.model(capture())
    return fd.diff(baseline, fd.model(capture(LoggingMisconfig("S3", 0.05)), assess=False))


class TestHtmlExport:
    def test_contains_findings(self, report):
        doc = report_to_html(report)
        assert doc.startswith("<!DOCTYPE html>")
        assert "unexplained" in doc
        assert "S3" in doc
        assert "DD" in doc
        assert "First response" in doc

    def test_escapes_content(self):
        from repro.core.diff.dependency import DependencyMatrix
        from repro.core.diff.report import DiagnosisReport
        from repro.core.signatures.base import ChangeRecord, SignatureKind

        nasty = ChangeRecord(
            kind=SignatureKind.CG,
            scope="<script>alert(1)</script>",
            description="bad & <b>bold</b>",
        )
        doc = report_to_html(
            DiagnosisReport(
                unknown_changes=(nasty,),
                known_changes=(),
                task_events=(),
                problems=(),
                dependency=DependencyMatrix.from_changes([nasty]),
                component_ranking=(),
            )
        )
        assert "<script>" not in doc
        assert "&lt;script&gt;" in doc

    def test_save_to_file(self, report, tmp_path):
        path = str(tmp_path / "report.html")
        save_html_report(report, path, title="incident 42")
        content = open(path).read()
        assert "incident 42" in content

    def test_healthy_report(self):
        fd = FlowDiff()
        log = three_tier_lab(seed=3).run(0.5, 10.0)
        model = fd.model(log, assess=False)
        doc = report_to_html(fd.diff(model, model))
        assert "No unexplained" in doc

