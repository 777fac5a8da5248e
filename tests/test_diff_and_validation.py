"""Unit tests for comparison thresholds, validation, classification, ranking."""

import pytest

from repro.core.diff.dependency import (
    APP_KINDS,
    INFRA_KINDS,
    DependencyMatrix,
    classify_problems,
)
from repro.core.diff.ranking import rank_components
from repro.core.diff.report import DiagnosisReport
from repro.core.diff.validate import TaskExplanation, validate_changes
from repro.core.signatures.base import ChangeRecord, SignatureKind
from repro.core.tasks.detector import TaskEvent


def change(kind, components=(), timestamp=None, direction="shifted", magnitude=1.0):
    return ChangeRecord(
        kind=kind,
        scope="g",
        description=f"{kind.value} change",
        components=frozenset(components),
        magnitude=magnitude,
        timestamp=timestamp,
        direction=direction,
    )


class TestValidateChanges:
    def test_task_explains_overlapping_change(self):
        cg = change(SignatureKind.CG, components={"VM1", "S3"}, timestamp=10.0)
        event = TaskEvent(name="vm_migration", t_start=9.0, t_end=12.0, hosts=frozenset({"VM1"}))
        unknown, known = validate_changes([cg], [event])
        assert not unknown
        assert known[0][1] is event

    def test_wrong_kind_not_explained(self):
        crt = change(SignatureKind.CRT, components={"controller"}, timestamp=10.0)
        event = TaskEvent(name="vm_migration", t_start=9.0, t_end=12.0, hosts=frozenset({"VM1"}))
        unknown, known = validate_changes([crt], [event])
        assert unknown == [crt]

    def test_time_misalignment_not_explained(self):
        cg = change(SignatureKind.CG, components={"VM1"}, timestamp=100.0)
        event = TaskEvent(name="vm_migration", t_start=9.0, t_end=12.0, hosts=frozenset({"VM1"}))
        unknown, known = validate_changes([cg], [event])
        assert unknown == [cg]

    def test_component_overlap_required(self):
        cg = change(SignatureKind.CG, components={"S9"}, timestamp=10.0)
        event = TaskEvent(name="vm_migration", t_start=9.0, t_end=12.0, hosts=frozenset({"VM1"}))
        unknown, known = validate_changes([cg], [event])
        assert unknown == [cg]

    def test_absence_change_matched_by_hosts_anywhere(self):
        """A missing edge (no timestamp) is explained by a stop task on its host."""
        cg = change(SignatureKind.CG, components={"VM1", "S3"}, timestamp=None, direction="removed")
        event = TaskEvent(name="vm_stop", t_start=50.0, t_end=51.0, hosts=frozenset({"VM1"}))
        unknown, known = validate_changes([cg], [event])
        assert not unknown

    def test_unknown_task_name_ignored(self):
        cg = change(SignatureKind.CG, components={"VM1"}, timestamp=10.0)
        event = TaskEvent(name="mystery", t_start=9.0, t_end=12.0, hosts=frozenset({"VM1"}))
        unknown, _ = validate_changes([cg], [event])
        assert unknown == [cg]

    def test_custom_explanations(self):
        crt = change(SignatureKind.CRT, components={"controller"}, timestamp=10.0)
        rule = TaskExplanation(
            "controller_maintenance",
            frozenset({SignatureKind.CRT}),
            require_component_overlap=False,
        )
        event = TaskEvent(name="controller_maintenance", t_start=9.0, t_end=12.0)
        unknown, known = validate_changes([crt], [event], [rule])
        assert not unknown


class TestDependencyMatrix:
    def test_congestion_matrix_matches_figure8a(self):
        changes = [
            change(SignatureKind.DD),
            change(SignatureKind.PC),
            change(SignatureKind.FS),
            change(SignatureKind.ISL),
        ]
        matrix = DependencyMatrix.from_changes(changes)
        assert matrix.at(SignatureKind.DD, SignatureKind.ISL) == 1
        assert matrix.at(SignatureKind.PC, SignatureKind.ISL) == 1
        assert matrix.at(SignatureKind.FS, SignatureKind.ISL) == 1
        assert matrix.at(SignatureKind.CG, SignatureKind.ISL) == 0
        assert matrix.at(SignatureKind.DD, SignatureKind.PT) == 0

    def test_switch_failure_matrix_matches_figure8b(self):
        changes = [change(SignatureKind.CG), change(SignatureKind.PT)]
        matrix = DependencyMatrix.from_changes(changes)
        assert matrix.at(SignatureKind.CG, SignatureKind.PT) == 1
        assert matrix.at(SignatureKind.DD, SignatureKind.PT) == 0

    def test_render_shape(self):
        matrix = DependencyMatrix.from_changes([])
        lines = matrix.render().splitlines()
        assert len(lines) == 1 + len(APP_KINDS)
        for kind in INFRA_KINDS:
            assert kind.value in lines[0]


class TestClassifyProblems:
    def test_empty_changes_healthy(self):
        assert classify_problems([]) == []

    def test_dd_only_is_performance_problem(self):
        result = classify_problems([change(SignatureKind.DD)])
        assert result[0].problem in ("application_performance", "host_or_app_problem")

    def test_congestion_signature_set(self):
        changes = [
            change(SignatureKind.DD),
            change(SignatureKind.PC),
            change(SignatureKind.FS),
            change(SignatureKind.ISL),
        ]
        assert classify_problems(changes)[0].problem == "congestion"

    def test_unauthorized_needs_added_edges(self):
        added = [
            change(SignatureKind.CG, direction="added"),
            change(SignatureKind.CI),
            change(SignatureKind.FS),
        ]
        removed = [
            change(SignatureKind.CG, direction="removed"),
            change(SignatureKind.CI),
            change(SignatureKind.FS),
        ]
        assert classify_problems(added)[0].problem == "unauthorized_access"
        assert all(p.problem != "unauthorized_access" for p in classify_problems(removed))

    def test_failure_needs_removed_edges(self):
        removed = [
            change(SignatureKind.CG, direction="removed"),
            change(SignatureKind.CI),
        ]
        top = classify_problems(removed)
        assert any(p.problem == "application_failure" for p in top)

    def test_crt_only_is_controller_problem(self):
        result = classify_problems([change(SignatureKind.CRT)])
        assert result[0].problem in ("controller_overhead", "controller_failure")

    def test_scores_bounded_and_sorted(self):
        changes = [change(SignatureKind.DD), change(SignatureKind.ISL)]
        result = classify_problems(changes, top_k=5, min_score=0.0)
        scores = [p.score for p in result]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 <= s <= 1.0 for s in scores)


class TestRanking:
    def test_counts_associations(self):
        changes = [
            change(SignatureKind.CG, components={"S3", "S3--S8"}),
            change(SignatureKind.CI, components={"S3"}),
            change(SignatureKind.DD, components={"S8"}),
        ]
        ranked = rank_components(changes)
        assert ranked[0] == ("S3", 2.0)

    def test_magnitude_weighting(self):
        changes = [
            change(SignatureKind.DD, components={"a"}, magnitude=5.0),
            change(SignatureKind.CI, components={"b"}, magnitude=1.0),
            change(SignatureKind.CG, components={"b"}, magnitude=1.0),
        ]
        plain = rank_components(changes)
        weighted = rank_components(changes, weight_by_magnitude=True)
        assert plain[0][0] == "b"
        assert weighted[0][0] == "a"

    def test_deterministic_tiebreak(self):
        changes = [change(SignatureKind.CG, components={"b", "a"})]
        assert rank_components(changes) == [("a", 1.0), ("b", 1.0)]


class TestDiagnosisReport:
    def test_render_healthy(self):
        report = DiagnosisReport(
            unknown_changes=(),
            known_changes=(),
            task_events=(),
            problems=(),
            dependency=DependencyMatrix.from_changes([]),
            component_ranking=(),
        )
        text = report.render()
        assert report.healthy
        assert "No unexplained" in text

    def test_render_with_findings(self):
        ch = change(SignatureKind.DD, components={"S3"})
        report = DiagnosisReport(
            unknown_changes=(ch,),
            known_changes=(),
            task_events=(),
            problems=tuple(classify_problems([ch])),
            dependency=DependencyMatrix.from_changes([ch]),
            component_ranking=tuple(rank_components([ch])),
        )
        text = report.render()
        assert not report.healthy
        assert "DD" in text
        assert "S3" in text
        assert report.changed_kinds() == (SignatureKind.DD,)
