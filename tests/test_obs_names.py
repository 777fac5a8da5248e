"""Tests for the shared metric-name validator (lint + runtime agree)."""

import os

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
from repro.obs.export import render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.names import (
    KNOWN_LABELS,
    KNOWN_METRICS,
    escape_label_value,
    is_known_metric,
    is_valid_label_name,
    is_valid_metric_name,
    validate_label_name,
    validate_metric_name,
)
from repro.qa import Project


class TestGrammar:
    @pytest.mark.parametrize(
        "name", ["sim_events_total", "a", "_x", "ns:subsystem:name", "A9_b"]
    )
    def test_valid_metric_names(self, name):
        assert is_valid_metric_name(name)
        assert validate_metric_name(name) == name

    @pytest.mark.parametrize(
        "name", ["", "9lead", "has-dash", "has space", "uniçode"]
    )
    def test_invalid_metric_names(self, name):
        assert not is_valid_metric_name(name)
        with pytest.raises(ValueError):
            validate_metric_name(name)

    @pytest.mark.parametrize("name", ["kind", "_private", "a9"])
    def test_valid_label_names(self, name):
        assert is_valid_label_name(name)
        assert validate_label_name(name) == name

    @pytest.mark.parametrize("name", ["", "9x", "k-v", "__reserved", "a:b"])
    def test_invalid_label_names(self, name):
        assert not is_valid_label_name(name)
        with pytest.raises(ValueError):
            validate_label_name(name)


class TestManifest:
    def test_every_known_metric_is_grammatical(self):
        for name in KNOWN_METRICS:
            assert is_valid_metric_name(name), name

    def test_every_known_label_is_grammatical(self):
        for name in KNOWN_LABELS:
            assert is_valid_label_name(name), name

    def test_every_known_metric_has_an_emitter(self):
        """No dead rows: each manifest name is a string literal in some
        other file under ``src/repro``."""
        project = Project.load([os.path.dirname(repro.__file__)])
        text = "\n".join(
            m.source for m in project.modules if m.module != "repro.obs.names"
        )
        dead = sorted(
            name
            for name in KNOWN_METRICS
            if f'"{name}"' not in text and f"'{name}'" not in text
        )
        assert not dead, dead

    @pytest.mark.parametrize(
        "name",
        [
            "telemetry_link_utilization",
            "service_ingest_messages_total",
            "service_queue_depth",
        ],
    )
    def test_grammatical_families_are_known(self, name):
        assert is_known_metric(name)

    @pytest.mark.parametrize(
        "name",
        [
            "profile_",
            "profile_spans_total",
            "runs_BadCase",
            "runs_records_total",
            "profiler_spans_total",
            "run_records",
            "service_",
            "service_BadCase",
            "services_queue_depth",
        ],
    )
    def test_family_grammar_is_strict(self, name):
        assert not is_known_metric(name)


class TestRuntimeAgreement:
    """The registry and exporter enforce the same rules lint checks."""

    def test_registry_rejects_invalid_metric_name(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("not-a-name")

    def test_registry_rejects_reserved_label(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("sim_events_total", __kind="x")

    def test_registry_accepts_manifest_names(self):
        registry = MetricsRegistry()
        registry.counter("sim_events_total", kind="packet_in").inc()
        text = render_prometheus(registry)
        assert 'sim_events_total{kind="packet_in"}' in text


class TestEscaping:
    def test_quotes_newlines_backslashes(self):
        assert escape_label_value('say "hi"') == 'say \\"hi\\"'
        assert escape_label_value("a\nb") == "a\\nb"
        assert escape_label_value("back\\slash") == "back\\\\slash"

    def test_backslash_escaped_first(self):
        # A literal backslash-n must not collide with an escaped newline.
        assert escape_label_value("\\n") == "\\\\n"
        assert escape_label_value("\n") == "\\n"

    @given(st.text(max_size=40), st.text(max_size=40))
    def test_injective(self, a, b):
        if a != b:
            assert escape_label_value(a) != escape_label_value(b)
