"""Tests for the observability subsystem (``repro.obs``)."""

import io
import json
import urllib.error
import urllib.request
from types import SimpleNamespace

import pytest

from repro.obs.alerts import AlertEngine, UnhealthyWindowsRule
from repro.obs.export import (
    iter_metric_events,
    iter_span_events,
    render_prometheus,
    write_jsonl,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NOOP_REGISTRY,
    Histogram,
    MetricsRegistry,
    NoopRegistry,
)
from repro.obs.httpd import ObsHTTPServer, ObsState
from repro.obs.profile import phase_rows, render_phase_table
from repro.obs.stats import record_log_metrics, render_summary, summarize_log
from repro.obs.tracing import NOOP_TRACER, Tracer


class TestRegistryMath:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("requests_total")
        c.inc()
        c.inc(2.5)
        assert reg.value("requests_total") == 3.5

    def test_same_identity_on_refetch(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("x", a="1") is reg.counter("x", a="1")
        assert reg.counter("x", a="1") is not reg.counter("x", a="2")

    def test_labels_order_irrelevant(self):
        reg = MetricsRegistry()
        assert reg.counter("x", a="1", b="2") is reg.counter("x", b="2", a="1")

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(10)
        g.inc(-3)
        assert reg.value("depth") == 7

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.histogram("x")

    def test_total_sums_across_labels(self):
        reg = MetricsRegistry()
        reg.counter("m", kind="a").inc(2)
        reg.counter("m", kind="b").inc(3)
        assert reg.total("m") == 5

    def test_value_of_missing_metric_is_zero(self):
        assert MetricsRegistry().value("nope") == 0.0

    def test_iteration_is_sorted_and_stable(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa", x="2")
        reg.counter("aa", x="1")
        names = [(m.name, m.labels) for m in reg]
        assert names == sorted(names)


class TestHistogram:
    def test_bucket_assignment(self):
        h = Histogram("h", buckets=[0.01, 0.1, 1.0])
        for v in (0.005, 0.05, 0.5, 5.0):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.count == 4
        assert h.total == pytest.approx(5.555)
        assert h.min == 0.005
        assert h.max == 5.0

    def test_boundary_values_go_to_lower_bucket(self):
        # le semantics: a value equal to the bound lands in that bucket.
        h = Histogram("h", buckets=[1.0, 2.0])
        h.observe(1.0)
        assert h.counts == [1, 0, 0]

    def test_mean_and_quantile(self):
        h = Histogram("h", buckets=[1.0, 2.0, 4.0])
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.mean == pytest.approx(1.625)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0
        assert Histogram("e", buckets=[1.0]).quantile(0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[1.0]).quantile(1.5)

    def test_default_buckets_cover_latency_range(self):
        assert DEFAULT_BUCKETS[0] <= 0.0001
        assert DEFAULT_BUCKETS[-1] >= 10.0
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)

    def test_empty_bucket_list_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])


class TestNoopRegistry:
    def test_noop_records_nothing(self):
        NOOP_REGISTRY.counter("x").inc()
        NOOP_REGISTRY.gauge("y").set(5)
        NOOP_REGISTRY.histogram("z").observe(1.0)
        assert len(NOOP_REGISTRY) == 0
        assert not NOOP_REGISTRY.enabled

    def test_noop_instruments_are_shared(self):
        reg = NoopRegistry()
        assert reg.counter("a") is reg.histogram("b")

    def test_real_registry_is_enabled(self):
        assert MetricsRegistry().enabled

    def test_labelled_view_shares_storage_under_its_labels(self):
        reg = MetricsRegistry()
        a, b = reg.labelled(tenant="a"), reg.labelled(tenant="b")
        a.counter("windows_total").inc(2)
        b.counter("windows_total").inc()
        a.histogram("close_seconds", kind="batch").observe(0.5)
        assert a.value("windows_total") == 2 and b.value("windows_total") == 1
        assert reg.value("windows_total", tenant="a") == 2
        assert reg.value("windows_total") == 0  # no unlabelled series
        assert reg.get("close_seconds", tenant="a", kind="batch").count == 1
        assert [dict(m.labels) for m in reg if m.name == "windows_total"] == [
            {"tenant": "a"},
            {"tenant": "b"},
        ]
        assert NOOP_REGISTRY.labelled(tenant="a") is NOOP_REGISTRY


class TestTracing:
    def test_span_nesting(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("inner-1"):
                pass
            with t.span("inner-2"):
                with t.span("leaf"):
                    pass
        assert len(t.roots) == 1
        outer = t.roots[0]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert outer.children[1].children[0].name == "leaf"
        assert outer.duration >= sum(c.duration for c in outer.children)
        assert outer.self_duration >= 0.0

    def test_sibling_roots(self):
        t = Tracer()
        with t.span("a"):
            pass
        with t.span("b"):
            pass
        assert [s.name for s in t.roots] == ["a", "b"]

    def test_find_and_total(self):
        t = Tracer()
        with t.span("model"):
            with t.span("phase"):
                pass
        with t.span("model"):
            pass
        assert len(t.find("model")) == 2
        assert t.total("model") >= t.total("phase")

    def test_exception_unwinds_stack(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("outer"):
                with t.span("inner"):
                    raise RuntimeError("boom")
        # Both spans closed despite the exception; new spans root cleanly.
        assert t.roots[0].end_wall is not None
        assert t.roots[0].children[0].end_wall is not None
        with t.span("after"):
            pass
        assert [s.name for s in t.roots] == ["outer", "after"]

    def test_sim_clock_durations(self):
        clock = iter([10.0, 40.0])
        t = Tracer(sim_clock=lambda: next(clock))
        with t.span("window"):
            pass
        assert t.roots[0].sim_duration == pytest.approx(30.0)

    def test_meta_recorded(self):
        t = Tracer()
        with t.span("model", messages=42):
            pass
        assert t.roots[0].meta == {"messages": 42}
        assert next(iter_span_events(t))["meta"] == {"messages": 42}

    def test_noop_tracer_records_nothing(self):
        with NOOP_TRACER.span("anything", extra=1):
            pass
        assert NOOP_TRACER.roots == []
        assert not NOOP_TRACER.enabled


class TestExportRoundTrip:
    def build_registry(self):
        reg = MetricsRegistry()
        reg.counter("messages_total", kind="packet_in").inc(7)
        reg.gauge("queue_depth").set(3)
        h = reg.histogram("latency_seconds", buckets=[0.01, 0.1])
        for v in (0.005, 0.05, 0.5):
            h.observe(v)
        return reg

    def test_jsonl_round_trip(self):
        reg = self.build_registry()
        buf = io.StringIO()
        lines = write_jsonl(buf, reg, extra={"run": "t"})
        assert lines == 4  # meta + 3 instruments
        events = [json.loads(line) for line in buf.getvalue().splitlines()]
        assert events[0] == {"type": "meta", "run": "t"}
        by_name = {e["name"]: e for e in events[1:]}
        assert by_name["messages_total"]["labels"] == {"kind": "packet_in"}
        assert by_name["messages_total"]["value"] == 7
        assert by_name["queue_depth"]["value"] == 3
        hist = by_name["latency_seconds"]
        assert hist["count"] == 3
        assert [b["n"] for b in hist["buckets"]] == [1, 1, 1]
        assert hist["sum"] == pytest.approx(0.555)

    def test_jsonl_file_round_trip(self, tmp_path):
        path = str(tmp_path / "metrics.jsonl")
        write_jsonl(path, self.build_registry())
        with open(path, encoding="utf-8") as fh:
            events = [json.loads(line) for line in fh]
        assert events == list(iter_metric_events(self.build_registry()))

    def test_span_events_flattened_with_paths(self):
        t = Tracer()
        with t.span("model"):
            with t.span("extract"):
                pass
        events = list(iter_span_events(t))
        assert [e["path"] for e in events] == ["model", "model/extract"]
        assert events[1]["depth"] == 1
        assert all(e["duration_s"] >= 0 for e in events)

    def test_histogram_event_shape(self):
        reg = self.build_registry()
        hist_event = [e for e in iter_metric_events(reg) if e["type"] == "histogram"][0]
        assert hist_event["buckets"][-1]["le"] == "+Inf"
        assert sum(b["n"] for b in hist_event["buckets"]) == hist_event["count"]

    def test_prometheus_rendering(self):
        text = render_prometheus(self.build_registry())
        assert "# TYPE messages_total counter" in text
        assert 'messages_total{kind="packet_in"} 7' in text
        assert "# TYPE queue_depth gauge" in text
        assert 'latency_seconds_bucket{le="0.01"} 1' in text
        assert 'latency_seconds_bucket{le="0.1"} 2' in text
        assert 'latency_seconds_bucket{le="+Inf"} 3' in text
        assert "latency_seconds_sum 0.555" in text
        assert "latency_seconds_count 3" in text
        assert text.endswith("\n")

    def test_prometheus_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=[1.0, 2.0])
        h.observe(0.5)
        h.observe(1.5)
        h.observe(9.0)
        text = render_prometheus(reg)
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 3' in text

    def test_empty_registry_renders_empty(self):
        assert render_prometheus(MetricsRegistry()) == ""


class TestProfileTable:
    def make_tracer(self):
        t = Tracer()
        with t.span("model"):
            with t.span("extract"):
                pass
        return t

    def test_rows_and_shares(self):
        rows = phase_rows(self.make_tracer())
        assert rows[0]["phase"] == "model"
        assert rows[0]["share"] == pytest.approx(1.0)
        assert rows[1]["depth"] == 1
        assert 0.0 <= rows[1]["share"] <= 1.0

    def test_render_contains_phases(self):
        table = render_phase_table(self.make_tracer())
        assert "model" in table and "extract" in table and "share" in table

    def test_render_empty(self):
        assert "no spans" in render_phase_table(Tracer())


class TestSimulatorInstrumentation:
    def test_event_and_queue_metrics(self):
        from repro.netsim.engine import Simulator

        reg = MetricsRegistry()
        sim = Simulator(metrics=reg)
        for i in range(5):
            sim.schedule_at(float(i), lambda: None)
        sim.schedule_at(99.0, lambda: None)
        sim.run(until=10.0)
        assert reg.value("sim_events_total") == 5
        assert reg.value("sim_queue_depth") == 1
        assert reg.get("sim_callback_seconds").count == 5

    def test_uninstrumented_default_records_nothing(self):
        from repro.netsim.engine import Simulator

        sim = Simulator()
        sim.schedule_at(0.0, lambda: None)
        sim.run()
        assert sim.metrics is NOOP_REGISTRY


class TestFlowTableInstrumentation:
    def test_lookup_install_miss_occupancy(self):
        from repro.openflow.flowtable import FlowTable
        from repro.openflow.match import FlowKey, Match

        reg = MetricsRegistry()
        table = FlowTable(metrics=reg, dpid="sw1")
        key = FlowKey("a", "b", 1000, 80)
        assert table.lookup(key, now=0.0) is None
        from repro.openflow.flowtable import FlowEntry

        table.install(FlowEntry(match=Match.exact(key), out_port=1, idle_timeout=1.0))
        assert table.lookup(key, now=0.5) is not None
        assert reg.value("flowtable_lookups_total", dpid="sw1") == 2
        assert reg.value("flowtable_misses_total", dpid="sw1") == 1
        assert reg.value("flowtable_installs_total", dpid="sw1") == 1
        assert reg.value("flowtable_entries", dpid="sw1") == 1
        expired = table.collect_expired(now=10.0)
        assert len(expired) == 1
        assert reg.value("flowtable_expired_total", dpid="sw1") == 1
        assert reg.value("flowtable_entries", dpid="sw1") == 0


class TestMonitorInstrumentation:
    def test_window_metrics(self):
        from repro.core.monitor import SlidingDiagnoser
        from repro.scenarios import three_tier_lab

        log = three_tier_lab(seed=3).run(0.5, 20.0)
        reg = MetricsRegistry()
        mon = SlidingDiagnoser(window=5.0, metrics=reg)
        mon.set_baseline(log, 0.5, 10.5)
        mon.advance(log)
        windows = reg.value("monitor_windows_total")
        assert windows >= 1
        assert reg.get("monitor_window_seconds").count == windows
        assert reg.value("monitor_last_window_healthy") in (0.0, 1.0)
        assert reg.value("monitor_healthy_streak") == mon.healthy_streak()
        assert reg.value("flowdiff_diffs_total") == windows


def test_http_endpoint_serves_health_and_metrics():
    registry = MetricsRegistry()
    registry.counter("log_messages_total", kind="packet_in", role="capture").inc(7)
    engine = AlertEngine([UnhealthyWindowsRule(name="busy")], metrics=registry)
    unhealthy = SimpleNamespace(
        t_start=0.0,
        t_end=1.0,
        healthy=False,
        report=SimpleNamespace(unknown_changes=("change",)),
    )
    engine.observe_window(unhealthy)
    assert engine.alerts
    with ObsHTTPServer(ObsState(registry, engine)) as server:
        with urllib.request.urlopen(server.url("/healthz")) as resp:
            assert resp.status == 200
            health = json.loads(resp.read())
        assert health == {
            "status": "ok",
            "alerts": len(engine.alerts),
            "worst_severity": "warning",
        }

        with urllib.request.urlopen(server.url("/metrics")) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        assert 'log_messages_total{kind="packet_in",role="capture"} 7' in body
        assert 'alerts_total{rule="busy",severity="warning"} 1' in body
        for line in body.splitlines():
            if line and not line.startswith("#"):
                name_labels, value = line.rsplit(" ", 1)
                float(value)  # every sample line ends in a number

        with urllib.request.urlopen(server.url("/alerts")) as resp:
            assert len(json.loads(resp.read())) == len(engine.alerts)

        request = urllib.request.Request(
            server.url("/metrics"), data=b"x", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request)
        assert excinfo.value.code == 405
        assert excinfo.value.headers["Allow"] == "GET, HEAD"

        for gone in ("/nope", "/telemetry"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(server.url(gone))
            assert excinfo.value.code == 404


class TestEndpointProtocol:
    """``HEAD``/``405``/``404``/``500`` behaviour of the ops endpoint that
    does not depend on any one page."""

    @pytest.fixture(scope="class")
    def srv(self):
        with ObsHTTPServer(ObsState(MetricsRegistry(), AlertEngine())) as srv:
            yield srv

    def test_raising_route_is_a_500_not_a_reset(self, caplog):
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
