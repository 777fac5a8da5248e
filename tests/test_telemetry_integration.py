"""End-to-end telemetry observatory: the ISSUE's acceptance scenario.

One faulted run (``LinkLoss`` on ``ofs1--ofs5`` at t=15s), observed four
ways: the heatmap must visibly mark the faulted link, a telemetry-driven
alert must fire for it, the evidence chain must reference the telemetry
record, and the read-only HTTP endpoint must serve valid ``/healthz``
and ``/metrics`` responses over the same plane.
"""

import json
import re
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.core.diff.dependency import DependencyMatrix
from repro.core.diff.evidence import attach_evidence, telemetry_records_for
from repro.core.diff.html import report_to_html
from repro.core.diff.report import DiagnosisReport
from repro.faults.network import LinkLoss
from repro.obs.alerts import AlertEngine, telemetry_rules
from repro.obs.heatmap import heatmap_to_html, topology_heatmap_svg
from repro.obs.httpd import ObsHTTPServer, ObsState
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryPlane
from repro.scenarios import three_tier_lab

FAULTED_EDGE = "ofs1--ofs5"


@pytest.fixture(scope="module")
def faulted_run():
    """The lab scenario with a lossy link injected mid-run, observed once."""
    plane = TelemetryPlane(window=1.0, capacity=120)
    metrics = MetricsRegistry()
    scenario = three_tier_lab(metrics=metrics, telemetry=plane)
    scenario.inject(LinkLoss([("ofs1", "ofs5")], loss_rate=0.08), at=15.0)
    log = scenario.run(stop=30.0)
    plane.flush(scenario.network.now)
    engine = AlertEngine(telemetry_rules())
    engine.observe_telemetry(plane)
    return scenario, plane, metrics, engine, log


def test_faulted_link_accumulates_drops(faulted_run):
    _, plane, _, _, _ = faulted_run
    drops = plane.get("link", FAULTED_EDGE, "drops")
    assert drops is not None and drops.total > 0
    # Only the faulted link dropped packets.
    for series in plane:
        if series.metric == "drops" and series.component != FAULTED_EDGE:
            assert series.total == 0.0, series.component


def test_heatmap_visibly_marks_the_faulted_link(faulted_run):
    scenario, plane, _, engine, _ = faulted_run
    svg = topology_heatmap_svg(scenario.network.topology, plane)
    match = re.search(
        rf'<line class="([^"]*)" data-component="{FAULTED_EDGE}"', svg
    )
    assert match is not None, "faulted link missing from the heatmap"
    assert "drops" in match.group(1).split()
    # No healthy link is marked as dropping.
    for classes, edge in re.findall(
        r'<line class="([^"]*)" data-component="([^"]*)"', svg
    ):
        if edge != FAULTED_EDGE:
            assert "drops" not in classes.split(), edge
    # The full report embeds the SVG and the alerts table.
    html = heatmap_to_html(
        scenario.network.topology, plane, alerts=engine.alerts
    )
    assert f'data-component="{FAULTED_EDGE}"' in html
    assert "Telemetry alerts" in html


def test_heatmap_is_deterministic(faulted_run):
    scenario, plane, _, _, _ = faulted_run
    topo = scenario.network.topology
    svg = topology_heatmap_svg(topo, plane)
    assert svg == topology_heatmap_svg(topo, plane)
    # Laid out by tier: aggregation above edge above hosts (SVG y grows down).
    circles = re.findall(r'<circle [^>]*data-component="([^"]*)" cx="[^"]*" cy="([^"]*)"', svg)
    cy = {node: float(y) for node, y in circles}
    assert cy["ofs1"] < cy["ofs3"] < cy["S1"]


def test_telemetry_alert_fires_for_the_faulted_link(faulted_run):
    _, _, _, engine, _ = faulted_run
    drifts = [
        a
        for a in engine.alerts
        if a.rule == "telemetry:drop-drift" and FAULTED_EDGE in a.message
    ]
    assert drifts, [a.message for a in engine.alerts]
    # The drift is noticed right after injection, not at end of run.
    assert min(a.timestamp for a in drifts) <= 17.0


def test_evidence_chain_references_the_telemetry_record(faulted_run):
    _, plane, _, _, log = faulted_run
    records = telemetry_records_for(plane, FAULTED_EDGE)
    assert records and records[0].component == FAULTED_EDGE
    assert any(r.metric == "drops" and r.counter for r in records)

    report = DiagnosisReport(
        unknown_changes=(),
        known_changes=(),
        task_events=(),
        problems=(),
        dependency=DependencyMatrix.from_changes([]),
        component_ranking=((FAULTED_EDGE, 2.0),),
    )
    enriched = attach_evidence(report, log, telemetry=plane)
    assert enriched.evidence, "telemetry alone should justify a chain"
    chain = enriched.evidence[0]
    assert chain.component == FAULTED_EDGE
    assert chain.telemetry
    rendered = chain.render()
    assert "telemetry" in rendered
    html = report_to_html(enriched)
    assert "telemetry series" in html
    payload = enriched.to_dict()
    assert payload["evidence"][0]["telemetry"]


def test_http_endpoint_serves_health_and_metrics(faulted_run):
    _, plane, metrics, engine, _ = faulted_run
    state = ObsState(registry=metrics, telemetry=plane, engine=engine)
    with ObsHTTPServer(state) as server:
        with urllib.request.urlopen(server.url("/healthz")) as resp:
            assert resp.status == 200
            health = json.loads(resp.read())
        assert health["status"] == "ok"
        assert health["telemetry"]["series"] == len(list(plane))
        assert health["alerts"] == len(engine.alerts)

        with urllib.request.urlopen(server.url("/metrics")) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith("text/plain")
            body = resp.read().decode("utf-8")
        assert f'telemetry_link_drops{{component="{FAULTED_EDGE}"}}' in body
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

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(server.url("/nope"))
        assert excinfo.value.code == 404


class TestEndpointProtocol:
    """``HEAD``/``405``/``404``/``500`` behaviour of the ops endpoint that
    does not depend on any one page."""

    @pytest.fixture(scope="class")
    def srv(self):
        with ObsHTTPServer(ObsState()) as srv:
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


def test_cli_telemetry_smoke(tmp_path, capsys):
    out = str(tmp_path / "telemetry.jsonl")
    prom = str(tmp_path / "telemetry.prom")
    html = str(tmp_path / "heatmap.html")
    code = main(
        [
            "telemetry",
            "--duration",
            "8",
            "--fault",
            "linkloss",
            "--fault-at",
            "3",
            "--out",
            out,
            "--prom",
            prom,
            "--html",
            html,
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "link telemetry" in stdout
    assert "wrote topology heatmap" in stdout

    from repro.obs.export import read_jsonl
    from repro.obs.telemetry import plane_from_events

    rebuilt = plane_from_events(read_jsonl(out))
    assert rebuilt.get("link", FAULTED_EDGE, "drops") is not None
    with open(prom, encoding="utf-8") as fh:
        assert "telemetry_link_utilization" in fh.read()
    with open(html, encoding="utf-8") as fh:
        assert f'data-component="{FAULTED_EDGE}"' in fh.read()


def test_cli_linkloss_rejects_bad_target():
    with pytest.raises(SystemExit):
        main(["telemetry", "--duration", "1", "--fault", "linkloss", "--target", "S3"])
