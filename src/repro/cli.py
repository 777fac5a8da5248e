"""Command-line interface: capture, model, diff, and monitor controller logs.

Usage (also via ``python -m repro``):

* ``repro simulate --out baseline.jsonl`` — run the lab scenario and
  store its controller log (optionally with a fault injected), standing
  in for a live capture.
* ``repro inspect baseline.jsonl`` — summarize a capture: message counts,
  span, application groups, signature digests.
* ``repro stats baseline.jsonl`` — fast control-message summary (message
  mix, rates, top talkers) without modeling anything.
* ``repro diff baseline.jsonl current.jsonl`` — the paper's workflow:
  model both captures and print the diagnosis report (``--evidence``
  attaches flight-recorder causal chains to the top suspects).
* ``repro trace capture.jsonl`` — reconstruct per-flow causal timelines
  (PacketIn -> FlowMod -> ... -> FlowRemoved) from the flight recorder.
* ``repro monitor capture.jsonl --alerts-out alerts.jsonl`` — replay a
  capture through the sliding diagnoser + alert engine and export the
  fired alerts.
* ``repro serve --tenants prod=capture.jsonl`` — the always-on streaming
  diagnosis daemon: tail one capture per tenant, buffer each open window
  and model it when the stream passes its end, diff every closed window
  against the learned baseline, and serve reports/alerts/traces/health
  over HTTP.
* ``repro lint`` — flowlint, the domain-invariant static analysis pass
  (sim-clock discipline, determinism, signature contract, metric hygiene,
  and the shared-state concurrency rules over the service).

``simulate``, ``model``, and ``diff`` accept ``--profile`` (print a
per-phase timing table) and ``--metrics-out FILE.jsonl`` (export the full
metrics registry plus trace spans as JSON lines); ``-v/-vv`` raises the
root logging level for every module at once.

The CLI exists so stored captures can be analyzed without writing Python;
every command maps 1:1 onto the library API.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import Any, List, Optional, Tuple

from repro.core.flowdiff import FlowDiff, FlowDiffConfig
from repro.core.signatures.application import SignatureConfig
from repro.obs.export import write_jsonl
from repro.obs.metrics import NOOP_REGISTRY, MetricsRegistry
from repro.obs.profile import render_phase_table
from repro.obs.stats import record_log_metrics, render_summary, summarize_log
from repro.obs.tracing import NOOP_TRACER, Tracer
from repro.openflow.ryu_ingest import read_ryu_log
from repro.openflow.serialize import read_log, save_log

logger = logging.getLogger(__name__)


def _read(path: str, fmt: str):
    """Load a capture in the requested format (native JSONL or Ryu dump)."""
    logger.debug("reading %s capture from %s", fmt, path)
    if fmt == "ryu":
        return read_ryu_log(path)
    return read_log(path)


def _obs_context(args: argparse.Namespace) -> Tuple[MetricsRegistry, Tracer]:
    """Real instruments when the run wants metrics, no-ops otherwise."""
    if getattr(args, "profile", False) or getattr(args, "metrics_out", None):
        return MetricsRegistry(), Tracer()
    return NOOP_REGISTRY, NOOP_TRACER


def _finish_obs(
    args: argparse.Namespace, metrics: MetricsRegistry, tracer: Tracer, command: str
) -> None:
    """Print the profile table and/or write the JSONL export, if asked."""
    if getattr(args, "profile", False):
        print(render_phase_table(tracer))
    out = getattr(args, "metrics_out", None)
    if out:
        lines = write_jsonl(out, metrics, tracer, extra={"command": command})
        print(f"wrote {lines} events to {out}")

#: Faults injectable from the command line (name -> factory taking a target).
_CLI_FAULTS = {
    "logging": lambda target: _host_fault("LoggingMisconfig", target),
    "cpu": lambda target: _host_fault("HighCPU", target),
    "crash": lambda target: _host_fault("AppCrash", target),
    "shutdown": lambda target: _host_fault("HostShutdown", target),
    "linkloss": lambda target: _link_fault(target),
}


def _host_fault(kind: str, target: str):
    import repro.faults as faults

    return getattr(faults, kind)(target)


def _link_fault(target: str, loss_rate: float = 0.08):
    """A lossy-link fault; the target names an edge as ``a--b``."""
    from repro.faults.network import LinkLoss

    a, sep, b = target.partition("--")
    if not sep or not a or not b:
        raise SystemExit(
            f"linkloss target must name an edge as 'a--b', got {target!r}"
        )
    return LinkLoss([(a, b)], loss_rate=loss_rate)


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.scenarios import three_tier_lab

    metrics, tracer = _obs_context(args)
    scenario = three_tier_lab(seed=args.seed, metrics=metrics)
    if args.fault:
        factory = _CLI_FAULTS.get(args.fault)
        if factory is None:
            print(f"unknown fault {args.fault!r}; choices: {sorted(_CLI_FAULTS)}")
            return 2
        scenario.inject(factory(args.target), at=args.fault_at)
    with tracer.span("simulate", seed=args.seed, duration=args.duration):
        log = scenario.run(0.5, args.duration)
    record_log_metrics(metrics, log, role="capture")
    logger.info("simulated %.1fs -> %d control messages", args.duration, len(log))
    count = save_log(log, args.out)
    print(f"wrote {count} control messages to {args.out}")
    _finish_obs(args, metrics, tracer, "simulate")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    log = _read(args.log, args.format)
    t0, t1 = log.time_span
    print(f"{args.log}: {len(log)} messages over [{t0:.2f}, {t1:.2f}]s")
    print(
        f"  PacketIn={len(log.packet_ins())} FlowMod={len(log.flow_mods())} "
        f"FlowRemoved={len(log.flow_removed())}"
    )
    fd = FlowDiff(_config(args))
    model = fd.model(log, assess=not args.no_stability)
    for key, sig in sorted(model.app_signatures.items()):
        members = ", ".join(sorted(sig.group.members))
        print(f"  group [{members}]")
        print(f"    edges={len(sig.cg.edges)} flows={sig.fs.flow_count}")
        for (kind_key, kind), verdict in sorted(model.stability.items()):
            if kind_key == key and not verdict:
                print(f"    unstable signature: {kind.value}")
    infra = model.infrastructure
    print(
        f"  infrastructure: {len(infra.pt.switch_links)} switch links, "
        f"CRT {infra.crt.mean * 1000:.2f}ms (n={infra.crt.count})"
    )
    return 0


def _cmd_model(args: argparse.Namespace) -> int:
    from repro.core.persist import save_model

    metrics, tracer = _obs_context(args)
    fd = FlowDiff(_config(args), tracer=tracer, metrics=metrics)
    log = _read(args.log, args.format)
    record_log_metrics(metrics, log, role="baseline")
    model = fd.model(log)
    save_model(model, args.out)
    print(
        f"wrote baseline model ({len(model.app_signatures)} group(s), "
        f"window [{model.window[0]:.1f}, {model.window[1]:.1f}]s) to {args.out}"
    )
    _finish_obs(args, metrics, tracer, "model")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    log = _read(args.log, args.format)
    summary = summarize_log(log, top=args.top)
    print(render_summary(summary, name=args.log))
    if args.metrics_out:
        metrics = MetricsRegistry()
        record_log_metrics(metrics, log, role="capture")
        lines = write_jsonl(args.metrics_out, metrics, extra={"command": "stats"})
        print(f"wrote {lines} events to {args.metrics_out}")
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from repro.core.persist import load_model

    metrics, tracer = _obs_context(args)
    fd = FlowDiff(_config(args), tracer=tracer, metrics=metrics)
    if args.baseline_model:
        baseline = load_model(args.baseline)
    else:
        baseline_log = _read(args.baseline, args.format)
        record_log_metrics(metrics, baseline_log, role="baseline")
        baseline = fd.model(baseline_log)
    current_log = _read(args.current, args.format)
    record_log_metrics(metrics, current_log, role="current")
    current = fd.model(current_log, assess=False)
    task_library = None
    if args.tasks:
        from repro.core.tasks.serialize import load_library

        task_library = load_library(args.tasks)
    report = fd.diff(
        baseline, current, task_library=task_library, current_log=current_log
    )
    if args.evidence:
        from repro.core.diff.evidence import attach_evidence

        report = attach_evidence(
            report,
            current_log,
            metrics=metrics if metrics is not NOOP_REGISTRY else None,
        )
    if args.html:
        from repro.core.diff.html import save_html_report

        save_html_report(report, args.html)
        print(f"wrote HTML report to {args.html}")
    if args.json:
        print(report.to_json())
    elif not args.html:
        print(report.render())
    _finish_obs(args, metrics, tracer, "diff")
    return 0 if report.healthy else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.flightrec import FlightRecorder

    log = _read(args.log, args.format)
    recorder = FlightRecorder.from_log(log, occurrence_gap=args.gap)
    # The first filter given narrows the recorder's unbuilt chains; what
    # is left to filter after it is at most what gets shown.
    timelines = recorder.timelines
    if args.corr is not None:
        match = recorder.timeline(args.corr)
        timelines = [match] if match is not None else []
    elif args.flow:
        timelines = recorder.for_flow(args.flow)
    elif args.incomplete:
        timelines = recorder.incomplete()
    if args.flow:
        timelines = [
            t for t in timelines if t.flow is not None and args.flow in str(t.flow)
        ]
    if args.incomplete:
        timelines = [t for t in timelines if not t.complete]
    if args.json:
        print(json.dumps([t.to_dict() for t in timelines], indent=2))
    else:
        for timeline in timelines:
            print(timeline.render())
            print()
        s = recorder.summary()
        print(
            f"{len(timelines)} of {s['flows']} flow(s) shown; "
            f"{s['complete']} complete, {s['incomplete']} incomplete, "
            f"{s['synthetic']} heuristic, {s['reordered']} reordered"
        )
    filtered = args.corr is not None or args.flow or args.incomplete
    return 1 if filtered and not timelines else 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    from repro.core.monitor import SlidingDiagnoser
    from repro.obs.alerts import AlertEngine, default_rules

    metrics, tracer = _obs_context(args)
    log = _read(args.log, args.format)
    engine = AlertEngine(
        default_rules(
            consecutive_critical=args.escalate_after, cooldown=args.cooldown
        ),
        metrics=metrics,
    )
    diagnoser = SlidingDiagnoser(
        _config(args),
        window=args.window,
        metrics=metrics,
        tracer=tracer,
        alert_engine=engine,
    )
    t0, _ = log.time_span
    baseline = args.baseline if args.baseline is not None else args.window
    diagnoser.set_baseline(log, t0, t0 + baseline)
    diagnoser.advance(log)
    if args.alerts_out:
        count = engine.write_jsonl(args.alerts_out)
        print(f"wrote {count} alert(s) to {args.alerts_out}")
    if args.json:
        print(json.dumps([a.to_dict() for a in engine.alerts], indent=2))
    else:
        for alert in engine.alerts:
            print(f"[{alert.severity}] t={alert.timestamp:g}s {alert.rule}: {alert.message}")
        healthy = sum(1 for entry in diagnoser.history if entry.healthy)
        print(
            f"{len(diagnoser.history)} window(s) diagnosed ({healthy} healthy), "
            f"{len(engine.alerts)} alert(s) fired, {engine.suppressed} suppressed"
        )
    _finish_obs(args, metrics, tracer, "monitor")
    return 1 if engine.alerts else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import time as _time

    from repro.obs.httpd import ObsHTTPServer
    from repro.service import FileTailSource, ServiceState, StreamService

    tenants: List[Tuple[str, str]] = []
    for part in args.tenants.split(","):
        name, sep, path = part.partition("=")
        if not sep or not name or not path:
            raise SystemExit(
                f"--tenants entries must be name=capture.jsonl, got {part!r}"
            )
        tenants.append((name, path))
    for name, path in tenants:
        # A tail thread that cannot open its file dies with a traceback
        # the exit code never sees; refuse before anything is started.
        try:
            with open(path, "rb"):
                pass
        except OSError as exc:
            print(
                f"repro serve: tenant {name!r}: cannot open {path}: {exc.strerror}",
                file=sys.stderr,
            )
            return 2
    host, sep, port_text = args.listen.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        port = -1
    if not sep or not host or port < 0:
        raise SystemExit(f"--listen must be host:port, got {args.listen!r}")

    service = StreamService(
        _config(args),
        window=args.window,
        baseline_span=args.baseline,
        checkpoint_dir=args.checkpoint_dir,
        max_pending=args.max_pending,
        rebaseline_after=args.rebaseline_after,
    )
    for name, _path in tenants:
        service.add_tenant(name)
    state = ServiceState(service)
    server = ObsHTTPServer(state, host=host, port=port)
    server.start()
    print(f"serving streaming diagnosis endpoint at {server.url('/healthz')}")
    service.start()
    sources = [
        FileTailSource(service, name, path, follow=args.follow)
        for name, path in tenants
    ]
    for source in sources:
        source.start()
    try:
        if args.follow:
            # A live tail has no natural end; serve until told to stop.
            _time.sleep(args.serve_for if args.serve_for is not None else 86400.0)
        else:
            for source in sources:
                source.join()
            service.drain()
            if args.serve_for is not None:
                _time.sleep(args.serve_for)
    except KeyboardInterrupt:
        pass
    finally:
        for source in sources:
            source.stop()
        # A tail hands off its last partial batch as it exits; joined
        # first, that batch lands before the drain thread takes its stop.
        # A tail still running is reported instead: stopping the service
        # under it could lose that batch.
        stuck = [source.tenant for source in sources if not source.join(timeout=30.0)]
        if stuck:
            print(
                f"repro serve: tail(s) {', '.join(stuck)} still running 30 s after "
                "stop; the service was not stopped under them",
                file=sys.stderr,
            )
        else:
            service.stop()
        for name, view in service.views().items():
            row = view.summary
            print(
                f"tenant {name}: {row['windows']} windows "
                f"{row['statuses']}, {row['alerts']} alert(s), "
                f"worst={row['worst_severity']}"
            )
        if args.report_out:
            payload = {
                "healthz": state.health(),
                "alerts": state.alerts_json(),
            }
            with open(args.report_out, "w", encoding="utf-8") as fh:
                json.dump(payload, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote service report to {args.report_out}")
        server.stop()
    return 1 if stuck else 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import repro
    import repro.qa as qa

    paths = args.paths or [os.path.dirname(repro.__file__)]
    project = qa.Project.load(paths)
    engine = qa.LintEngine(qa.default_rules())
    result = engine.run(project)
    if args.format == "json":
        sys.stdout.write(qa.render_json(result))
    else:
        sys.stdout.write(qa.render_text(result))
    return 0 if result.ok else 1


def _config(args: argparse.Namespace) -> FlowDiffConfig:
    special = tuple(args.special_nodes.split(",")) if args.special_nodes else ()
    return FlowDiffConfig(signature=SignatureConfig(special_nodes=special))


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    """The shared observability surface of simulate/model/diff."""
    sub_parser.add_argument(
        "--profile",
        action="store_true",
        help="run instrumented and print a per-phase timing table",
    )
    sub_parser.add_argument(
        "--metrics-out",
        metavar="FILE.jsonl",
        help="export metrics (and trace spans) as JSON lines to this path",
    )


class _PositiveSeconds(argparse.Action):
    """``--window`` / ``--baseline``: a span of stream time.

    A non-positive one is one stderr line and exit 2, before anything is
    read: a zero window has no bounds, and a negative baseline learns an
    empty model that alarms on every window.
    """

    def __call__(
        self,
        parser: argparse.ArgumentParser,
        namespace: argparse.Namespace,
        values: Any,
        option_string: Optional[str] = None,
    ) -> None:
        if not values > 0:
            parser.exit(
                2, f"{parser.prog}: {option_string} must be positive, got {values:g}\n"
            )
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FlowDiff: diagnose data center behavior flow by flow",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="raise logging verbosity (-v INFO, -vv DEBUG) for all modules",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run the lab scenario, store its log")
    sim.add_argument("--out", required=True, help="output capture path (.jsonl)")
    sim.add_argument("--duration", type=float, default=30.0)
    sim.add_argument("--seed", type=int, default=3)
    sim.add_argument("--fault", help=f"inject a fault: {sorted(_CLI_FAULTS)}")
    sim.add_argument("--target", default="S3", help="fault target host")
    sim.add_argument(
        "--fault-at",
        type=float,
        default=0.0,
        help="simulation time at which the fault is injected (default 0 = "
        "faulty from the start; set mid-run to capture a healthy prefix)",
    )
    _add_obs_flags(sim)
    sim.set_defaults(fn=_cmd_simulate)

    stats = sub.add_parser(
        "stats",
        help="summarize a capture's control-message mix without modeling it",
    )
    stats.add_argument("log")
    stats.add_argument(
        "--top", type=int, default=5, help="how many talkers/switches to list"
    )
    stats.add_argument(
        "--metrics-out",
        metavar="FILE.jsonl",
        help="also export the message-mix counters as JSON lines",
    )
    stats.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    stats.set_defaults(fn=_cmd_stats)

    insp = sub.add_parser("inspect", help="summarize a stored capture")
    insp.add_argument("log")
    insp.add_argument("--special-nodes", default="", help="comma-separated service hosts")
    insp.add_argument("--no-stability", action="store_true")
    insp.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    insp.set_defaults(fn=_cmd_inspect)

    mdl = sub.add_parser("model", help="precompute and store a baseline model")
    mdl.add_argument("log", help="capture to model")
    mdl.add_argument("--out", required=True, help="output model path (.json)")
    mdl.add_argument("--special-nodes", default="", help="comma-separated service hosts")
    mdl.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    _add_obs_flags(mdl)
    mdl.set_defaults(fn=_cmd_model)

    diff = sub.add_parser("diff", help="diff two captures (L1 baseline, L2 current)")
    diff.add_argument("baseline", help="baseline capture, or a stored model with --baseline-model")
    diff.add_argument("current")
    diff.add_argument(
        "--baseline-model",
        action="store_true",
        help="treat BASELINE as a stored model file rather than a capture",
    )
    diff.add_argument("--special-nodes", default="", help="comma-separated service hosts")
    diff.add_argument(
        "--evidence",
        action="store_true",
        help="attach flight-recorder causal chains to the top suspects",
    )
    diff.add_argument("--json", action="store_true", help="emit the report as JSON")
    diff.add_argument("--html", help="also write a standalone HTML report to this path")
    diff.add_argument(
        "--tasks",
        help="stored task library (JSON) used to explain planned changes",
    )
    diff.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    _add_obs_flags(diff)
    diff.set_defaults(fn=_cmd_diff)

    trace = sub.add_parser(
        "trace", help="reconstruct per-flow causal timelines from a capture"
    )
    trace.add_argument("log")
    trace.add_argument(
        "--flow",
        help="only flows whose 5-tuple rendering contains this substring "
        "(a host name, ':80', '->S8', ...)",
    )
    trace.add_argument(
        "--corr", type=int, help="only the flow with this correlation id"
    )
    trace.add_argument(
        "--incomplete",
        action="store_true",
        help="only chains with missing stages (the broken flows)",
    )
    trace.add_argument(
        "--gap",
        type=float,
        default=10.0,
        help="occurrence gap (s) for heuristic grouping of id-less captures",
    )
    trace.add_argument("--json", action="store_true", help="emit timelines as JSON")
    trace.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    trace.set_defaults(fn=_cmd_trace)

    mon = sub.add_parser(
        "monitor",
        help="replay a capture through the sliding diagnoser + alert engine",
    )
    mon.add_argument("log")
    mon.add_argument(
        "--window",
        type=float,
        action=_PositiveSeconds,
        default=30.0,
        help="seconds diagnosed per step",
    )
    mon.add_argument(
        "--baseline",
        type=float,
        action=_PositiveSeconds,
        help="seconds of leading log modeled as the healthy baseline "
        "(default: one window)",
    )
    mon.add_argument(
        "--alerts-out",
        metavar="FILE.jsonl",
        help="write fired alerts as JSON lines to this path",
    )
    mon.add_argument(
        "--cooldown",
        type=float,
        default=0.0,
        help="stream-time seconds a (rule, labels) pair stays silent after firing",
    )
    mon.add_argument(
        "--escalate-after",
        type=int,
        default=3,
        help="consecutive unhealthy windows before the CRITICAL escalation",
    )
    mon.add_argument("--special-nodes", default="", help="comma-separated service hosts")
    mon.add_argument("--json", action="store_true", help="emit alerts as JSON")
    mon.add_argument(
        "--format",
        choices=("native", "ryu"),
        default="native",
        help="capture format: native JSONL or a Ryu event dump",
    )
    _add_obs_flags(mon)
    mon.set_defaults(fn=_cmd_monitor)

    srv = sub.add_parser(
        "serve",
        help="run the always-on streaming diagnosis daemon over captures",
    )
    srv.add_argument(
        "--tenants",
        required=True,
        metavar="NAME=FILE[,NAME=FILE...]",
        help="comma-separated tenant streams, each a name=capture.jsonl pair",
    )
    srv.add_argument(
        "--window",
        type=float,
        action=_PositiveSeconds,
        default=10.0,
        help="diagnosis window length in stream seconds",
    )
    srv.add_argument(
        "--baseline",
        type=float,
        action=_PositiveSeconds,
        metavar="SECONDS",
        help="baseline learning span (default: one window)",
    )
    srv.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="checkpoint each closed window into DIR so a restart resumes "
        "at the last closed window instead of remodeling from scratch",
    )
    srv.add_argument(
        "--listen",
        default="127.0.0.1:0",
        metavar="HOST:PORT",
        help="ops endpoint address (port 0 = ephemeral, printed at start)",
    )
    srv.add_argument(
        "--follow",
        action="store_true",
        help="keep tailing the capture files for appended messages",
    )
    srv.add_argument(
        "--serve-for",
        type=float,
        metavar="SECONDS",
        help="after the captures drain, keep serving HTTP this long",
    )
    srv.add_argument(
        "--max-pending",
        type=int,
        default=64,
        help="ingest queue bound in batches; full queue pushes back on "
        "feeders (or drops, with accounting, for non-blocking feeds)",
    )
    srv.add_argument(
        "--rebaseline-after",
        type=int,
        default=0,
        help="healthy-window streak that re-learns the baseline (0 = never)",
    )
    srv.add_argument(
        "--report-out",
        metavar="FILE.json",
        help="write the final health + alerts report as JSON to this path",
    )
    srv.add_argument(
        "--special-nodes", default="", help="comma-separated service hosts"
    )
    srv.set_defaults(fn=_cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run flowlint, the domain-invariant static analysis pass",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed repro "
        "package source)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format: human-readable text or the CI JSON artifact",
    )
    lint.set_defaults(fn=_cmd_lint)
    return parser


def _configure_logging(verbosity: int) -> None:
    """Set the root logging level once for every ``repro.*`` module.

    Replaces ad-hoc per-module setup: modules only ever call
    ``logging.getLogger(__name__)`` and this single switch decides what
    surfaces. Safe to call repeatedly (tests invoke ``main`` many times).
    """
    if verbosity >= 2:
        level = logging.DEBUG
    elif verbosity == 1:
        level = logging.INFO
    else:
        level = logging.WARNING
    root = logging.getLogger()
    if root.handlers:
        root.setLevel(level)
    else:
        logging.basicConfig(
            level=level, format="%(levelname)s %(name)s: %(message)s"
        )


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args.verbose)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
