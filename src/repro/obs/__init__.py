"""``repro.obs`` — observability for the reproduction itself.

FlowDiff diagnoses a data center by passively watching its control plane;
this package applies the same discipline to our own stack. It is
dependency-free and designed so that the *default* (uninstrumented) path
costs nothing measurable:

* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms in
  a :class:`MetricsRegistry`; :data:`NOOP_REGISTRY` is the universal
  do-nothing default.
* :mod:`repro.obs.tracing` — nestable wall-clock/sim-clock spans;
  :data:`NOOP_TRACER` likewise.
* :mod:`repro.obs.export` — JSONL event streams and Prometheus text
  exposition of a registry (plus round-trip readers).
* :mod:`repro.obs.stats` — one-pass controller-log summaries (message
  mix, rates, top talkers) behind ``repro stats``.
* :mod:`repro.obs.profile` — span trees rendered as the ``--profile``
  phase table.
* :mod:`repro.obs.flightrec` — the per-flow causal flight recorder:
  reconstructs PacketIn -> FlowMod -> ... -> FlowRemoved timelines from a
  capture via correlation ids (heuristic 5-tuple grouping as fallback).
* :mod:`repro.obs.alerts` — streaming alert rules (threshold, EWMA drift,
  consecutive unhealthy windows, problem class) and the deduping
  :class:`AlertEngine` behind ``repro monitor``.
* :mod:`repro.obs.httpd` — the read-only ops HTTP endpoint
  (``/healthz``, ``/metrics``, ``/alerts``).

Every surface here reads the controller log or the reproduction's own
instruments; nothing samples the simulated data plane, which no real
capture carries.

Typical instrumented run::

    from repro.obs.export import write_jsonl
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.profile import render_phase_table
    from repro.obs.tracing import Tracer

    metrics = MetricsRegistry()
    tracer = Tracer()
    fd = FlowDiff(config, metrics=metrics, tracer=tracer)
    report = fd.diff(fd.model(l1), fd.model(l2))
    print(render_phase_table(tracer))
    write_jsonl("metrics.jsonl", metrics, tracer)
"""
