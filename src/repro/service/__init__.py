"""The streaming FlowDiff service: always-on windowed diagnosis.

The batch pipeline answers "what changed between these two captures?";
this package answers it continuously. A long-running daemon ingests
control messages as they arrive, buffers each tenant's open diagnosis
window, and when the stream passes the window's end extracts and models
that window in one pass through the batch code (the same window the
batch monitor would model, to the dict). It diffs every closed window
against the learned baseline and serves reports, alerts,
flight-recorder traces, and health over the read-only ops endpoint —
with checkpoint/restore so a restart resumes at the last closed window.

Layers, bottom up:

* :mod:`repro.service.incremental` — one open window: an ordered buffer
  that notes whether it arrived clean, modelled when it closes;
* :mod:`repro.service.tenant` — per-tenant lifecycle: baseline learning,
  window turnover, diagnosis, checkpointing, bounded memory;
* :mod:`repro.service.daemon` — the multi-tenant process: bounded ingest
  queue with backpressure/drop accounting, drain thread, file tail;
* :mod:`repro.service.http` — ``/tenants``, ``/diff``, ``/alerts``,
  ``/traces`` plus extended ``/healthz`` on :mod:`repro.obs.httpd`.
"""

from repro.service.daemon import FileTailSource, StreamService, replay_messages
from repro.service.http import ServiceState, create_server
from repro.service.incremental import (
    STATUS_FALLBACK,
    STATUS_MERGED,
    STATUS_REBUILT,
    IncrementalWindow,
    WindowOutcome,
)
from repro.service.tenant import TenantPipeline

__all__ = [
    "FileTailSource",
    "IncrementalWindow",
    "ServiceState",
    "StreamService",
    "TenantPipeline",
    "WindowOutcome",
    "STATUS_FALLBACK",
    "STATUS_MERGED",
    "STATUS_REBUILT",
    "create_server",
    "replay_messages",
]
