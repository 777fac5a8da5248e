"""The streaming FlowDiff service: always-on incremental diagnosis.

The batch pipeline answers "what changed between these two captures?";
this package answers it continuously. A long-running daemon ingests
control messages as they arrive, extracts each tenant's open diagnosis
window's flow arrivals *incrementally* (closing a window is a join plus
one signature build, through the batch builder), diffs every closed
window against the learned baseline, and serves reports, alerts,
flight-recorder traces, and health over the read-only ops endpoint —
with checkpoint/restore so a restart resumes at the last closed window.

Layers, bottom up:

* :mod:`repro.service.incremental` — one open window stitching messages
  into flow arrivals slice by slice (the incremental data path);
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
