"""Behavioral signatures (Sections III-B and III-C).

Application signatures, built per application group:

* :class:`~repro.core.signatures.connectivity.ConnectivityGraph` (CG) —
  who talks to whom (space dimension).
* :class:`~repro.core.signatures.flowstats.FlowStats` (FS) — durations,
  byte/packet counts, flow rates (volume dimension).
* :class:`~repro.core.signatures.interaction.ComponentInteraction` (CI) —
  normalized per-edge flow counts at each node (space dimension).
* :class:`~repro.core.signatures.delay.DelayDistribution` (DD) — peaks of
  inter-flow delay histograms at each node (time dimension).
* :class:`~repro.core.signatures.correlation.PartialCorrelation` (PC) —
  dependency strength between adjacent edges (time/volume dimension).

Infrastructure signatures, built data-center-wide:

* :class:`~repro.core.signatures.infrastructure.PhysicalTopology` (PT),
* :class:`~repro.core.signatures.infrastructure.InterSwitchLatency` (ISL),
* :class:`~repro.core.signatures.infrastructure.ControllerResponseTime` (CRT).
"""

from repro.core.signatures.base import ChangeRecord, Signature, SignatureKind
from repro.core.signatures.connectivity import ConnectivityGraph
from repro.core.signatures.flowstats import FlowStats
from repro.core.signatures.interaction import ComponentInteraction
from repro.core.signatures.delay import DelayDistribution
from repro.core.signatures.correlation import PartialCorrelation
from repro.core.signatures.application import (
    ApplicationSignature,
    SignatureConfig,
    build_application_signatures,
)
from repro.core.signatures.infrastructure import (
    ControllerResponseTime,
    InfrastructureSignature,
    InterSwitchLatency,
    PhysicalTopology,
    build_infrastructure_signature,
)

__all__ = [
    "ChangeRecord",
    "Signature",
    "SignatureKind",
    "ConnectivityGraph",
    "FlowStats",
    "ComponentInteraction",
    "DelayDistribution",
    "PartialCorrelation",
    "ApplicationSignature",
    "SignatureConfig",
    "build_application_signatures",
    "ControllerResponseTime",
    "InfrastructureSignature",
    "InterSwitchLatency",
    "PhysicalTopology",
    "build_infrastructure_signature",
]
