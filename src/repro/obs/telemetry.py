"""An inert stand-in for the deleted data-plane telemetry plane.

FlowDiff's only input is the controller log, so nothing in the package
samples the simulated data plane any more. ``bench/`` still imports
these two names and passes a plane to ``Network(telemetry=...)``, which
accepts and ignores it; no other module imports this one.
"""


class TelemetryPlane:
    """Accepted and ignored; kept only for ``bench/``."""


NOOP_TELEMETRY = TelemetryPlane()
