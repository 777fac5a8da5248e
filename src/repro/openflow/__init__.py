"""OpenFlow control-plane substrate.

FlowDiff's only measurement input is the stream of control messages between
programmable switches and a logically centralized controller (Section III-A
of the paper). This package implements that substrate from scratch:

* :mod:`repro.openflow.match` -- flow keys (5-tuples) and match structures,
  including wildcard matches and the IP-masking used by task signatures.
* :mod:`repro.openflow.messages` -- the control messages FlowDiff consumes:
  ``PacketIn``, ``PacketOut``, ``FlowMod``, and ``FlowRemoved``, plus port
  status and stats replies for completeness.
* :mod:`repro.openflow.flowtable` -- flow tables with priorities and
  soft (idle) / hard timeouts, the two knobs the paper highlights for
  trading measurement granularity against control-channel load.
* :mod:`repro.openflow.switch` -- a programmable switch: table lookup,
  miss detection, counter updates, expiry.
* :mod:`repro.openflow.controller` -- a reactive controller in the style of
  NOX's routing module, with a configurable response-time model, that
  records every control message into a :class:`~repro.openflow.log.ControllerLog`.
* :mod:`repro.openflow.log` -- the timestamped controller log plus
  windowing/filtering helpers; this is the artifact FlowDiff diffs.
"""
