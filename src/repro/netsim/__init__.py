"""Discrete-event, flow-level data center network simulator.

This substrate stands in for the paper's NEC lab testbed and 320-server
simulation: it binds programmable switches (:mod:`repro.openflow`) and a
reactive controller to a physical topology, forwards flows hop by hop, and
produces the controller log FlowDiff consumes.

* :mod:`repro.netsim.engine` -- the event queue and clock.
* :mod:`repro.netsim.topology` -- graph model and builders for the paper's
  topologies (lab testbed, 320-server tree, fat-tree).
* :mod:`repro.netsim.links` -- link latency/bandwidth/loss with a simple
  utilization-driven queueing-delay model (congestion).
* :mod:`repro.netsim.transport` -- per-flow loss and retransmission
  effects: byte-count inflation and delay inflation, the mechanics behind
  Figure 9.
* :mod:`repro.netsim.network` -- the network itself: switch/controller
  orchestration, reactive rule installation, timeout-driven FlowRemoved
  emission, and the host-facing ``send_flow`` API.
"""
