"""Data center application models.

The paper's testbed runs multi-tier web applications (Petstore, RuBiS,
RUBBoS, osCommerce, plus a custom app with controllable logic); this
package models them at flow level:

* :mod:`repro.apps.servers` -- per-server processing-delay behaviour with
  fault hooks (logging overhead, CPU contention, crash).
* :mod:`repro.apps.multitier` -- the multi-tier request pipeline: a client
  request enters the front tier and cascades tier by tier, each hop a
  network flow, with per-tier connection reuse and load balancing.
* :mod:`repro.apps.services` -- special-purpose data center services
  (DNS, NFS, NTP, DHCP) that multiple application groups share and that
  FlowDiff's grouping must not conflate.
* :mod:`repro.apps.client` -- workload clients driving requests from an
  arrival process.
"""
