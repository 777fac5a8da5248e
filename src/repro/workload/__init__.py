"""Workload generation: arrival processes, traffic patterns, trace synthesis.

* :mod:`repro.workload.arrivals` -- Poisson and ON/OFF-lognormal
  inter-arrival processes (the latter per Benson et al.'s data center
  measurement study, used by the paper's scalability simulation).
* :mod:`repro.workload.traffic` -- the Section V-C simulation workload:
  randomly generated three-tier applications placed on the 320-server tree
  with all-pairs inter-tier ON/OFF traffic and 0.6 connection reuse.
* :mod:`repro.workload.traces` -- synthetic VM lifecycle traces (startup,
  stop, migration, NFS mount/unmount) with run-to-run variation, standing
  in for the paper's EC2 tcpdump captures (Table III).
"""
