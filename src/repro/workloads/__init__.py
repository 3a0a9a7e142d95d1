"""Workloads and load injection.

* :mod:`repro.workloads.demand` — client-demand specifications;
* :mod:`repro.workloads.loadgen` — the §5.1 load-injection protocol
  (one closed-loop client per second until throughput stops improving).
"""

from repro.workloads.demand import ClientDemand
from repro.workloads.loadgen import ClientRamp, RampResult

__all__ = ["ClientDemand", "ClientRamp", "RampResult"]
