"""Experiment drivers: run deployments under load, measure throughput.

Two measurement modes mirror the paper's §5 methodology:

* :func:`run_fixed_load` — N closed-loop clients, steady-state rate after
  a warm-up (one point of a load curve);
* :func:`measure_load_curve` — a sweep over client counts, producing the
  "requests/second vs. number of clients" curves of Figures 2, 4, 6, 7.

The full ramp-until-plateau-then-hold protocol is
:class:`~repro.workloads.loadgen.ClientRamp`.

Every run is seeded and deterministic.  Simulated durations default to
tens of seconds rather than the paper's tens of minutes: the DES has no
measurement noise to average away, only queue transients, and the warm-up
already absorbs those.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.errors import SimulationError
from repro.middleware.client import ClosedLoopClient
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator

__all__ = [
    "ExperimentResult",
    "LoadCurve",
    "run_fixed_load",
    "measure_load_curve",
]


@dataclass(frozen=True)
class ExperimentResult:
    """Steady-state measurement of one deployment under one load level."""

    clients: int
    throughput: float
    mean_latency: float
    mean_scheduling_latency: float
    utilizations: Mapping[str, float] = field(repr=False)
    service_counts: Mapping[str, int] = field(repr=False)
    completed: int = 0

    @property
    def bottleneck_node(self) -> str:
        return max(self.utilizations, key=lambda k: self.utilizations[k])

    @property
    def bottleneck_utilization(self) -> float:
        return self.utilizations[self.bottleneck_node]


@dataclass(frozen=True)
class LoadCurve:
    """A measured "requests/s vs. clients" curve for one deployment."""

    label: str
    clients: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)

    @property
    def peak_rate(self) -> float:
        return float(self.rates.max()) if self.rates.size else 0.0


def _as_hierarchy(deployment: Hierarchy | object) -> Hierarchy:
    """Accept a bare :class:`Hierarchy` or any planning result carrying one.

    Lets :class:`repro.core.registry.Deployment` (and the per-planner
    result objects like ``HeuristicPlan``) flow straight from
    :meth:`repro.api.PlanningSession.plan` into the measurement harness
    without unwrapping at every call site.
    """
    if isinstance(deployment, Hierarchy):
        return deployment
    hierarchy = getattr(deployment, "hierarchy", None)
    if isinstance(hierarchy, Hierarchy):
        return hierarchy
    raise SimulationError(
        f"expected a Hierarchy or an object with a .hierarchy, "
        f"got {type(deployment).__name__}"
    )


#: Seconds between client starts, so the population does not arrive as
#: one synchronized herd at t=0.
CLIENT_STAGGER = 0.01

#: Share of a fixed-load run discarded as warm-up before measuring.
WARMUP_FRACTION = 0.4


def run_fixed_load(
    hierarchy: Hierarchy,
    params: ModelParams,
    app_work: float | Mapping[str, float],
    clients: int,
    duration: float = 20.0,
    seed: int = 0,
) -> ExperimentResult:
    """Measure steady-state throughput with a fixed client population.

    Clients start :data:`CLIENT_STAGGER` seconds apart, the first
    :data:`WARMUP_FRACTION` of the run is discarded, and the rate is
    measured over the remainder.
    """
    if clients < 1:
        raise SimulationError(f"clients must be >= 1, got {clients}")
    if duration <= 0.0:
        raise SimulationError(f"duration must be > 0, got {duration}")
    sim = Simulator()
    system = MiddlewareSystem(
        sim, _as_hierarchy(hierarchy), params, app_work, seed=seed
    )
    pool = [
        ClosedLoopClient(system, f"client-{i:04d}") for i in range(clients)
    ]
    for index, client in enumerate(pool):
        sim.schedule(index * CLIENT_STAGGER, client.start)
    sim.run_until(duration)
    warmup_end = duration * WARMUP_FRACTION
    rate = system.completions.rate(warmup_end, duration)
    finished = [
        r
        for r in system._requests.values()
        if r.is_complete and r.completed_at is not None
        and r.completed_at > warmup_end
    ]
    latencies = [r.total_latency for r in finished if r.total_latency]
    sched_latencies = [
        r.scheduling_latency for r in finished if r.scheduling_latency
    ]
    return ExperimentResult(
        clients=clients,
        throughput=float(rate),
        mean_latency=float(np.mean(latencies)) if latencies else 0.0,
        mean_scheduling_latency=(
            float(np.mean(sched_latencies)) if sched_latencies else 0.0
        ),
        utilizations=system.utilization_report(),
        service_counts=system.service_counts(),
        completed=system.total_completed(),
    )


def measure_load_curve(
    hierarchy: Hierarchy,
    params: ModelParams,
    app_work: float | Mapping[str, float],
    client_counts: Sequence[int],
    label: str = "",
    duration: float = 15.0,
    seed: int = 0,
) -> LoadCurve:
    """Sweep client counts; one fresh simulation per load level.

    Fresh simulations keep levels independent (no hysteresis from earlier
    load), matching how the paper reports throughput per load level.
    """
    if not client_counts:
        raise SimulationError("client_counts must not be empty")
    rates = []
    for count in client_counts:
        result = run_fixed_load(
            hierarchy,
            params,
            app_work,
            clients=int(count),
            duration=duration,
            seed=seed,
        )
        rates.append(result.throughput)
    return LoadCurve(
        label=label,
        clients=np.asarray(list(client_counts), dtype=int),
        rates=np.asarray(rates, dtype=float),
    )
