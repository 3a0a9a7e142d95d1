"""Aggregate (fluid) client populations advanced between event boundaries.

The discrete-event engine tops out around 0.4–2M events/s, so a
million-client closed-loop population cannot be simulated per message —
each client generates several engine events per request.  This module is
the other half of the hybrid workload model: the *bulk* of a large
population is carried as a deterministic fluid mass whose served
throughput is integrated analytically over each control window, while a
small sampled cohort stays fully discrete inside the engine (so latency,
reply routing, faults/detection and migration semantics remain
observable).  The split itself lives in
:class:`repro.control.traces.HybridTrace`; this module only integrates.

**Model.**  The closed-network bound the paper's planner is built on
(§5.1: one request in flight per client) says a population of ``N``
clients, each achieving ``unit_rate`` requests/s unsaturated, is served
at ``min(N * unit_rate, capacity)``.  :meth:`FluidPopulation.advance`
integrates exactly that expression over a window, sampling the fluid
level at ``substeps`` left-endpoint points — a piecewise-constant
quadrature that is exact for the step-shaped traces the fixture library
ships and a first-order approximation for smooth ones.  ``unit_rate``
is calibrated online by the control loop from the discrete cohort's
measured per-client rate, so the fluid mass and the sampled clients can
never drift onto different demand models.

**Determinism.**  Everything here is pure arithmetic over ``(window,
level function, unit_rate, capacity)`` — no RNG, no wall clock, no
engine events — so hybrid timelines keep the determinism contract of
:mod:`repro.workloads.loadgen` bit-for-bit.  The per-substep rates are
reduced with :func:`math.fsum` (a pairwise or running sum would round
differently), so the served mass does not depend on summation order.

Integer completions are attributed by **floor-carry**: the population
keeps one cumulative served mass and each window reports
``floor(cum_after) - floor(cum_before)`` completions, so per-window
integers always sum to the floor of the total mass — no window ever
double-counts or drops a request no matter how the run is windowed.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from repro.errors import SimulationError

__all__ = ["FluidWindow", "FluidPopulation"]


@dataclass(frozen=True)
class FluidWindow:
    """What the fluid mass did during one control window.

    Attributes
    ----------
    start, end:
        Window bounds in simulation time.
    offered_mean:
        Mean fluid client mass over the window (substep average).
    served:
        Whole completions attributed to this window (floor-carry over
        the population's cumulative mass — see module docstring).
    served_mass:
        Exact (fractional) served mass of this window.
    served_rate:
        ``served_mass / (end - start)`` — requests/s.
    demand_rate:
        Uncapped demand (``mean level * unit_rate``); ``served_rate``
        saturates at the capacity it was integrated against, so
        ``demand_rate > served_rate`` means the fluid mass was
        capacity-limited somewhere in the window.
    """

    start: float
    end: float
    offered_mean: float
    served: int
    served_mass: float
    served_rate: float
    demand_rate: float

    @property
    def utilization(self) -> float:
        """Served fraction of demand (1.0 when nothing was demanded)."""
        if self.demand_rate <= 0.0:
            return 1.0
        return min(1.0, self.served_rate / self.demand_rate)


class FluidPopulation:
    """Deterministic integrator for an aggregate client mass.

    One instance per controller run; it owns the cumulative served mass
    the floor-carry attribution needs.  ``substeps`` controls the
    quadrature resolution inside each window (left-endpoint sampling).
    """

    def __init__(self, substeps: int = 8):
        if substeps < 1:
            raise SimulationError(
                f"substeps must be >= 1, got {substeps}"
            )
        self.substeps = substeps
        self._cumulative = 0.0
        self._attributed = 0

    @property
    def total_served(self) -> int:
        """Whole completions attributed so far (sum of window ``served``)."""
        return self._attributed

    def advance(
        self,
        start: float,
        end: float,
        level_fn: Callable[[float], float],
        unit_rate: float,
        capacity: float,
    ) -> FluidWindow:
        """Integrate the fluid served mass over ``[start, end)``.

        ``level_fn(t)`` is the fluid client mass at ``t`` (typically
        :meth:`repro.control.traces.HybridTrace.fluid_level`);
        ``unit_rate`` the calibrated per-client rate; ``capacity`` the
        throughput ceiling the mass may draw (the model capacity left
        over after the discrete cohort).  Negative inputs clamp to 0 —
        an uncalibrated first window serves nothing rather than failing.
        """
        if end <= start:
            raise SimulationError(
                f"bad fluid window: ({start}, {end})"
            )
        unit_rate = max(0.0, unit_rate)
        capacity = max(0.0, capacity)
        dt = (end - start) / self.substeps
        levels = [
            max(0.0, float(level_fn(start + i * dt)))
            for i in range(self.substeps)
        ]
        rates = [min(level * unit_rate, capacity) for level in levels]
        served_mass = math.fsum(rate * dt for rate in rates)
        demand_mass = math.fsum(level * unit_rate * dt for level in levels)
        before = self._cumulative
        self._cumulative = before + served_mass
        served = int(math.floor(self._cumulative)) - int(math.floor(before))
        self._attributed += served
        duration = end - start
        return FluidWindow(
            start=start,
            end=end,
            offered_mean=math.fsum(levels) / self.substeps,
            served=served,
            served_mass=served_mass,
            served_rate=served_mass / duration,
            demand_rate=demand_mass / duration,
        )
