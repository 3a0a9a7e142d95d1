"""Discrete-event simulation substrate.

This package replaces the paper's Grid'5000 testbed.  It provides a
deterministic, seeded event-heap simulator (:mod:`repro.sim.engine`), the
M(r,s,w) single-port serial resource model of [Chouhan, PhD 2006] used by
the paper (:mod:`repro.sim.resources`), and measurement utilities
(:mod:`repro.sim.stats`, :mod:`repro.sim.trace`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.fluid import FluidPopulation, FluidWindow
from repro.sim.resources import SerialResource
from repro.sim.stats import IntervalCounter
from repro.sim.trace import TraceRecorder

__all__ = [
    "Event",
    "Simulator",
    "FluidPopulation",
    "FluidWindow",
    "SerialResource",
    "IntervalCounter",
    "TraceRecorder",
]
