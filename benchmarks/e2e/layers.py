"""Per-layer spans, counters and self-time shares, taken from outside.

A :class:`Tracer` wraps the public entry point of each layer: class
attributes, or the names ``repro.control.loop`` binds for functions it
imports by name.  Each call records a span (family, start, end, parent
span, op id) in memory.  Leaving the tracer restores every original
attribute.  Nothing under ``src/`` is changed.

The op id of a span is the end-to-end op it falls in: the request index
on ``plan_sweep``, and on the control workloads the epoch segment that
ends at the next ``SLOMonitor.observe`` return.
"""

from __future__ import annotations

import cProfile
import json
import pstats
from collections import defaultdict
from time import perf_counter

import repro.control.loop as control_loop
from repro.api import PlanningSession
from repro.control.policy import ReactivePolicy
from repro.control.protocol import InProcessExecutor, ProcessExecutor
from repro.control.registry import DeploymentRegistry
from repro.core.heuristic import HeuristicPlanner
from repro.core.kernels import HierarchyEvaluator
from repro.core.registry import PlannerRegistry
from repro.faults import FaultInjector
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidPopulation
from repro.sim.resources import SerialResource

#: (span family, owner, attribute) of every wrapped entry point.  All
#: control workloads run the reactive policy, so its ``decide`` stands
#: for the policy layer.
ENTRY_POINTS = (
    ("sim.run", Simulator, "run_until"),
    ("sim.run", Simulator, "run_until_condition"),
    ("api.plan", PlanningSession, "plan"),
    ("core.registry.plan", PlannerRegistry, "plan"),
    ("core.heuristic.plan", HeuristicPlanner, "plan"),
    ("core.kernels.evaluate", HierarchyEvaluator, "evaluate"),
    ("extensions.redeploy.improve", control_loop, "improve_deployment"),
    ("deploy.migration.plan", control_loop, "plan_migration"),
    ("middleware.system.migrate", MiddlewareSystem, "apply_migration"),
    ("middleware.system.migrate", MiddlewareSystem, "complete_migration"),
    ("control.registry.commit", DeploymentRegistry, "commit"),
    ("control.protocol.execute", InProcessExecutor, "execute"),
    ("control.protocol.execute", ProcessExecutor, "execute"),
    ("faults.apply", FaultInjector, "apply"),
    ("control.monitor.observe", control_loop.SLOMonitor, "observe"),
    ("control.monitor.observe", control_loop, "merge_fluid"),
    ("sim.fluid.advance", FluidPopulation, "advance"),
    ("control.policy.decide", ReactivePolicy, "decide"),
)
FAMILIES = tuple(dict.fromkeys(family for family, _, _ in ENTRY_POINTS))
#: Families whose return ends an op.
OP_BOUNDARIES = frozenset({"api.plan", "control.monitor.observe"})

#: Layers of the profile pass, matched on the profiled function's file.
PROFILE_LAYERS = (
    ("sim.engine", "/repro/sim/engine.py"),
    ("sim.resources", "/repro/sim/resources.py"),
    ("middleware", "/repro/middleware/"),
    ("core.heuristic", "/repro/core/heuristic.py"),
    ("core.kernels", "/repro/core/kernels.py"),
    ("core.hierarchy", "/repro/core/hierarchy.py"),
    ("numpy", "/numpy/"),
)

#: Public counters a unit reports (``UnitResult.counters``), by unit.
COUNTERS = {
    "sim.engine.events": "count",
    "sim.engine.compactions": "count",
    "api.cache_hit_ratio": "fraction",
    "core.kernels.cache_hit_ratio": "fraction",
    "deploy.migration.steps": "count",
    "deploy.migration.window_s": "sim_s",
    "control.registry.generations": "count",
    "faults.injected": "count",
    "middleware.dead_letters": "count",
    "middleware.resubmissions": "count",
    "middleware.detection.confirmed": "count",
    "middleware.detection.latency_s": "sim_s",
}

#: Every per-layer metric: name -> (unit, better).
LAYER_METRICS = {
    "sim.engine.ns_per_event": ("ns", "lower"),
    "sim.engine.scheduled": ("count", "lower"),
    "sim.engine.fired_ratio": ("fraction", "higher"),
    "sim.resources.tasks": ("count", "lower"),
    "sim.resources.preemptions": ("count", "lower"),
    **{
        name: (unit, "higher" if name.endswith("ratio") else "lower")
        for name, unit in COUNTERS.items()
    },
    **{f"{family}_s": ("s", "lower") for family in FAMILIES},
    **{f"{family}_calls": ("count", "lower") for family in FAMILIES},
    **{f"{layer}.self_share": ("fraction", "lower") for layer, _ in PROFILE_LAYERS},
    "control.loop.self_s": ("s", "lower"),
    "trace.overhead": ("fraction", "lower"),
    "host.ref_ms": ("ms", "lower"),
}


class Tracer:
    """Records spans around every :data:`ENTRY_POINTS` call while entered.

    Also counts ``Simulator.schedule`` calls and keeps every
    ``SerialResource`` created, whose public counters are summed per unit.
    """

    def __init__(self):
        #: One ``[family, start, end, parent index, op, unit]`` per call.
        self.spans: list[list] = []
        #: ``(start, end)`` of every traced unit.
        self.units: list[tuple[float, float]] = []
        #: Seconds each unit spent inside top-level spans.
        self.tops: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._first = 0
        self._op = 0
        self._scheduled = 0
        self._resources: list[SerialResource] = []

    def __enter__(self) -> "Tracer":
        for family, owner, attribute in ENTRY_POINTS:
            self._patch(owner, attribute, self._span_wrapper(family))
        self._patch(Simulator, "schedule", self._count_schedule)
        self._patch(SerialResource, "__init__", self._keep_resource)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _patch(self, owner, attribute, make_wrapper) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make_wrapper(original))

    def _span_wrapper(self, family: str):
        spans, stack = self.spans, self._stack
        advances = family in OP_BOUNDARIES

        def make(function):
            def wrapper(*args, **kwargs):
                record = [
                    family, perf_counter(), 0.0,
                    stack[-1] if stack else None, self._op, len(self.units),
                ]
                stack.append(len(spans))
                spans.append(record)
                try:
                    return function(*args, **kwargs)
                finally:
                    stack.pop()
                    record[2] = perf_counter()
                    if advances:
                        self._op += 1

            return wrapper

        return make

    def _count_schedule(self, function):
        def schedule(*args, **kwargs):
            self._scheduled += 1
            return function(*args, **kwargs)

        return schedule

    def _keep_resource(self, function):
        def init(resource, *args, **kwargs):
            function(resource, *args, **kwargs)
            self._resources.append(resource)

        return init

    # ------------------------------------------------------------------ #

    def run_unit(self, workload):
        """Run one traced unit; returns ``(UnitResult, layer metrics)``."""
        self._first = len(self.spans)
        self._op = 0
        self._scheduled = 0
        self._resources = []
        start = perf_counter()
        result = workload.run_unit()
        self.units.append((start, perf_counter()))
        return result, self._unit_metrics(result)

    def _unit_metrics(self, result) -> dict:
        spans = self.spans
        seconds = dict.fromkeys(FAMILIES, 0.0)
        calls = dict.fromkeys(FAMILIES, 0)
        top = 0.0
        for index in range(self._first, len(spans)):
            family, start, end, parent, _, _ = spans[index]
            calls[family] += 1
            if parent is None:
                top += end - start
            # A family's time counts its outermost spans only.
            while parent is not None and spans[parent][0] != family:
                parent = spans[parent][3]
            if parent is None:
                seconds[family] += end - start
        self.tops.append(top)
        events = result.counters.get("sim.engine.events", 0)
        metrics = {name: result.counters.get(name, 0) for name in COUNTERS}
        metrics.update(
            {
                "sim.engine.ns_per_event": (
                    seconds["sim.run"] / events * 1e9 if events else 0.0
                ),
                "sim.engine.scheduled": self._scheduled,
                "sim.engine.fired_ratio": (
                    events / self._scheduled if self._scheduled else 0.0
                ),
                "sim.resources.tasks": sum(r.tasks_done for r in self._resources),
                "sim.resources.preemptions": sum(
                    r.preemptions for r in self._resources
                ),
                "control.loop.self_s": result.wall - top,
            }
        )
        metrics.update({f"{f}_s": seconds[f] for f in FAMILIES})
        metrics.update({f"{f}_calls": calls[f] for f in FAMILIES})
        return metrics

    def write_chrome(self, path) -> None:
        """Write the recorded spans as Chrome-trace JSON (one track per unit)."""
        origin = self.units[0][0] if self.units else 0.0
        events = [
            _complete_event("unit", "unit", start, end, origin, unit, {})
            for unit, (start, end) in enumerate(self.units)
        ]
        events += [
            _complete_event(
                family, family.split(".")[0], start, end, origin, unit,
                {"op": op, "span": index, "parent": parent},
            )
            for index, (family, start, end, parent, op, unit) in enumerate(
                self.spans
            )
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _complete_event(name, category, start, end, origin, unit, args) -> dict:
    return {
        "name": name,
        "cat": category,
        "ph": "X",
        "ts": (start - origin) * 1e6,
        "dur": (end - start) * 1e6,
        "pid": 1,
        "tid": unit + 1,
        "args": args,
    }


def profile_shares(workload):
    """Run one unit under cProfile; self-time share of each profile layer.

    Shares are of the profiled unit's total self time.  The ``_heapq``
    builtins and the event class's generated ``__lt__`` count as engine
    time, NumPy's builtin methods as NumPy's.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = workload.run_unit()
    finally:
        profiler.disable()
    per_layer = defaultdict(float)
    total = 0.0
    for (filename, _, function), row in pstats.Stats(profiler).stats.items():
        if filename.endswith("hostspeed.py"):
            continue  # the benchmark's own host-speed probes
        tottime = row[2]
        total += tottime
        per_layer[_profile_layer(filename.replace("\\", "/"), function)] += tottime
    shares = {
        f"{layer}.self_share": per_layer[layer] / total if total else 0.0
        for layer, _ in PROFILE_LAYERS
    }
    return result, shares


def _profile_layer(filename: str, function: str) -> str | None:
    if filename == "<string>" and function == "__lt__":
        # The generated comparison of the engine's ``@dataclass(order=True)
        # Event``, called by every heap operation.
        return "sim.engine"
    if filename == "~":
        if "_heapq." in function:
            return "sim.engine"
        if "numpy" in function:
            return "numpy"
        return None
    for layer, marker in PROFILE_LAYERS:
        if marker in filename:
            return layer
    return None
