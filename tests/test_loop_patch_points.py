"""The control loop's patch points: names instrumentation wraps in place.

The end-to-end benchmark's per-layer timer wraps ``improve_deployment``,
``plan_migration`` and ``merge_fluid`` — names bound in
:mod:`repro.control.loop` — and ``SLOMonitor.observe`` by assignment.
That only works while the loop looks each name up at call time.  A
refactor that captures one earlier (a default argument, a local alias
taken at import, an attribute cached on the loop) would silently drop
the benchmark's spans; this test fails instead.
"""

from __future__ import annotations

from collections import Counter

import repro.control.loop as control_loop
from repro.control import ControlLoop, HybridTrace, piecewise
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

EPOCHS = 10


def _counting(calls: Counter, key: str, function):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return function(*args, **kwargs)

    return wrapper


def test_loop_looks_patch_points_up_at_call_time(monkeypatch):
    calls: Counter = Counter()
    for name in ("improve_deployment", "plan_migration", "merge_fluid"):
        monkeypatch.setattr(
            control_loop, name,
            _counting(calls, name, getattr(control_loop, name)),
        )

    class CountingMonitor(control_loop.SLOMonitor):
        observe = _counting(
            calls, "observe", control_loop.SLOMonitor.observe
        )

    # The module global itself is swapped, so a monitor class captured
    # before the run would show up as zero observe calls.
    monkeypatch.setattr(control_loop, "SLOMonitor", CountingMonitor)
    timeline = ControlLoop(
        NodePool.uniform_random(16, low=80, high=400, seed=7),
        dgemm_mflop(310),
        HybridTrace(
            piecewise(((0.0, 6), (6.0, 24), (12.0, 36))),
            population=10,
            cohort=4,
        ),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=EPOCHS,
        epoch_duration=2.0,
        initial_fraction=0.4,
        migration="live",
        seed=0,
    ).run()
    assert any(
        record.action == "improve" and record.applied
        for record in timeline.records
    )
    assert calls["improve_deployment"] >= 1
    assert calls["plan_migration"] >= 1
    assert calls["merge_fluid"] == EPOCHS
    assert calls["observe"] == EPOCHS
