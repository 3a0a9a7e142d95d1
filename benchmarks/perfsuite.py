#!/usr/bin/env python
"""Tracked performance suite — times the hot paths, writes BENCH_planning.json.

Unlike the ``bench_*`` paper-artifact benchmarks, this suite exists to
record a *performance trajectory* across PRs.  It times

* heuristic planner scaling over pool sizes 64 → 2048, against a frozen
  in-file reimplementation of the pre-optimization (PR 1) solver loop, so
  the speedup of the vectorized/incremental evaluation layer stays
  measurable forever;
* a scenario-grid ``plan_many`` fan-out (100 requests across pools,
  workloads and planner methods), serial vs. parallel;
* discrete-event engine throughput: a schedule/fire ping-pong, a
  cancellation-heavy churn storm that exercises heap compaction, and a
  ``SerialResource`` whose priority-1 work is preempted by priority-0
  arrivals (submit, preempt, complete);
* the batched kernels against their scalar counterparts;
* the online control plane: a full autoscaling run under a flash-crowd
  trace (reactive policy vs. the static ``hold`` baseline), separating
  total wall time from the controller's own adaptation overhead;
* hybrid fluid/discrete population scaling: a diurnal trace carrying a
  million-client population (a small sampled cohort simulated
  discretely, the rest as an analytic fluid mass) through the same
  reactive control loop, asserted to finish in under the discrete
  ``control_loop`` cell's wall time despite offering four orders of
  magnitude more clients — plus in-cell checks that the hybrid run is
  unperturbed by tracing, bit-identical between serial and pooled
  ``control_sweep`` execution, and in served-rate agreement with the
  all-discrete simulation at small scale;
* live migration vs. stop-the-world restarts: the same reactive run on
  the ``black_friday`` trace fixture once per migration mode, recording
  served requests and effective downtime alongside wall time;
* concurrent vs. serial live migration: the ``black_friday`` reactive
  run again, once with one-region-at-a-time drains and once with the
  plan's dependency waves drained in parallel, recording the total
  migration window the concurrent schedule shrinks (asserted strictly
  shorter, with served throughput no worse);
* the distributed epoch: the same run once per act-stage executor —
  ``inline`` (no command protocol), ``local`` (full wire round-trip,
  in-process), ``pool`` (region commands fanned out to a process
  pool) — with the three timelines asserted bit-identical in-cell, so
  the cell measures purely what the master/executor protocol costs;
* fault recovery: the ``black_friday`` reactive run with the root's
  busiest child crashed mid-surge vs. the fault-free baseline,
  recording dead-lettered/lost conversations and the served-throughput
  recovery (asserted: zero lost, >= 90 % of baseline served);
* fault detection: the same crash made *silent* under timeout-modelled
  detection — the control plane infers it from expired watchdogs
  instead of being told — recording the injection-to-confirmation
  latency alongside wall time (asserted: exactly one confirmation,
  latency within ``threshold x timeout + one epoch``, zero lost).

Run it from the repository root::

    PYTHONPATH=src python benchmarks/perfsuite.py            # full, ~min
    PYTHONPATH=src python benchmarks/perfsuite.py --quick    # CI smoke

Output schema (``repro-bench/1``) — one JSON object::

    {
      "schema": "repro-bench/1",     # format version of this file
      "suite": "planning",
      "quick": false,                # --quick runs are smaller, not comparable
      "created_unix": 1753...,       # seconds since epoch
      "python": "3.12.1", "platform": "...", "numpy": "2.4.6" | null,
      "cpu_count": 8,
      "results": [                   # one entry per measurement
        {
          "name": "heuristic_plan",  # measurement family
          "params": {"nodes": 1024}, # inputs that define the cell
          "metric": "seconds",       # unit: seconds | events_per_s | ratio
          "value": 0.142,            # best-of-repeat measurement
          "extra": {...}             # free-form context (throughput, counts)
        }, ...
      ]
    }

Comparisons are valid between runs with equal (name, params, quick) cells
on similar hardware.  The driver CI uploads the ``--quick`` artifact per
commit; run the full suite locally before/after perf work.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api import PlanningSession, scenario_grid  # noqa: E402
from repro.core.heuristic import HeuristicPlanner, sort_nodes  # noqa: E402
from repro.core.params import DEFAULT_PARAMS  # noqa: E402
from repro.core.throughput import (  # noqa: E402
    agent_sched_throughput,
    server_sched_throughput,
)
from repro.core.kernels import (  # noqa: E402
    HAVE_NUMPY,
    supported_children_many,
)
from repro.platforms.pool import NodePool  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.sim.resources import SerialResource  # noqa: E402
from repro.units import dgemm_mflop  # noqa: E402

_REL_TOL = 1e-9


def best_of(repeat: int, fn, *args):
    """(best seconds, last result) over ``repeat`` timed calls."""
    best = math.inf
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, result


# --------------------------------------------------------------------- #
# frozen pre-optimization reference (PR 1 solver loop, verbatim costs)


def _legacy_supported_children(params, power, target_rate):
    """The pre-PR ``supported_children``: constants re-derived per call."""
    fixed = (params.wreq + params.wfix) / power + (
        params.agent_sizes.sreq / params.bandwidth
        + params.agent_sizes.srep / params.bandwidth
    )
    per_child = (
        params.wsel / power
        + params.agent_sizes.round_trip / params.bandwidth
    )
    budget = 1.0 / target_rate - fixed
    if budget < per_child:
        return 0
    return int(math.floor(budget / per_child + _REL_TOL))


def _legacy_solve(params, agents, candidates, app_work):
    """The pre-PR ``_solve_for_agents`` search loop (throughput-max case).

    Kept verbatim (scalar per-node recomputation, Python prefix sums) as
    the fixed baseline the vectorized solver is measured against.
    """
    n_agents = len(agents)
    n = n_agents + len(candidates)
    if not candidates:
        return None
    k_min = 1 if n_agents == 1 else n_agents
    k_cap = n - n_agents
    if k_cap < k_min:
        return None
    t_hi = agent_sched_throughput(params, agents[0].power, 1)
    for agent in agents[1:]:
        t_hi = min(t_hi, agent_sched_throughput(params, agent.power, 2))
    prefix_power = [0.0]
    for node in candidates:
        prefix_power.append(prefix_power[-1] + node.power)

    def server_slots(t):
        slots = 0
        for agent in agents:
            slots += min(_legacy_supported_children(params, agent.power, t), n)
            if slots > n:
                break
        return max(0, min(slots - (n_agents - 1), k_cap))

    def service_of(k):
        comm = params.service_sizes.round_trip / params.bandwidth
        pred = k * params.wpre / app_work
        rate = prefix_power[k] / app_work
        return 1.0 / (comm + (1.0 + pred) / rate)

    def floor_of(k):
        return server_sched_throughput(params, candidates[k - 1].power)

    def achievable(t):
        k = server_slots(t)
        if k < k_min:
            return None
        return min(t, service_of(k), floor_of(k))

    hi_value = achievable(t_hi)
    if hi_value is not None and hi_value >= t_hi - _REL_TOL:
        k = server_slots(t_hi)
        return min(t_hi, service_of(k), floor_of(k)), k, t_hi
    t_lo = t_hi
    value = None
    for _ in range(200):
        t_lo /= 2.0
        value = achievable(t_lo)
        if value is not None and value >= t_lo - _REL_TOL:
            break
        if t_lo < 1e-12:
            return None
    lo, hi = t_lo, t_hi
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        v = achievable(mid)
        if v is not None and v >= mid - _REL_TOL:
            lo = mid
        else:
            hi = mid
    k = server_slots(lo)
    return min(lo, service_of(k), floor_of(k)), k, lo


def _legacy_fixed_point_search(pool, app_work):
    """Pre-PR fixed-point sweep: best (rho, A) over all agent-tier sizes."""
    ranked = sort_nodes(pool, DEFAULT_PARAMS)
    n = len(ranked)
    best = None
    for n_agents in range(1, max(1, n // 2) + 1):
        agents = ranked[:n_agents]
        candidates = ranked[n_agents:]
        solved = _legacy_solve(DEFAULT_PARAMS, agents, candidates, app_work)
        if solved is None:
            continue
        rho, n_servers, _ = solved
        used = n_agents + n_servers
        if best is None or (rho, -used) > (best[0], -best[1]):
            best = (rho, used, n_agents)
    return best


# --------------------------------------------------------------------- #
# measurement sections


def bench_planner_scaling(sizes, repeat, legacy_cap):
    app_work = dgemm_mflop(310)
    results = []
    for size in sizes:
        pool = NodePool.uniform_random(size, low=80, high=400, seed=7)
        seconds, plan = best_of(
            repeat,
            lambda: HeuristicPlanner(DEFAULT_PARAMS).plan(pool, app_work),
        )
        extra = {
            "throughput_req_s": round(plan.throughput, 3),
            "nodes_used": plan.nodes_used,
        }
        if size <= legacy_cap:
            legacy_seconds, legacy = best_of(
                max(1, repeat // 2), _legacy_fixed_point_search, pool, app_work
            )
            extra["legacy_seconds"] = round(legacy_seconds, 6)
            extra["speedup_vs_legacy"] = round(legacy_seconds / seconds, 2)
            # The sweeps must agree on what they found.
            assert abs(legacy[0] - plan.throughput) <= 1e-6 * plan.throughput
        results.append(
            {
                "name": "heuristic_plan",
                "params": {"nodes": size},
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": extra,
            }
        )
        print(
            f"  heuristic_plan nodes={size}: {seconds * 1000:.1f} ms"
            + (
                f"  (legacy {extra['legacy_seconds'] * 1000:.1f} ms, "
                f"{extra['speedup_vs_legacy']}x)"
                if "legacy_seconds" in extra
                else ""
            )
        )
    return results


def bench_plan_many(quick):
    if quick:
        pools = [
            NodePool.uniform_random(40, low=80, high=400, seed=s)
            for s in range(2)
        ]
        works = [dgemm_mflop(k) for k in (100, 310)]
        methods = ("heuristic", "star", "balanced")
    else:
        pools = [
            NodePool.uniform_random(100, low=80, high=400, seed=s)
            for s in range(5)
        ]
        works = [dgemm_mflop(k) for k in (100, 200, 310, 400)]
        methods = ("heuristic", "star", "balanced", "chain", "homogeneous")
    grid = scenario_grid(pools, works, methods=methods)
    serial_seconds, serial = best_of(
        1, lambda: PlanningSession().plan_many(grid)
    )
    parallel_seconds, parallel = best_of(
        1, lambda: PlanningSession().plan_many(grid, parallel=True)
    )
    assert [d.describe() for d in serial] == [d.describe() for d in parallel]
    print(
        f"  plan_many grid={len(grid)}: serial {serial_seconds:.2f} s, "
        f"parallel {parallel_seconds:.2f} s"
    )
    return [
        {
            "name": "plan_many_grid",
            "params": {"requests": len(grid), "mode": "serial"},
            "metric": "seconds",
            "value": round(serial_seconds, 6),
            "extra": {"requests_per_s": round(len(grid) / serial_seconds, 2)},
        },
        {
            "name": "plan_many_grid",
            "params": {"requests": len(grid), "mode": "parallel"},
            "metric": "seconds",
            "value": round(parallel_seconds, 6),
            "extra": {
                "requests_per_s": round(len(grid) / parallel_seconds, 2),
                "workers": os.cpu_count(),
            },
        },
    ]


def bench_engine(quick):
    rounds = 20_000 if quick else 200_000

    def ping_pong():
        sim = Simulator()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < rounds:
                sim.schedule(0.001, tick)

        sim.schedule(0.0, tick)
        sim.run()
        return sim

    seconds, sim = best_of(2, ping_pong)
    results = [
        {
            "name": "engine_ping_pong",
            "params": {"events": rounds},
            "metric": "events_per_s",
            "value": round(sim.events_processed / seconds, 1),
            "extra": {"seconds": round(seconds, 6)},
        }
    ]
    print(
        f"  engine_ping_pong: {sim.events_processed / seconds:,.0f} events/s"
    )

    def churn():
        sim = Simulator()
        survivors = 0
        for i in range(rounds):
            event = sim.schedule(1.0 + (i % 11) * 0.1, lambda: None)
            if i % 10:
                event.cancel()
            else:
                survivors += 1
        peak = sim.pending
        sim.run()
        return sim, peak, survivors

    seconds, (sim, peak, survivors) = best_of(2, churn)
    results.append(
        {
            "name": "engine_churn",
            "params": {"events": rounds, "cancelled_pct": 90},
            "metric": "events_per_s",
            "value": round(rounds / seconds, 1),
            "extra": {
                "seconds": round(seconds, 6),
                "peak_pending": peak,
                "live_events": survivors,
                "heap_compactions": sim.heap_compactions,
            },
        }
    )
    print(
        f"  engine_churn: {rounds / seconds:,.0f} schedule+cancel/s, "
        f"peak heap {peak} for {survivors} live events, "
        f"{sim.heap_compactions} compactions"
    )

    def serial_resource():
        # Service-phase items (priority 1) arrive every 4 ms and need
        # 3 ms; scheduling-phase items (priority 0) arrive every 2.5 ms
        # and need 0.5 ms, so most of them land on a running priority-1
        # item and preempt it.  Load is 0.95: the resource never
        # saturates and every task completes.
        sim = Simulator()
        resource = SerialResource(sim, "node")
        arrivals = rounds // 2

        def arrive(period, duration, priority, left):
            resource.submit(duration, "compute", priority=priority)
            if left > 1:
                sim.schedule(
                    period, lambda: arrive(period, duration, priority, left - 1)
                )

        sim.schedule(0.0, lambda: arrive(0.004, 0.003, 1, arrivals))
        sim.schedule(0.001, lambda: arrive(0.0025, 0.0005, 0, arrivals))
        sim.run()
        return sim, resource

    seconds, (sim, resource) = best_of(2, serial_resource)
    results.append(
        {
            "name": "engine_serial_resource",
            "params": {"tasks": resource.tasks_done},
            "metric": "tasks_per_s",
            "value": round(resource.tasks_done / seconds, 1),
            "extra": {
                "seconds": round(seconds, 6),
                "preemptions": resource.preemptions,
                "preemptions_per_s": round(resource.preemptions / seconds, 1),
                "events": sim.events_processed,
                "heap_compactions": sim.heap_compactions,
            },
        }
    )
    print(
        f"  engine_serial_resource: {resource.tasks_done / seconds:,.0f} tasks/s, "
        f"{resource.preemptions / seconds:,.0f} preemptions/s "
        f"({resource.preemptions} preemptions over {resource.tasks_done} tasks)"
    )
    return results


def bench_kernels(quick):
    size = 1024 if quick else 4096
    pool = NodePool.uniform_random(size, low=80, high=400, seed=1)
    powers = sorted(pool.powers, reverse=True)
    target = agent_sched_throughput(DEFAULT_PARAMS, powers[0], 1) / 50.0

    from repro.core.heuristic import supported_children

    scalar_seconds, scalar = best_of(
        3,
        lambda: [
            supported_children(DEFAULT_PARAMS, p, target) for p in powers
        ],
    )
    batch_seconds, batch = best_of(
        3, lambda: supported_children_many(DEFAULT_PARAMS, powers, target)
    )
    assert batch == scalar
    ratio = scalar_seconds / batch_seconds
    print(
        f"  supported_children x{size}: scalar {scalar_seconds * 1e3:.2f} ms, "
        f"batched {batch_seconds * 1e3:.2f} ms ({ratio:.1f}x)"
    )
    return [
        {
            "name": "kernel_supported_children",
            "params": {"nodes": size},
            "metric": "ratio",
            "value": round(ratio, 2),
            "extra": {
                "scalar_seconds": round(scalar_seconds, 6),
                "batched_seconds": round(batch_seconds, 6),
                "numpy": HAVE_NUMPY,
            },
        }
    ]


def bench_control(quick):
    from repro.control import ControlLoop, flash_crowd

    if quick:
        pool_size, epochs, epoch_duration = 12, 8, 2.0
        trace = flash_crowd(base=3, peak=20, at=6, rise=2, fall=6)
    else:
        pool_size, epochs, epoch_duration = 32, 20, 4.0
        trace = flash_crowd(base=5, peak=60, at=24, rise=4, fall=20)
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    results = []
    for policy in ("hold", "reactive"):
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy=policy,
            policy_options={"hysteresis": 1, "cooldown": 1}
            if policy == "reactive"
            else None,
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            # Pinned to the legacy mechanism: this cell tracks the
            # controller's adaptation overhead across PRs, so its
            # scenario stays fixed; bench_live_migration covers the
            # mode comparison.
            migration="restart",
            seed=3,
        )
        # best_of would pair one run's wall time with another run's
        # overhead telemetry; keep each (wall, overhead) pair together
        # and report the fastest run's numbers.
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, loop.overhead_seconds, timeline)
        seconds, overhead_seconds, timeline = best
        results.append(
            {
                "name": "control_loop",
                "params": {
                    "policy": policy,
                    "pool": pool_size,
                    "epochs": epochs,
                },
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": {
                    # Controller bookkeeping (observe/decide/plan/price)
                    # vs. total wall: the adaptation overhead the control
                    # plane adds on top of simulating the platform.
                    "overhead_seconds": round(overhead_seconds, 6),
                    "overhead_fraction": round(
                        overhead_seconds / seconds, 4
                    ),
                    "served": timeline.total_served,
                    "redeploys": timeline.redeploys,
                    "migration_downtime_s": round(
                        timeline.migration_downtime, 4
                    ),
                    "epochs_per_s": round(epochs / seconds, 2),
                },
            }
        )
        print(
            f"  control_loop policy={policy}: {seconds:.3f} s "
            f"({overhead_seconds * 1e3:.1f} ms adaptation overhead, "
            f"{timeline.redeploys} redeploys, "
            f"{timeline.total_served} served)"
        )
    return results


def bench_fluid_scale(quick, reference_seconds):
    """Million-client hybrid run vs. the discrete control-loop cell.

    ``reference_seconds`` is the wall time of this run's own reactive
    ``control_loop`` cell (peak offered load ~10-60 clients).  The
    hybrid cell offers up to a million clients — ``population`` fluid
    multiples of a diurnal base trace, with only ``cohort`` clients
    simulated discretely — and must still finish faster: the fluid
    mass is integrated analytically, so wall time tracks the cohort,
    not the population.

    Beyond the headline timing the cell asserts the hybrid model's
    correctness contract on every run: tracing does not perturb the
    timeline, serial and process-pool ``control_sweep`` execution are
    bit-identical (tracing on), and at small scale the split run's
    served rate agrees with the all-discrete simulation.
    """
    from repro.control import ControlLoop, from_spec

    if quick:
        pool_size, epochs, epoch_duration = 12, 8, 2.0
        population, cohort = 10_000, 4
        spec = (
            "diurnal:base=4,peak=10,period=64,"
            f"population={population},cohort={cohort}"
        )
    else:
        pool_size, epochs, epoch_duration = 16, 20, 4.0
        population, cohort = 100_000, 8
        spec = (
            "diurnal:base=4,peak=10,period=160,"
            f"population={population},cohort={cohort}"
        )
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)
    kwargs = dict(
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=epochs,
        epoch_duration=epoch_duration,
        initial_fraction=0.4,
        migration="restart",
        seed=3,
    )

    loop = ControlLoop(pool, app_work, from_spec(spec), **kwargs)
    best = None
    for _ in range(2):
        start = time.perf_counter()
        timeline = loop.run()
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, loop.overhead_seconds, timeline)
    seconds, overhead_seconds, timeline = best

    # Tracing must not perturb the hybrid run (fluid state included).
    traced = ControlLoop(
        pool, app_work, from_spec(spec), obs=True, **kwargs
    )
    assert traced.run() == timeline

    # Serial vs. process-pool sweep bit-identity, tracing on: hybrid
    # trace specs transport as strings, fluid integration is pure
    # arithmetic, so the timelines *and* exported traces must match.
    sweep_pool = NodePool.uniform_random(8, low=80, high=400, seed=7)
    sweep_kw = dict(
        traces=("diurnal:base=4,peak=10,period=64,population=1000,cohort=4",),
        policies=("reactive",),
        seeds=(0, 1),
        policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
        epochs=5,
        epoch_duration=2.0,
        obs=True,
    )
    session = PlanningSession()
    serial = session.control_sweep(
        sweep_pool, app_work, parallel=False, **sweep_kw
    )
    pooled = session.control_sweep(
        sweep_pool, app_work, parallel=True, **sweep_kw
    )
    assert [c.timeline for c in serial] == [c.timeline for c in pooled]
    assert [c.trace_jsonl for c in serial] == [c.trace_jsonl for c in pooled]

    # Small-scale agreement: with a cohort that covers only part of the
    # load, the fluid approximation's served-rate curve must stay close
    # to the all-discrete run it replaces.
    base = "diurnal:base=4,peak=10,period=64"
    agree_kw = dict(kwargs, epochs=6, epoch_duration=2.0)
    discrete = ControlLoop(
        sweep_pool, app_work, from_spec(base), **agree_kw
    ).run()
    split = ControlLoop(
        sweep_pool, app_work, from_spec(base + ",cohort=4"), **agree_kw
    ).run()
    agreement = split.mean_served_rate / discrete.mean_served_rate
    assert 0.65 <= agreement <= 1.35, (
        f"fluid/discrete served-rate ratio {agreement:.3f} out of band"
    )

    # The headline claim: four orders of magnitude more clients, less
    # wall time than the discrete cell.  Quick cells are tiny (runner
    # noise is a large fraction of ~0.3 s), so they get 2x headroom;
    # the full run asserts strictly faster.
    margin = 2.0 if quick else 1.0
    assert seconds < reference_seconds * margin, (
        f"fluid_scale took {seconds:.3f} s vs control_loop reference "
        f"{reference_seconds:.3f} s (margin {margin}x)"
    )

    peak_clients = max(r.offered for r in timeline.records)
    fluid_total = timeline.records[-1].metrics.value("fluid_served_total")
    result = {
        "name": "fluid_scale",
        "params": {
            "pool": pool_size,
            "epochs": epochs,
            "population": population,
            "cohort": cohort,
        },
        "metric": "seconds",
        "value": round(seconds, 6),
        "extra": {
            "trace": spec,
            "peak_clients": peak_clients,
            "served": timeline.total_served,
            "fluid_served_total": int(fluid_total),
            "mean_served_rate": round(timeline.mean_served_rate, 3),
            "overhead_seconds": round(overhead_seconds, 6),
            "epochs_per_s": round(epochs / seconds, 2),
            "reference_seconds": round(reference_seconds, 6),
            "agreement_ratio": round(agreement, 4),
            "timeline_identical_traced": True,
            "sweep_identical_pooled": True,
        },
    }
    print(
        f"  fluid_scale peak={peak_clients:,} clients cohort={cohort}: "
        f"{seconds:.3f} s wall vs {reference_seconds:.3f} s discrete "
        f"reference, {timeline.total_served} served "
        f"({int(fluid_total)} fluid), agreement {agreement:.2f}"
    )
    return [result]


def bench_live_migration(quick):
    from repro.control import ControlLoop, fixture

    if quick:
        # Short but still spanning the doors-open surge at t=20s, so
        # both modes actually migrate.
        pool_size, epochs, epoch_duration = 12, 12, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 30, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    results = []
    for mode in ("restart", "live"):
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            migration=mode,
            seed=3,
        )
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, loop.overhead_seconds, timeline)
        seconds, overhead_seconds, timeline = best
        results.append(
            {
                "name": "live_migration",
                "params": {
                    "mode": mode,
                    "pool": pool_size,
                    "epochs": epochs,
                },
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": {
                    "overhead_seconds": round(overhead_seconds, 6),
                    "overhead_fraction": round(
                        overhead_seconds / seconds, 4
                    ),
                    # Simulation-domain outcomes: deterministic for
                    # fixed inputs, so a change here is behaviour, not
                    # noise.  `downtime_seconds` is the effective
                    # (service-weighted) outage; `migration_steps` the
                    # itemized step count across the run.
                    "served": timeline.total_served,
                    "redeploys": timeline.redeploys,
                    "downtime_seconds": round(
                        timeline.migration_downtime, 4
                    ),
                    "migration_steps": timeline.migration_step_count,
                    "epochs_per_s": round(epochs / seconds, 2),
                },
            }
        )
        print(
            f"  live_migration mode={mode}: {seconds:.3f} s wall, "
            f"served {timeline.total_served}, "
            f"{timeline.migration_downtime:.3f} s downtime over "
            f"{timeline.migration_step_count} steps"
        )
    return results


def bench_concurrent_migration(quick):
    from repro.control import ControlLoop, fixture

    if quick:
        # Long enough to span the doors-open surge *and* the t=60s
        # trough: the scale-down replan there drains several regions,
        # which is what a concurrent schedule overlaps.
        pool_size, epochs, epoch_duration = 16, 16, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 30, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    results = []
    timelines = {}
    for mode in ("live", "concurrent"):
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            migration=mode,
            seed=3,
        )
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, loop.overhead_seconds, timeline)
        seconds, overhead_seconds, timeline = best
        timelines[mode] = timeline
        results.append(
            {
                "name": "concurrent_migration",
                "params": {
                    "mode": mode,
                    "pool": pool_size,
                    "epochs": epochs,
                },
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": {
                    "overhead_seconds": round(overhead_seconds, 6),
                    "overhead_fraction": round(
                        overhead_seconds / seconds, 4
                    ),
                    # Simulation-domain outcomes, deterministic for
                    # fixed inputs.  `migration_window_seconds` is the
                    # wall (simulated) time spent inside migrations —
                    # the number the concurrent schedule shrinks;
                    # `downtime_seconds` (service-weighted outage) is
                    # schedule-independent by construction, so it stays
                    # comparable across the two modes.
                    "served": timeline.total_served,
                    "served_in_epochs": timeline.served_in_epochs,
                    "mean_served_rate": round(
                        timeline.mean_served_rate, 3
                    ),
                    "redeploys": timeline.redeploys,
                    "downtime_seconds": round(
                        timeline.migration_downtime, 4
                    ),
                    "migration_window_seconds": round(
                        timeline.migration_window, 4
                    ),
                    "migration_steps": timeline.migration_step_count,
                    "epochs_per_s": round(epochs / seconds, 2),
                },
            }
        )
        print(
            f"  concurrent_migration mode={mode}: {seconds:.3f} s wall, "
            f"{timeline.mean_served_rate:.1f} req/s served mean, "
            f"{timeline.migration_window:.3f} s migration window over "
            f"{timeline.migration_step_count} steps"
        )
    # The tentpole claims, asserted on every run: same seed/trace/policy,
    # strictly shorter migration window, served throughput no worse.
    live, concurrent = timelines["live"], timelines["concurrent"]
    assert concurrent.migration_window < live.migration_window
    assert concurrent.mean_served_rate >= live.mean_served_rate
    assert concurrent.final_shape == live.final_shape
    return results


def bench_distributed_epoch(quick):
    """The master/executor command protocol's act-stage overhead.

    One controller configuration, three act-stage executors: ``inline``
    (no protocol — the pre-split direct apply), ``local`` (full wire
    round-trip in the master's process), ``pool`` (region commands
    fanned out to a process pool).  The determinism contract is
    asserted in-cell — all three timelines bit-identical — and the
    wall-clock cost of the protocol is the cell's story: serializing
    commands, replaying registry snapshots in stateless daemons, and
    verifying acks must stay a small fraction of the run
    (``bench_diff`` budgets the regression at ~5%).
    """
    from repro.control import ControlLoop, fixture
    from repro.control.protocol import EXECUTOR_KINDS

    if quick:
        pool_size, epochs, epoch_duration = 16, 16, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 30, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    results = []
    timelines = {}
    registries = {}
    for kind in EXECUTOR_KINDS:
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            migration="concurrent",
            seed=3,
            executor=kind,
        )
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, loop.overhead_seconds, timeline)
        seconds, overhead_seconds, timeline = best
        timelines[kind] = timeline
        registries[kind] = loop.deployment_registry
        results.append(
            {
                "name": "distributed_epoch",
                "params": {
                    "executor": kind,
                    "pool": pool_size,
                    "epochs": epochs,
                },
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": {
                    "overhead_seconds": round(overhead_seconds, 6),
                    "overhead_fraction": round(
                        overhead_seconds / seconds, 4
                    ),
                    "served": timeline.total_served,
                    "mean_served_rate": round(
                        timeline.mean_served_rate, 3
                    ),
                    "redeploys": timeline.redeploys,
                    "generations": len(registries[kind]),
                    "epochs_per_s": round(epochs / seconds, 2),
                },
            }
        )
        print(
            f"  distributed_epoch executor={kind}: {seconds:.3f} s wall, "
            f"{overhead_seconds / seconds:.1%} controller overhead, "
            f"{len(registries[kind])} registry generations"
        )
    # The tentpole claim, asserted on every run: the protocol changes
    # *where* plans are applied, never *what* the controller computes.
    assert timelines["local"] == timelines["inline"]
    assert timelines["pool"] == timelines["inline"]
    assert (
        [e.digest for e in registries["local"].entries]
        == [e.digest for e in registries["inline"].entries]
        == [e.digest for e in registries["pool"].entries]
    )
    return results


def bench_fault_recovery(quick):
    from repro.control import ControlLoop, fixture

    if quick:
        # Long enough to cover the crash at t=18 and a few recovery
        # epochs; the repair lands right as the doors-open surge hits.
        pool_size, epochs, epoch_duration = 16, 10, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 30, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    results = []
    timelines = {}
    for label, faults in (
        ("baseline", None),
        ("crash", "crash:target=busiest-child,at=18"),
    ):
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            seed=3,
            faults=faults,
        )
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, loop.overhead_seconds, timeline)
        seconds, overhead_seconds, timeline = best
        timelines[label] = timeline
        results.append(
            {
                "name": "fault_recovery",
                "params": {
                    "faults": label,
                    "pool": pool_size,
                    "epochs": epochs,
                },
                "metric": "seconds",
                "value": round(seconds, 6),
                "extra": {
                    "overhead_seconds": round(overhead_seconds, 6),
                    # Simulation-domain outcomes, deterministic for
                    # fixed inputs: what the crash cost and how the
                    # self-healing path absorbed it.
                    "served": timeline.total_served,
                    "mean_served_rate": round(
                        timeline.mean_served_rate, 3
                    ),
                    "redeploys": timeline.redeploys,
                    "faults_injected": timeline.fault_count,
                    "dead_letters": timeline.dead_letters,
                    "lost_conversations": timeline.lost_conversations,
                    "epochs_per_s": round(epochs / seconds, 2),
                },
            }
        )
        print(
            f"  fault_recovery faults={label}: {seconds:.3f} s wall, "
            f"{timeline.total_served} served, "
            f"{timeline.dead_letters} dead-lettered, "
            f"{timeline.lost_conversations} lost"
        )
    # The self-healing claims, asserted on every run: the crash loses
    # no conversations, and the repaired platform stays within 10 % of
    # the no-fault throughput.
    baseline, crashed = timelines["baseline"], timelines["crash"]
    assert crashed.lost_conversations == 0
    assert crashed.fault_count == 1
    assert crashed.total_served >= 0.9 * baseline.total_served
    return results


def bench_fault_detection(quick):
    from repro.control import ControlLoop, fixture

    if quick:
        pool_size, epochs, epoch_duration = 16, 10, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 30, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)
    timeout, threshold = 0.5, 3
    detection = (
        f"timeout={timeout},retries=0,threshold={threshold},reserve=0.2"
    )

    loop = ControlLoop(
        pool,
        app_work,
        trace,
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1, "repair": True},
        epochs=epochs,
        epoch_duration=epoch_duration,
        initial_fraction=0.4,
        seed=3,
        faults="crash:target=busiest-child,at=18",
        detection=detection,
    )
    best = None
    for _ in range(2):
        start = time.perf_counter()
        timeline = loop.run()
        wall = time.perf_counter() - start
        if best is None or wall < best[0]:
            best = (wall, loop.overhead_seconds, timeline)
    seconds, overhead_seconds, timeline = best
    results = [
        {
            "name": "fault_detection",
            "params": {
                "detection": detection,
                "pool": pool_size,
                "epochs": epochs,
            },
            "metric": "seconds",
            "value": round(seconds, 6),
            "extra": {
                "overhead_seconds": round(overhead_seconds, 6),
                # Simulation-domain outcomes, deterministic for fixed
                # inputs: how long the silent crash went unnoticed and
                # what the inferred repair cost.
                "served": timeline.total_served,
                "mean_served_rate": round(timeline.mean_served_rate, 3),
                "redeploys": timeline.redeploys,
                "detections": timeline.detection_count,
                "mean_detection_latency": round(
                    timeline.mean_detection_latency, 4
                ),
                "dead_letters": timeline.dead_letters,
                "lost_conversations": timeline.lost_conversations,
                "epochs_per_s": round(epochs / seconds, 2),
            },
        }
    ]
    print(
        f"  fault_detection: {seconds:.3f} s wall, "
        f"{timeline.detection_count} confirmed by timeout, "
        f"{timeline.mean_detection_latency:.2f} s detection latency, "
        f"{timeline.lost_conversations} lost"
    )
    # The detection claims, asserted on every run: the silent crash is
    # confirmed (never announced), within the modelled bound, and the
    # inferred repair still loses no conversations.
    assert timeline.detection_count == 1
    assert (
        0.0
        < timeline.mean_detection_latency
        <= threshold * timeout + epoch_duration + 1.0
    )
    assert timeline.lost_conversations == 0
    return results


def bench_obs_overhead(quick):
    from repro.control import ControlLoop, fixture
    from repro.obs import NULL_OBS, Obs

    if quick:
        pool_size, epochs, epoch_duration = 12, 10, 4.0
    else:
        pool_size, epochs, epoch_duration = 16, 24, 4.0
    trace = fixture("black_friday")
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=7)
    app_work = dgemm_mflop(200)

    def run(obs):
        loop = ControlLoop(
            pool,
            app_work,
            trace,
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=epochs,
            epoch_duration=epoch_duration,
            initial_fraction=0.4,
            seed=3,
            faults="crash:target=busiest-child,at=18",
            detection="timeout=0.5,retries=1,threshold=3,grace=2",
            obs=obs,
        )
        best = None
        for _ in range(2):
            start = time.perf_counter()
            timeline = loop.run()
            wall = time.perf_counter() - start
            if best is None or wall < best[0]:
                best = (wall, timeline)
        return best + (loop,)

    disabled_wall, disabled_timeline, _ = run(None)
    traced = Obs()
    enabled_wall, enabled_timeline, _ = run(traced)

    # The determinism half of the contract: tracing must not perturb the
    # run.  Records carry their metrics snapshots in both modes (the
    # registry is always live), so whole-timeline equality is the
    # strongest possible check.
    assert enabled_timeline == disabled_timeline

    # The cost half: with tracing disabled every site is one attribute
    # check on the null probe.  Wall-clock A/B deltas of two ~second
    # runs drown in scheduler noise on CI, so bound the overhead from
    # first principles instead: microbenchmark the guard, multiply by a
    # deliberately generous count of guard evaluations (one per engine
    # event plus a per-epoch allowance — far more sites than actually
    # exist), and compare against the measured baseline wall.
    probe = NULL_OBS
    iterations = 1_000_000
    start = time.perf_counter()
    hits = 0
    for _ in range(iterations):
        if probe.enabled:  # the exact guard used at every disabled site
            hits += 1
    per_check = (time.perf_counter() - start) / iterations
    assert hits == 0
    events = disabled_timeline.records[-1].metrics.value("engine_events")
    guard_evaluations = events + 50 * epochs
    estimated_fraction = per_check * guard_evaluations / disabled_wall
    assert estimated_fraction <= 0.01, (
        f"disabled-mode obs overhead estimated at "
        f"{estimated_fraction:.2%} of the run (> 1% budget)"
    )

    results = [
        {
            "name": "obs_overhead",
            "params": {"pool": pool_size, "epochs": epochs},
            "metric": "fraction",
            "value": round(estimated_fraction, 6),
            "extra": {
                "disabled_wall_s": round(disabled_wall, 6),
                "enabled_wall_s": round(enabled_wall, 6),
                "per_check_ns": round(per_check * 1e9, 3),
                "guard_evaluations": int(guard_evaluations),
                "trace_records": len(traced.tracer),
                "timeline_identical": True,
            },
        }
    ]
    print(
        f"  obs_overhead: guard {per_check * 1e9:.1f} ns x "
        f"{int(guard_evaluations)} sites = {estimated_fraction:.4%} of "
        f"{disabled_wall:.3f} s (budget 1%); traced run "
        f"{enabled_wall:.3f} s, {len(traced.tracer)} records, "
        f"timelines identical"
    )
    return results


# --------------------------------------------------------------------- #


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-smoke sizes (not comparable with full runs)",
    )
    parser.add_argument(
        "--output",
        default="BENCH_planning.json",
        help="output path (default: ./BENCH_planning.json)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=5,
        help="timed repetitions per planner cell (best-of)",
    )
    args = parser.parse_args(argv)

    if args.quick:
        sizes, legacy_cap = (64, 256), 256
    else:
        sizes, legacy_cap = (64, 128, 256, 512, 1024, 2048), 1024

    numpy_version = None
    if HAVE_NUMPY:
        import numpy

        numpy_version = numpy.__version__

    print(f"perfsuite ({'quick' if args.quick else 'full'}):")
    results = []
    results += bench_planner_scaling(sizes, args.repeat, legacy_cap)
    results += bench_plan_many(args.quick)
    results += bench_engine(args.quick)
    results += bench_kernels(args.quick)
    control_results = bench_control(args.quick)
    results += control_results
    reference_seconds = next(
        r["value"]
        for r in control_results
        if r["name"] == "control_loop"
        and r["params"]["policy"] == "reactive"
    )
    results += bench_fluid_scale(args.quick, reference_seconds)
    results += bench_live_migration(args.quick)
    results += bench_concurrent_migration(args.quick)
    results += bench_distributed_epoch(args.quick)
    results += bench_fault_recovery(args.quick)
    results += bench_fault_detection(args.quick)
    results += bench_obs_overhead(args.quick)

    payload = {
        "schema": "repro-bench/1",
        "suite": "planning",
        "quick": args.quick,
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "results": results,
    }
    out = Path(args.output)
    out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out} ({len(results)} measurements)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
