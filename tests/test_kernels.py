"""Kernel arrays and memoized evaluation (`repro.core.kernels`).

The contract under test: every array or cached quantity equals the
scalar Eq. 11–16 reference bit for bit — ``NodeArrays`` against
``core/throughput.py`` and ``heuristic.supported_children``, its service
ceiling against a plain-Python loop over the same expressions, and
``HierarchyEvaluator`` against cold ``hierarchy_throughput``.
"""

from __future__ import annotations

import math
import random

import pytest

import repro.core.heuristic as heuristic
from repro.core.baselines import balanced_deployment, star_deployment
from repro.core.heuristic import (
    _BELOW_BAR,
    HeuristicPlanner,
    sort_nodes,
    supported_children,
)
from repro.core.kernels import HierarchyEvaluator, NodeArrays
from repro.core.params import DEFAULT_PARAMS, LevelSizes, ModelParams
from repro.core.throughput import (
    agent_sched_throughput,
    hierarchy_throughput,
    server_sched_throughput,
)
from repro.errors import ParameterError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop


def random_params(rng: random.Random) -> ModelParams:
    return ModelParams(
        wreq=rng.uniform(1e-3, 1.0),
        wfix=rng.uniform(1e-4, 0.1),
        wsel=rng.uniform(1e-4, 0.1),
        wpre=rng.uniform(1e-4, 0.1),
        agent_sizes=LevelSizes(
            sreq=rng.uniform(1e-4, 1e-1), srep=rng.uniform(1e-4, 1e-1)
        ),
        server_sizes=LevelSizes(
            sreq=rng.uniform(1e-6, 1e-3), srep=rng.uniform(1e-6, 1e-3)
        ),
        bandwidth=rng.uniform(10.0, 10_000.0),
    )


def random_powers(rng: random.Random, count: int) -> list[float]:
    return [rng.uniform(5.0, 5000.0) for _ in range(count)]


def tier_bounds(arrays, offset, n_agents, app_work, demand):
    """``(t_hi, service_ceiling)`` for one agent tier, built from the same
    inputs as ``HeuristicPlanner._solve_for_agents``; the service ceiling
    is ``inf`` when the tier has no valid server count."""
    n = arrays.n
    k_min = 1 if n_agents == 1 else n_agents
    k_cap = n - n_agents
    t_hi = float(arrays.sched_deg1[offset])
    if n_agents > 1:
        t_hi = min(t_hi, arrays.min_sched_deg2(offset + 1, offset + n_agents))
    if demand is not None:
        t_hi = min(t_hi, demand)
    if k_cap < k_min:
        return t_hi, math.inf
    if offset == 0:
        cand_sel = slice(n_agents, n)
    else:
        cand_sel = list(range(offset)) + list(range(offset + n_agents, n))
    cand_powers, _, _, cand_server_rate = arrays.select(cand_sel)
    prefix_power = arrays.prefix_powers(cand_powers)
    return t_hi, arrays.service_ceiling(
        prefix_power, cand_server_rate, k_min, k_cap, app_work
    )


def tier_ceiling(arrays, offset, n_agents, app_work, demand):
    """``min(t_hi, service_ceiling)`` for one agent tier."""
    return min(tier_bounds(arrays, offset, n_agents, app_work, demand))


def reference_service_ceiling(params, powers, offset, n_agents, app_work):
    """``NodeArrays.service_ceiling`` of one tier as a plain-Python loop.

    Builds the candidate ranking, its running power sums and its server
    rates from the scalar model, then takes ``max(min(service(k),
    server_rate[k-1]))`` over ``k_min..k_cap`` in the solver's operation
    order (``inf`` when the tier has no valid server count)."""
    n = len(powers)
    k_min = 1 if n_agents == 1 else n_agents
    k_cap = n - n_agents
    if k_cap < k_min:
        return math.inf
    candidates = powers[:offset] + powers[offset + n_agents :]
    prefix_power = [0.0]
    for power in candidates:
        prefix_power.append(prefix_power[-1] + power)
    server_rate = [server_sched_throughput(params, p) for p in candidates]
    comm = params.service_comm
    ceiling = -math.inf
    for k in range(k_min, k_cap + 1):
        pred = k * params.wpre / app_work
        rate = prefix_power[k] / app_work
        value = min(1.0 / (comm + (1.0 + pred) / rate), server_rate[k - 1])
        if value > ceiling:
            ceiling = value
    return ceiling


class TestNodeArrays:
    def test_slot_total_matches_scalar_sum(self):
        rng = random.Random(29)
        for _ in range(15):
            params = random_params(rng)
            powers = sorted(random_powers(rng, 50), reverse=True)
            arrays = NodeArrays(params, powers)
            n = len(powers)
            fastest = agent_sched_throughput(params, powers[0], 1)
            for scale in (1.0, 0.2, 1e-3):
                target = fastest * scale
                lo, hi = 3, 41
                total = arrays.slot_total(lo, hi, target, n)
                reference = sum(
                    min(supported_children(params, p, target), n)
                    for p in powers[lo:hi]
                )
                # Early-exit paths may stop once the clip budget is blown;
                # every caller clamps to the budget, so totals only have
                # to agree below it.
                assert total == reference or (total > n and reference > n)

    def test_server_slots_non_increasing_in_target(self):
        """``slot_total`` clamped the way the fixed-point solver clamps it
        never rises with the target rate: the premise of its bracketed
        bisection.  Tiers under ``VECTOR_TIER`` take the scalar early-exit
        loop, the wider ones the vector pass."""
        rng = random.Random(37)
        n = 2 * NodeArrays.VECTOR_TIER + 40
        tiers = [(0, 1), (0, 3), (2, 40), (7, 7 + NodeArrays.VECTOR_TIER - 1),
                 (5, 5 + NodeArrays.VECTOR_TIER + 10), (0, n // 2)]
        for _ in range(4):
            params = random_params(rng)
            powers = sorted(random_powers(rng, n), reverse=True)
            arrays = NodeArrays(params, powers)
            fastest = agent_sched_throughput(params, powers[0], 1)
            grid = {fastest * 2.0 ** (-e / 4) for e in range(120)}
            # The exact rates where a node's supported degree steps, and
            # their neighbouring floats.
            for p in rng.sample(powers, 12):
                fixed = params.agent_fixed_work / p + params.agent_comm_base
                per_child = params.wsel / p + params.agent_child_comm
                for degree in (1, 2, 3, 7, 50, n):
                    grid.add(1.0 / (fixed + degree * per_child))
            targets = set()
            for t in grid:
                targets.update((t, math.nextafter(t, 0.0),
                                math.nextafter(t, math.inf)))
            targets = sorted(targets)
            for lo, hi in tiers:
                n_agents = hi - lo
                k_cap = n - n_agents
                counts = [
                    max(0, min(arrays.slot_total(lo, hi, t, n)
                               - (n_agents - 1), k_cap))
                    for t in targets
                ]
                assert all(a >= b for a, b in zip(counts, counts[1:]))
                assert counts[0] == k_cap and counts[-1] == 0

    def test_service_ceiling_bounds_every_solved_rho(self):
        """Every tier a full solve returns has ``rho <= min(t_hi,
        service_ceiling)`` bit for bit, with no tolerance."""
        rng = random.Random(41)
        for trial in range(12):
            params = random_params(rng) if trial % 2 else DEFAULT_PARAMS
            n = rng.randrange(2, 60)
            if trial % 3 == 0:
                powers = [rng.uniform(5.0, 5000.0)] * n
            else:
                powers = random_powers(rng, n)
            pool = NodePool.heterogeneous(powers)
            app_work = rng.uniform(0.5, 5e3)
            demand = None if trial % 4 < 2 else rng.uniform(0.01, 1e3)
            planner = HeuristicPlanner(params, agent_selection="windowed")
            ranked = sort_nodes(pool, params)
            arrays = NodeArrays.for_nodes(params, ranked)
            for n_agents in range(1, max(1, n // 2) + 1):
                for offset in planner._agent_windows(n, n_agents):
                    solved = planner._solve_for_agents(
                        arrays, offset, n_agents, app_work, demand
                    )
                    if solved is None:
                        continue
                    ceiling = tier_ceiling(
                        arrays, offset, n_agents, app_work, demand
                    )
                    assert solved[0] <= ceiling

    def test_tier_at_its_ceiling_is_still_solved(self):
        """The planner skips a tier only when its ceiling is strictly
        below the bar: at the ceiling itself the tier may still tie.  The
        skip is reported as ``_BELOW_BAR``, never as infeasible ``None``:
        only a below-bar skip may end a ``fastest`` sweep."""
        pool = NodePool.uniform_random(60, low=80, high=400, seed=5)
        ranked = sort_nodes(pool, DEFAULT_PARAMS)
        arrays = NodeArrays.for_nodes(DEFAULT_PARAMS, ranked)
        planner = HeuristicPlanner(DEFAULT_PARAMS)
        app_work = dgemm_mflop(310)
        for n_agents in (1, 4, 20):
            full = planner._solve_for_agents(arrays, 0, n_agents, app_work, None)
            ceiling = tier_ceiling(arrays, 0, n_agents, app_work, None)
            assert planner._solve_for_agents(
                arrays, 0, n_agents, app_work, None, ceiling
            ) == full
            assert planner._solve_for_agents(
                arrays, 0, n_agents, app_work, None,
                math.nextafter(ceiling, math.inf),
            ) is _BELOW_BAR

    @pytest.mark.parametrize("kind", ["distinct", "tied", "homogeneous"])
    def test_offset_zero_bounds_never_rise_with_agents(self, kind):
        """At offset 0, ``t_hi`` and ``service_ceiling`` are non-increasing
        in the tier size A, bit for bit: the premise that lets a
        ``fastest`` sweep end at its first below-bar tier.  The pools are
        wide enough for a tier of exactly ``VECTOR_TIER`` agents."""
        rng = random.Random(47)
        n = 2 * NodeArrays.VECTOR_TIER + 6
        for trial in range(3):
            params = random_params(rng) if trial else DEFAULT_PARAMS
            if kind == "distinct":
                powers = random_powers(rng, n)
            elif kind == "tied":
                levels = random_powers(rng, 3)
                powers = [levels[i % 3] for i in range(n)]
            else:
                powers = [rng.uniform(5.0, 5000.0)] * n
            ranked = sort_nodes(NodePool.heterogeneous(powers), params)
            arrays = NodeArrays.for_nodes(params, ranked)
            app_work = rng.uniform(0.5, 5e3)
            demand = None if trial < 2 else rng.uniform(0.01, 1e3)
            sizes = range(1, n // 2 + 1)
            assert NodeArrays.VECTOR_TIER in sizes
            bounds = [
                tier_bounds(arrays, 0, a, app_work, demand) for a in sizes
            ]
            for (t_hi, ceiling), (next_t_hi, next_ceiling) in zip(
                bounds, bounds[1:]
            ):
                assert next_t_hi <= t_hi
                assert next_ceiling <= ceiling

    def test_live_bracket_counts_what_slot_total_counts(self, monkeypatch):
        """At every midpoint of real bisections, the live-agent bracket's
        server count equals the clamped ``slot_total`` count, on tiers
        below and above ``VECTOR_TIER``."""
        tiers = {}
        checked = []
        init = heuristic._LiveSlots.__init__
        total = heuristic._LiveSlots.total

        def spy_init(self, arrays, a_lo, a_hi, t_lo, t_hi, clip):
            tiers[id(self)] = (arrays, a_lo, a_hi, clip)
            init(self, arrays, a_lo, a_hi, t_lo, t_hi, clip)

        def spy_total(self, target):
            slots = total(self, target)
            checked.append((tiers[id(self)], target, slots))
            return slots

        monkeypatch.setattr(heuristic._LiveSlots, "__init__", spy_init)
        monkeypatch.setattr(heuristic._LiveSlots, "total", spy_total)
        rng = random.Random(53)
        n = 2 * NodeArrays.VECTOR_TIER + 40
        vt = NodeArrays.VECTOR_TIER
        for trial in range(4):
            params = DEFAULT_PARAMS if trial < 2 else random_params(rng)
            # A narrow power band keeps wide tiers short of k_cap slots at
            # t_hi, so they bisect across k jumps too.
            if trial % 2:
                powers = [rng.uniform(1000.0, 1100.0) for _ in range(n)]
            else:
                powers = random_powers(rng, n)
            ranked = sort_nodes(NodePool.heterogeneous(powers), params)
            arrays = NodeArrays.for_nodes(params, ranked)
            planner = HeuristicPlanner(params)
            for app_work in (2.0, 100.0, 1e3):
                for n_agents in (1, 2, 9, 40, vt - 1, vt, vt + 1, vt + 20):
                    for offset in (0, 3):
                        planner._solve_for_agents(
                            arrays, offset, n_agents, app_work, None
                        )
        sizes = set()
        for (arrays, a_lo, a_hi, clip), target, slots in checked:
            n_agents = a_hi - a_lo
            k_cap = arrays.n - n_agents
            reference = arrays.slot_total(a_lo, a_hi, target, clip)
            assert max(0, min(slots - (n_agents - 1), k_cap)) == max(
                0, min(reference - (n_agents - 1), k_cap)
            )
            sizes.add(n_agents)
        assert min(sizes) < vt <= max(sizes)

    def test_service_ceiling_matches_scalar_reference(self):
        rng = random.Random(43)
        for _ in range(10):
            params = random_params(rng)
            n = rng.randrange(2, 80)
            powers = sorted(random_powers(rng, n), reverse=True)
            app_work = rng.uniform(0.5, 5e3)
            arrays = NodeArrays(params, powers)
            for n_agents in range(1, max(1, n // 2) + 1):
                for offset in sorted({0, 1, n - n_agents}):
                    if offset > n - n_agents:
                        continue
                    assert tier_bounds(
                        arrays, offset, n_agents, app_work, None
                    )[1] == reference_service_ceiling(
                        params, powers, offset, n_agents, app_work
                    )

    def test_rejects_bad_powers(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                NodeArrays(DEFAULT_PARAMS, [100.0, bad])

    def test_rate_arrays_match_scalar(self):
        rng = random.Random(31)
        params = random_params(rng)
        powers = sorted(random_powers(rng, 30), reverse=True)
        arrays = NodeArrays(params, powers)
        for i, p in enumerate(powers):
            assert float(arrays.sched_deg1[i]) == agent_sched_throughput(
                params, p, 1
            )
            assert float(arrays.sched_deg2[i]) == agent_sched_throughput(
                params, p, 2
            )
            assert float(arrays.server_rate[i]) == server_sched_throughput(
                params, p
            )


class TestHierarchyEvaluator:
    def hierarchies(self):
        pool = NodePool.uniform_random(40, low=50, high=500, seed=3)
        yield star_deployment(pool)
        yield balanced_deployment(pool, 4)
        plan = HeuristicPlanner(DEFAULT_PARAMS).plan(pool, dgemm_mflop(200))
        yield plan.hierarchy

    def test_equals_cold_evaluation(self):
        evaluator = HierarchyEvaluator(DEFAULT_PARAMS)
        for hierarchy in self.hierarchies():
            for app_work in (dgemm_mflop(100), dgemm_mflop(310)):
                cold = hierarchy_throughput(
                    hierarchy, DEFAULT_PARAMS, app_work
                )
                for _ in range(2):  # second pass exercises warm caches
                    warm = evaluator.evaluate(hierarchy, app_work)
                    assert warm.throughput == cold.throughput
                    assert warm.sched == cold.sched
                    assert warm.service == cold.service
                    assert warm.bottleneck == cold.bottleneck
                    assert warm.limiting_node == cold.limiting_node
                    assert dict(warm.node_rates) == dict(cold.node_rates)

    def test_caches_fill_and_hit(self):
        evaluator = HierarchyEvaluator(DEFAULT_PARAMS)
        pool = NodePool.homogeneous(30, 265.0)
        hierarchy = balanced_deployment(pool, 3)
        evaluator.evaluate(hierarchy, dgemm_mflop(100))
        info = evaluator.cache_info()
        # Homogeneous pool: one server rate, few distinct agent shapes.
        assert info["server_rates"] == 1
        assert 1 <= info["agent_rates"] <= 3
        assert info["service_rates"] == 1

    def test_no_servers_rejected(self):
        from repro.core.hierarchy import Hierarchy

        lonely = Hierarchy()
        lonely.set_root("a", 100.0)
        with pytest.raises(ParameterError):
            HierarchyEvaluator(DEFAULT_PARAMS).evaluate(lonely, 100.0)

