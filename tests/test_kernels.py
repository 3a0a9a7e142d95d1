"""Kernel arrays and memoized evaluation (`repro.core.kernels`).

The contract under test: every array or cached quantity equals the
scalar Eq. 11–16 reference bit for bit — ``NodeArrays`` against
``core/throughput.py`` and ``heuristic.supported_children``, its service
ceiling against a plain-Python loop over the same expressions, and
``HierarchyEvaluator`` against the plain BFS walk of
``test_properties_throughput``.
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
from repro.core.kernels import _REL_TOL, HierarchyEvaluator, NodeArrays
from repro.core.params import DEFAULT_PARAMS, LevelSizes, ModelParams
from repro.core.throughput import (
    agent_sched_throughput,
    server_sched_throughput,
)
from repro.errors import ParameterError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop
from test_properties_throughput import (
    reference_hierarchy_throughput,
    report_fields,
)


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

    def test_midpoint_counts_are_slot_total_counts(self, monkeypatch):
        """The server count a bisection midpoint reads equals the clamped
        ``slot_total`` count, on tiers below and above ``VECTOR_TIER``.

        Re-summing steps read ``base`` plus the live agents' terms from
        ``NodeArrays.live_terms``; these are checked at both bracket ends
        and at every midpoint of the bisection's own path and of three
        random paths through the bracket.  A
        one-slot step reads ``k_lo`` below ``_jump_threshold``'s ``tau``
        and ``k_hi`` from it on.  As ``k`` is non-increasing in the
        target, that is the ``slot_total`` count at every float of the
        bracket when ``k`` is the same at ``lo`` and the float before
        ``tau``, and the same at ``tau`` and ``hi``.
        """
        brackets = []
        jumps = []
        live_terms = NodeArrays.live_terms
        jump_threshold = heuristic._jump_threshold

        def spy_live_terms(arrays, lo, hi, t_lo, t_hi, clip):
            base, live = live_terms(arrays, lo, hi, t_lo, t_hi, clip)
            brackets.append((tier, t_lo, t_hi, base, list(live)))
            return base, live

        def spy_jump(fixed, per_child, lo_term, lo, hi):
            tau = jump_threshold(fixed, per_child, lo_term, lo, hi)
            jumps.append((tier, lo, hi, tau))
            return tau

        monkeypatch.setattr(NodeArrays, "live_terms", spy_live_terms)
        monkeypatch.setattr(heuristic, "_jump_threshold", spy_jump)
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
                        tier = (arrays, offset, offset + n_agents)
                        opened = len(brackets)
                        solved = planner._solve_for_agents(
                            arrays, offset, n_agents, app_work, None
                        )
                        if len(brackets) > opened:
                            brackets[-1] += (solved[2],)

        def count(tier, target):
            arrays, a_lo, a_hi = tier
            slots = arrays.slot_total(a_lo, a_hi, target, arrays.n)
            n_agents = a_hi - a_lo
            return max(0, min(slots - (n_agents - 1), arrays.n - n_agents))

        def live_count(tier, base, live, target):
            arrays, a_lo, a_hi = tier
            slots = base
            for fixed, per_child, lo_term, hi_term in live:
                budget = 1.0 / target - fixed
                term = (
                    0 if budget < per_child
                    else min(int(budget / per_child + _REL_TOL), arrays.n)
                )
                assert hi_term <= term <= lo_term
                slots += term
            n_agents = a_hi - a_lo
            return max(0, min(slots - (n_agents - 1), arrays.n - n_agents))

        paths = random.Random(59)
        sizes = set()
        for tier, t_lo, t_hi, base, live, end in brackets:
            for target in (t_lo, t_hi):
                assert live_count(tier, base, live, target) == count(
                    tier, target
                )
            for path in range(4):
                lo, hi = t_lo, t_hi
                for _ in range(64):
                    mid = 0.5 * (lo + hi)
                    assert live_count(tier, base, live, mid) == count(
                        tier, mid
                    )
                    # Path 0 is the bisection's own: a feasible midpoint
                    # became lo, so it is at or below the lo the solve
                    # returned, and an infeasible one lies above it.
                    if mid <= end if path == 0 else paths.random() < 0.5:
                        lo = mid
                    else:
                        hi = mid
            sizes.add(tier[2] - tier[1])
        assert min(sizes) < vt <= max(sizes)
        assert jumps
        for tier, lo, hi, tau in jumps:
            assert lo < tau <= hi
            before = math.nextafter(tau, 0.0)
            assert count(tier, lo) == count(tier, before)
            assert count(tier, tau) == count(tier, hi) != count(tier, lo)

    @pytest.mark.parametrize("ulps", [heuristic._THRESHOLD_ULPS, 0])
    def test_jump_threshold_is_the_exact_jump(self, monkeypatch, ulps):
        """``_jump_threshold`` returns the float at which the slot term
        drops below its value at ``lo``: the term is ``lo_term`` at the
        float before it and lower at it.  ``ulps=0`` and brackets one or
        two floats wide around the jump make it bisect the whole bracket
        instead of the few ulps around its closed form."""
        monkeypatch.setattr(heuristic, "_THRESHOLD_ULPS", ulps)
        rng = random.Random(61)

        def term(target, fixed, per_child, clip):
            budget = 1.0 / target - fixed
            if budget < per_child:
                return 0
            return min(int(budget / per_child + _REL_TOL), clip)

        checked = 0
        for trial in range(3000):
            if trial % 2:
                fixed = rng.uniform(1e-4, 0.1)
                per_child = rng.uniform(1e-5, 1e-2)
                lo_term = rng.randrange(1, 600)
            else:
                fixed = 10 ** rng.uniform(-12, 6)
                per_child = 10 ** rng.uniform(-12, 6)
                lo_term = int(10 ** rng.uniform(0, 12))
            clip = lo_term + rng.choice([0, 0, 1, 5])
            # Bracket ends half a slot either side of the jump.
            lo = 1.0 / (fixed + (lo_term + 0.5) * per_child)
            hi = 1.0 / (fixed + max(lo_term - 0.5, 0.5) * per_child)
            if not (
                term(lo, fixed, per_child, clip) == lo_term
                > term(hi, fixed, per_child, clip)
            ):
                continue
            tau = heuristic._jump_threshold(fixed, per_child, lo_term, lo, hi)
            before = math.nextafter(tau, 0.0)
            assert lo < tau <= hi
            assert term(before, fixed, per_child, clip) == lo_term
            assert term(tau, fixed, per_child, clip) < lo_term
            # The tightest brackets around the jump give the same float.
            for lo_, hi_ in ((before, tau), (math.nextafter(before, 0.0), tau),
                             (before, math.nextafter(tau, math.inf))):
                if lo_ > lo and hi_ <= hi:
                    assert heuristic._jump_threshold(
                        fixed, per_child, lo_term, lo_, hi_
                    ) == tau
            checked += 1
        assert checked > 2500

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
                cold = reference_hierarchy_throughput(
                    hierarchy, DEFAULT_PARAMS, app_work
                )
                for _ in range(2):  # second pass exercises warm caches
                    warm = evaluator.evaluate(hierarchy, app_work)
                    assert report_fields(warm) == report_fields(cold)

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

