"""Property-based tests on the planners (hypothesis)."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.baselines import star_deployment
from repro.core.heuristic import HeuristicPlanner, sort_nodes
from repro.core.hierarchy import Role
from repro.core.kernels import NodeArrays
from repro.core.optimal import exhaustive_plan
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import PlanningError
from repro.platforms.pool import NodePool

PARAMS = ModelParams()

pools = st.lists(
    st.floats(min_value=20.0, max_value=800.0),
    min_size=2,
    max_size=24,
).map(NodePool.heterogeneous)

small_pools = st.lists(
    st.floats(min_value=20.0, max_value=800.0),
    min_size=2,
    max_size=6,
).map(NodePool.heterogeneous)

app_works = st.floats(min_value=1e-3, max_value=5e3)


class TestPlanValidity:
    @given(pools, app_works)
    @settings(max_examples=60, deadline=None)
    def test_heuristic_always_produces_valid_plan(self, pool, wapp):
        plan = HeuristicPlanner(PARAMS).plan(pool, wapp)
        plan.hierarchy.validate(strict=True)
        # Every deployed node comes from the pool with its rated power.
        for node in plan.hierarchy:
            assert str(node) in pool
            assert plan.hierarchy.power(node) == pool[str(node)].power

    @given(pools, app_works)
    @settings(max_examples=40, deadline=None)
    def test_heuristic_servers_are_leaves_agents_internal(self, pool, wapp):
        plan = HeuristicPlanner(PARAMS).plan(pool, wapp)
        h = plan.hierarchy
        for node in h:
            if h.role(node) is Role.SERVER:
                assert not h.children(node)
            elif node != h.root:
                assert len(h.children(node)) >= 2

    @given(pools, app_works)
    @settings(max_examples=40, deadline=None)
    def test_incremental_strategy_also_valid(self, pool, wapp):
        plan = HeuristicPlanner(PARAMS, strategy="incremental").plan(pool, wapp)
        plan.hierarchy.validate(strict=True)


class TestPlanQuality:
    @given(pools, app_works)
    @settings(max_examples=40, deadline=None)
    def test_heuristic_at_least_matches_best_trivial_baseline(self, pool, wapp):
        """The heuristic must never lose to the two deployments anyone
        would write by hand: the full star and the minimal pair."""
        plan = HeuristicPlanner(PARAMS).plan(pool, wapp)
        sorted_pool = pool.sorted_by_power()
        star_rho = hierarchy_throughput(
            star_deployment(sorted_pool), PARAMS, wapp
        ).throughput
        pair_rho = hierarchy_throughput(
            star_deployment(sorted_pool.take(2)), PARAMS, wapp
        ).throughput
        assert plan.throughput >= max(star_rho, pair_rho) * (1 - 1e-9)

    @given(small_pools, app_works)
    @settings(max_examples=30, deadline=None)
    def test_windowed_heuristic_within_factor_two_of_optimal(self, pool, wapp):
        """Exhaustive search bounds the windowed heuristic's regret.

        The paper's fastest-as-agent policy has *unbounded* regret on
        adversarial pools (a very fast node wasted on scheduling — see
        test_windowed_fixes_pathological_pool).  The windowed extension
        also tries slow-agent windows, keeping it within 2x of optimal on
        every pool hypothesis can find.
        """
        plan = HeuristicPlanner(PARAMS, agent_selection="windowed").plan(
            pool, wapp
        )
        best = exhaustive_plan(pool, PARAMS, wapp)
        assert plan.throughput >= 0.5 * best.throughput - 1e-9

    @given(pools, app_works)
    @settings(max_examples=30, deadline=None)
    def test_windowed_never_worse_than_fastest(self, pool, wapp):
        fastest = HeuristicPlanner(PARAMS).plan(pool, wapp)
        windowed = HeuristicPlanner(PARAMS, agent_selection="windowed").plan(
            pool, wapp
        )
        assert windowed.throughput >= fastest.throughput - 1e-9

    def test_windowed_fixes_pathological_pool(self):
        """One very fast + one slow node, service-bound workload: the
        paper's policy parks the fast node as the agent (rho ~ 0.01 req/s);
        putting the slow node in charge lets the fast node serve
        (rho ~ 10 req/s)."""
        pool = NodePool.heterogeneous([10000.0, 10.0])
        wapp = 1000.0
        fastest = HeuristicPlanner(PARAMS).plan(pool, wapp)
        windowed = HeuristicPlanner(PARAMS, agent_selection="windowed").plan(
            pool, wapp
        )
        best = exhaustive_plan(pool, PARAMS, wapp)
        assert fastest.throughput < 0.01 * best.throughput
        assert windowed.throughput == pytest.approx(best.throughput, rel=1e-6)

    @given(
        st.integers(min_value=2, max_value=24),
        st.floats(min_value=50.0, max_value=500.0),
        app_works,
    )
    @settings(max_examples=30, deadline=None)
    def test_homogeneous_pools_heuristic_close_to_optimal_dary(
        self, n, power, wapp
    ):
        """On homogeneous pools the d-ary search of [10] is provably
        optimal among trees using the same node count; the heuristic must
        achieve at least 89% of it (the paper's Table 4 floor)."""
        from repro.core.homogeneous import HomogeneousPlanner

        pool = NodePool.homogeneous(n, power)
        heuristic = HeuristicPlanner(PARAMS).plan(pool, wapp)
        optimal = HomogeneousPlanner(PARAMS).plan(pool, wapp)
        assert heuristic.throughput >= 0.89 * optimal.throughput - 1e-9


class TestDemandProperties:
    @given(pools, app_works, st.floats(min_value=0.1, max_value=1e4))
    @settings(max_examples=40, deadline=None)
    def test_demand_never_uses_more_nodes_than_free_plan(
        self, pool, wapp, demand
    ):
        planner = HeuristicPlanner(PARAMS)
        free = planner.plan(pool, wapp)
        capped = planner.plan(pool, wapp, demand=demand)
        capped.hierarchy.validate(strict=True)
        if capped.throughput >= demand:
            assert capped.nodes_used <= free.nodes_used

    @given(pools, app_works)
    @settings(max_examples=30, deadline=None)
    def test_determinism(self, pool, wapp):
        a = HeuristicPlanner(PARAMS).plan(pool, wapp)
        b = HeuristicPlanner(PARAMS).plan(pool, wapp)
        assert a.hierarchy.nodes == b.hierarchy.nodes
        assert a.throughput == b.throughput


# ---------------------------------------------------------------------- #
# exactness of the pruned fixed-point sweep

_REL_TOL = 1e-9


def reference_solve(planner, arrays, offset, n_agents, app_work, demand):
    """One tier solved in full: the plain 64-step bisection, no pruning."""
    n = arrays.n
    if n - n_agents < 1:
        return None
    k_min = 1 if n_agents == 1 else n_agents
    k_cap = n - n_agents
    if k_cap < k_min:
        return None
    a_lo, a_hi = offset, offset + n_agents
    t_hi = float(arrays.sched_deg1[a_lo])
    if n_agents > 1:
        t_hi = min(t_hi, arrays.min_sched_deg2(a_lo + 1, a_hi))
    if demand is not None:
        t_hi = min(t_hi, demand)
    if offset == 0:
        cand_sel = slice(n_agents, n)
    else:
        cand_sel = list(range(offset)) + list(range(a_hi, n))
    cand_powers, _, _, cand_server_rate = arrays.select(cand_sel)
    prefix_power = arrays.prefix_powers(cand_powers)
    comm = planner.params.service_comm
    wpre = planner.params.wpre

    def server_slots(t):
        slots = arrays.slot_total(a_lo, a_hi, t, n)
        return max(0, min(slots - (n_agents - 1), k_cap))

    def service_of(k):
        pred = k * wpre / app_work
        rate = prefix_power[k] / app_work
        return 1.0 / (comm + (1.0 + pred) / rate)

    def floor_of(k):
        return float(cand_server_rate[k - 1])

    def achievable(t):
        k = server_slots(t)
        if k < k_min:
            return None
        return min(t, service_of(k), floor_of(k))

    hi_value = achievable(t_hi)
    if hi_value is not None and hi_value >= t_hi - _REL_TOL:
        k = planner._min_servers(
            k_min, server_slots(t_hi), t_hi, service_of, floor_of
        )
        return float(min(t_hi, service_of(k), floor_of(k))), k, t_hi
    t_lo = t_hi
    value = None
    for _ in range(200):
        t_lo /= 2.0
        value = achievable(t_lo)
        if value is not None and value >= t_lo - _REL_TOL:
            break
        if t_lo < 1e-12:
            return None
    if value is None:
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
    rho = min(lo, service_of(k), floor_of(k))
    if demand is not None and rho > demand:
        k = planner._min_servers(k_min, k, demand, service_of, floor_of)
        rho = min(lo, service_of(k), floor_of(k))
    return float(rho), k, lo


def reference_sweep(planner, ranked, app_work, demand):
    """The chosen ``(rho, used, n_agents, offset, target)``, every tier solved."""
    n = len(ranked)
    arrays = NodeArrays.for_nodes(planner.params, ranked)
    best = cheapest = None
    for n_agents in range(1, max(1, n // 2) + 1):
        for offset in planner._agent_windows(n, n_agents):
            solved = reference_solve(
                planner, arrays, offset, n_agents, app_work, demand
            )
            if solved is None:
                continue
            rho, n_servers, target = solved
            used = n_agents + n_servers
            entry = (rho, used, n_agents, offset, target)
            if best is None or (rho, -used) > (best[0], -best[1]):
                best = entry
            if demand is not None and rho >= demand - _REL_TOL:
                if cheapest is None or used < cheapest[1]:
                    cheapest = entry
    if best is None:
        raise PlanningError("no feasible agent/server split found")
    return cheapest if cheapest is not None else best


def edges(hierarchy):
    return sorted(
        (str(node), str(hierarchy.parent(node)), hierarchy.role(node).name)
        for node in hierarchy
    )


@st.composite
def exactness_cases(draw):
    """Pools of every shape the sweep prunes differently.

    Sizes past ``2 * NodeArrays.VECTOR_TIER`` put agent tiers on the
    vectorized ``slot_total`` path; tied and homogeneous powers make
    ranking ties and equal-rho tiers.
    """
    size = draw(
        st.one_of(
            st.integers(2, 40),
            st.integers(41, 160),
            st.integers(
                2 * NodeArrays.VECTOR_TIER + 2, 2 * NodeArrays.VECTOR_TIER + 24
            ),
        )
    )
    kind = draw(st.sampled_from(["distinct", "tied", "homogeneous"]))
    if kind == "distinct":
        powers = draw(
            st.lists(
                st.floats(min_value=20.0, max_value=800.0),
                min_size=size,
                max_size=size,
            )
        )
    elif kind == "tied":
        levels = draw(
            st.lists(
                st.floats(min_value=20.0, max_value=800.0),
                min_size=1,
                max_size=3,
            )
        )
        powers = [levels[i % len(levels)] for i in range(size)]
    else:
        powers = [draw(st.floats(min_value=20.0, max_value=800.0))] * size
    wapp = draw(app_works)
    # A demand from far below to just above the pool's raw service power,
    # so both the best and the cheapest-meeting-demand rule decide.
    fraction = draw(st.none() | st.floats(min_value=1e-4, max_value=1.2))
    demand = None if fraction is None else fraction * sum(powers) / wapp
    selection = draw(st.sampled_from(["fastest", "windowed"]))
    return NodePool.heterogeneous(powers), wapp, demand, selection


class TestPrunedSweepExactness:
    @given(exactness_cases())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_pruned_sweep_matches_full_sweep(self, case):
        """Skipping ceiling-bounded tiers, ending a ``fastest`` sweep at
        its first below-bar tier, and the bracketed and live-agent
        bisection steps pick the same tier, target and tree as solving
        every tier in full."""
        pool, wapp, demand, selection = case
        planner = HeuristicPlanner(PARAMS, agent_selection=selection)
        ranked = sort_nodes(pool, PARAMS)
        try:
            expected = reference_sweep(planner, ranked, wapp, demand)
        except PlanningError:
            with pytest.raises(PlanningError):
                planner._sweep(ranked, wapp, demand)
            return
        chosen = planner._sweep(ranked, wapp, demand)
        assert chosen == expected
        if planner._early_exit(ranked, wapp, demand) is not None:
            return
        rho, used, n_agents, offset, target = expected
        candidates = ranked[:offset] + ranked[offset + n_agents :]
        reference_tree = planner._materialize(
            ranked[offset : offset + n_agents],
            candidates[: used - n_agents],
            target,
        )
        planner._repair(reference_tree)
        plan = planner.plan(pool, wapp, demand=demand)
        assert edges(plan.hierarchy) == edges(reference_tree)


@st.composite
def tier_cases(draw):
    """A pool and the tiers of it to solve one by one.

    Pools up to 60 nodes solve every tier; past ``2 *
    NodeArrays.VECTOR_TIER`` nodes, the tiers either side of
    ``VECTOR_TIER`` and a drawn handful.  A narrow power band (1000-1100)
    makes the one-slot jumps and also wider gaps; single-agent tiers make
    a live agent clipped at ``clip == n`` and one whose ``hi_term`` is
    the ``budget < b`` zero.
    """
    vt = NodeArrays.VECTOR_TIER
    size = draw(
        st.one_of(
            st.integers(2, 60),
            st.integers(2 * vt + 24, 2 * vt + 48),
        )
    )
    kind = draw(st.sampled_from(["distinct", "band", "tied"]))
    if kind == "distinct":
        power = st.floats(min_value=20.0, max_value=800.0)
    elif kind == "band":
        power = st.floats(min_value=1000.0, max_value=1100.0)
    else:
        power = st.sampled_from([150.0, 400.0])
    powers = draw(st.lists(power, min_size=size, max_size=size))
    wapp = draw(app_works)
    fraction = draw(st.none() | st.floats(min_value=1e-4, max_value=1.2))
    demand = None if fraction is None else fraction * sum(powers) / wapp
    selection = draw(st.sampled_from(["fastest", "windowed"]))
    top = max(1, size // 2)
    if size <= 60:
        tiers = range(1, top + 1)
    else:
        drawn = draw(st.lists(st.integers(1, top), max_size=4))
        tiers = sorted({1, vt - 1, vt, vt + 1, top, *drawn})
    return NodePool.heterogeneous(powers), wapp, demand, selection, tiers


def _band_case(selection, demand_fraction):
    """A 360-node pool in the narrow band, whose tiers either side of
    ``VECTOR_TIER`` bisect across k jumps (a drawn band pool as large
    mostly saturates ``k_cap`` at ``t_hi`` instead)."""
    rng = random.Random(71)
    vt = NodeArrays.VECTOR_TIER
    powers = [rng.uniform(1000.0, 1100.0) for _ in range(2 * vt + 40)]
    wapp = 1000.0
    demand = (
        None if demand_fraction is None
        else demand_fraction * sum(powers) / wapp
    )
    tiers = [1, 2, vt - 1, vt, vt + 1, vt + 20]
    return NodePool.heterogeneous(powers), wapp, demand, selection, tiers


class TestTierExactness:
    @given(tier_cases())
    @example(_band_case("fastest", None))
    @example(_band_case("windowed", 0.05))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_every_tier_matches_reference_solve(self, case):
        """Each tier and window solves to the plain 64-step bisection's
        ``(rho, n_servers, target)`` bit for bit, not only the tier the
        sweep picks: the live-agent, jump-threshold and constant-``k``
        steps keep every midpoint and feasibility outcome."""
        pool, wapp, demand, selection, tiers = case
        planner = HeuristicPlanner(PARAMS, agent_selection=selection)
        ranked = sort_nodes(pool, PARAMS)
        arrays = NodeArrays.for_nodes(PARAMS, ranked)
        for n_agents in tiers:
            for offset in planner._agent_windows(arrays.n, n_agents):
                assert planner._solve_for_agents(
                    arrays, offset, n_agents, wapp, demand
                ) == reference_solve(
                    planner, arrays, offset, n_agents, wapp, demand
                )
