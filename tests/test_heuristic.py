"""The deployment heuristic (Algorithm 1)."""

import math

import pytest

from repro.core.heuristic import (
    _BELOW_BAR,
    HeuristicPlanner,
    calc_hier_ser_pow,
    calc_sch_pow,
    sort_nodes,
    supported_children,
)
from repro.core.params import ModelParams
from repro.core.throughput import (
    agent_sched_throughput,
    hierarchy_throughput,
    service_throughput,
)
from repro.errors import PlanningError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


@pytest.fixture
def planner(p) -> HeuristicPlanner:
    return HeuristicPlanner(p)


class TestProcedures:
    """The paper's Table 1 procedures."""

    def test_calc_sch_pow_matches_agent_rate(self, p):
        assert calc_sch_pow(p, 265.0, 5) == pytest.approx(
            agent_sched_throughput(p, 265.0, 5)
        )

    def test_calc_hier_ser_pow_matches_eq15(self, p):
        assert calc_hier_ser_pow(p, [265.0, 200.0], 16.0) == pytest.approx(
            service_throughput(p, [265.0, 200.0], [16.0, 16.0])
        )

    def test_sort_nodes_descending_power(self, p):
        pool = NodePool.heterogeneous([100.0, 300.0, 200.0])
        ranked = sort_nodes(pool, p)
        assert [n.power for n in ranked] == [300.0, 200.0, 100.0]

    def test_sort_nodes_deterministic_on_ties(self, p):
        pool = NodePool.homogeneous(5, 100.0)
        first = [n.name for n in sort_nodes(pool, p)]
        second = [n.name for n in sort_nodes(pool, p)]
        assert first == second

    def test_supported_children_consistent_with_rate(self, p):
        target = 500.0
        d = supported_children(p, 265.0, target)
        assert d >= 1
        assert calc_sch_pow(p, 265.0, d) >= target
        assert calc_sch_pow(p, 265.0, d + 1) < target

    def test_supported_children_zero_when_target_unreachable(self, p):
        max_rate = calc_sch_pow(p, 265.0, 1)
        assert supported_children(p, 265.0, max_rate * 2) == 0

    def test_supported_children_grows_as_target_falls(self, p):
        counts = [
            supported_children(p, 265.0, target)
            for target in (1400.0, 1000.0, 500.0, 100.0)
        ]
        assert counts == sorted(counts)

    def test_supported_children_rejects_bad_target(self, p):
        with pytest.raises(PlanningError):
            supported_children(p, 265.0, 0.0)


class TestPaperScenarios:
    """The qualitative outcomes §5 reports."""

    def test_tiny_grain_one_agent_one_server(self, planner):
        # Step 6 early exit: DGEMM 10x10 is scheduling-bound at degree 1.
        pool = NodePool.homogeneous(21, 265.0)
        plan = planner.plan(pool, dgemm_mflop(10))
        assert plan.hierarchy.shape_signature() == (2, 1, 1, 1)
        assert plan.hierarchy.degree(plan.hierarchy.root) == 1

    def test_huge_grain_spanning_star(self, planner):
        # Figure 7: DGEMM 1000x1000 -> the heuristic generates a star.
        pool = NodePool.homogeneous(40, 265.0)
        plan = planner.plan(pool, dgemm_mflop(1000))
        assert len(plan.hierarchy.agents) == 1
        assert plan.nodes_used == 40
        assert plan.report.bottleneck == "service"

    def test_medium_grain_beats_star_and_balanced(self, p, planner):
        # Figure 6: heterogeneous pool, DGEMM 310x310.
        from repro.core.baselines import balanced_deployment, star_deployment
        from repro.platforms.background import heterogenize

        pool = heterogenize(
            NodePool.homogeneous(60, 265.0), loaded_fraction=0.5, seed=3
        )
        wapp = dgemm_mflop(310)
        plan = planner.plan(pool, wapp)
        star_rho = hierarchy_throughput(star_deployment(pool), p, wapp).throughput
        balanced_rho = hierarchy_throughput(
            balanced_deployment(pool, 7), p, wapp
        ).throughput
        assert plan.throughput > balanced_rho
        assert plan.throughput > star_rho

    def test_fast_nodes_become_agents(self, p, planner):
        pool = NodePool.heterogeneous(
            [400.0, 390.0] + [100.0] * 30
        )
        plan = planner.plan(pool, dgemm_mflop(310))
        for agent in plan.hierarchy.agents:
            assert plan.hierarchy.power(agent) >= 390.0


class TestDemand:
    def test_demand_met_with_fewer_nodes(self, planner):
        pool = NodePool.homogeneous(40, 265.0)
        wapp = dgemm_mflop(200)
        free = planner.plan(pool, wapp)
        capped = planner.plan(pool, wapp, demand=40.0)
        assert capped.throughput >= 40.0 - 1e-6
        assert capped.nodes_used < free.nodes_used

    def test_tiny_demand_minimal_deployment(self, planner):
        pool = NodePool.homogeneous(40, 265.0)
        plan = planner.plan(pool, dgemm_mflop(200), demand=5.0)
        assert plan.nodes_used == 2

    def test_unreachable_demand_returns_best_effort(self, planner):
        pool = NodePool.homogeneous(10, 265.0)
        wapp = dgemm_mflop(1000)
        capped = planner.plan(pool, wapp, demand=1e9)
        free = planner.plan(pool, wapp)
        assert capped.throughput == pytest.approx(free.throughput, rel=1e-6)

    def test_rejects_nonpositive_demand(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(NodePool.homogeneous(4, 100.0), 1.0, demand=0.0)


class TestStrategies:
    def test_incremental_strategy_valid_and_reasonable(self, p):
        planner = HeuristicPlanner(p, strategy="incremental")
        pool = NodePool.uniform_random(30, low=80, high=400, seed=11)
        plan = planner.plan(pool, dgemm_mflop(310))
        plan.hierarchy.validate(strict=True)
        assert plan.strategy == "incremental"
        assert plan.steps  # the trace is recorded
        assert plan.throughput > 0

    def test_fixed_point_at_least_as_good_as_incremental(self, p):
        pool = NodePool.uniform_random(30, low=80, high=400, seed=11)
        wapp = dgemm_mflop(310)
        fixed = HeuristicPlanner(p).plan(pool, wapp)
        incremental = HeuristicPlanner(p, strategy="incremental").plan(pool, wapp)
        assert fixed.throughput >= incremental.throughput - 1e-9

    def test_promotion_ablation_limits_to_star(self, p):
        planner = HeuristicPlanner(
            p, strategy="incremental", allow_promotion=False
        )
        pool = NodePool.homogeneous(20, 265.0)
        plan = planner.plan(pool, dgemm_mflop(310))
        assert len(plan.hierarchy.agents) == 1

    def test_unknown_strategy_rejected(self, p):
        with pytest.raises(PlanningError):
            HeuristicPlanner(p, strategy="magic")

    def test_bad_patience_rejected(self, p):
        with pytest.raises(PlanningError):
            HeuristicPlanner(p, patience=0)


class TestRobustness:
    def test_two_node_pool(self, planner):
        plan = planner.plan(NodePool.homogeneous(2, 265.0), 16.0)
        assert plan.hierarchy.shape_signature() == (2, 1, 1, 1)

    def test_one_node_pool_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(NodePool.homogeneous(1, 265.0), 16.0)

    def test_rejects_nonpositive_work(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(NodePool.homogeneous(4, 265.0), 0.0)

    def test_plans_always_strictly_valid(self, planner):
        for seed in range(5):
            pool = NodePool.uniform_random(25, low=40, high=500, seed=seed)
            for size in (10, 100, 310, 1000):
                plan = planner.plan(pool, dgemm_mflop(size))
                plan.hierarchy.validate(strict=True)

    def test_deterministic(self, planner):
        pool = NodePool.uniform_random(25, low=40, high=500, seed=9)
        a = planner.plan(pool, dgemm_mflop(310))
        b = planner.plan(pool, dgemm_mflop(310))
        assert a.hierarchy.nodes == b.hierarchy.nodes
        assert a.throughput == pytest.approx(b.throughput)

    def test_describe_mentions_throughput(self, planner):
        plan = planner.plan(NodePool.homogeneous(6, 265.0), 16.0)
        assert "req/s" in plan.describe()

    def test_report_matches_fresh_evaluation(self, p, planner):
        pool = NodePool.uniform_random(20, low=60, high=350, seed=2)
        wapp = dgemm_mflop(310)
        plan = planner.plan(pool, wapp)
        fresh = hierarchy_throughput(plan.hierarchy, p, wapp).throughput
        assert plan.throughput == pytest.approx(fresh)


class TestSweepPruning:
    """The fixed-point sweep's skip rule (exactness is property-tested
    against a full sweep in test_properties_planner.py)."""

    def test_bar_stays_below_demand_tolerance(self, p, monkeypatch):
        """With a demand, a tier is skipped only below ``demand - 1e-9``:
        a tier that could still meet the demand within tolerance (and be
        cheaper) is always solved, even after the best rho reaches it."""
        bars = []
        solve = HeuristicPlanner._solve_for_agents

        def spy(self, arrays, offset, n_agents, app_work, demand, bar):
            bars.append(bar)
            return solve(self, arrays, offset, n_agents, app_work, demand, bar)

        monkeypatch.setattr(HeuristicPlanner, "_solve_for_agents", spy)
        pool = NodePool.uniform_random(80, low=80, high=400, seed=3)
        wapp = dgemm_mflop(310)
        free = HeuristicPlanner(p).plan(pool, wapp)
        demand = 0.5 * free.throughput
        bars.clear()
        plan = HeuristicPlanner(p).plan(pool, wapp, demand=demand)
        assert plan.throughput >= demand - 1e-9
        assert max(bars) == demand - 1e-9

    def test_skips_tiers_without_demand(self, p, monkeypatch):
        """Without a demand the bar is the best rho so far (the sweep's
        closed-form rho, within an ulp of the evaluated plan), and the
        service-bound tail of the sweep is skipped unsolved: the first
        tier whose ceiling falls below the bar reports ``_BELOW_BAR``, and
        the ``fastest`` sweep ends on it."""
        bars = []
        solve = HeuristicPlanner._solve_for_agents

        def spy(self, arrays, offset, n_agents, app_work, demand, bar):
            out = solve(self, arrays, offset, n_agents, app_work, demand, bar)
            bars.append((bar, out))
            return out

        monkeypatch.setattr(HeuristicPlanner, "_solve_for_agents", spy)
        pool = NodePool.uniform_random(120, low=80, high=400, seed=3)
        plan = HeuristicPlanner(p).plan(pool, dgemm_mflop(310))
        rising = [bar for bar, _ in bars]
        assert rising == sorted(rising)
        assert rising[-1] == pytest.approx(plan.throughput, rel=1e-12)
        outcomes = [out for _, out in bars]
        assert outcomes[-1] is _BELOW_BAR
        assert all(out is not _BELOW_BAR for out in outcomes[:-1])
        assert len(outcomes) < len(pool) // 2

    def test_infeasible_tier_does_not_end_the_sweep(self, p, monkeypatch):
        """Only a below-bar skip ends a ``fastest`` sweep: an infeasible
        tier (``None``) bounds nothing after it.  A real sweep never meets
        one (each tier's ``t_hi`` already gives every agent its minimum
        children), so a stub reports it."""
        seen = []
        solve = HeuristicPlanner._solve_for_agents

        def stub(self, arrays, offset, n_agents, app_work, demand, bar):
            seen.append(n_agents)
            if n_agents == 2:
                return None
            return solve(self, arrays, offset, n_agents, app_work, demand, bar)

        monkeypatch.setattr(HeuristicPlanner, "_solve_for_agents", stub)
        pool = NodePool.uniform_random(120, low=80, high=400, seed=3)
        HeuristicPlanner(p).plan(pool, dgemm_mflop(310))
        assert seen[:3] == [1, 2, 3]

    def test_ranking_ties_out_of_power_order_keep_every_tier(
        self, p, monkeypatch
    ):
        """Ranking keys can tie for powers a few ulps apart, and the name
        tie-break may then rank the slower node first.  Tier ceilings are
        only monotone over a power-descending ranking, so such a sweep
        visits every tier."""
        fast = 3e4
        slow = math.nextafter(fast, 0.0)
        assert calc_sch_pow(p, fast, 121) == calc_sch_pow(p, slow, 121)
        powers = [fast, slow] + [
            node.power
            for node in NodePool.uniform_random(120, low=80, high=400, seed=3)
        ]
        pool = NodePool.heterogeneous(powers)
        ranked = sort_nodes(pool, p)
        assert ranked[0].power < ranked[1].power
        outcomes = []
        solve = HeuristicPlanner._solve_for_agents

        def spy(self, arrays, offset, n_agents, app_work, demand, bar):
            out = solve(self, arrays, offset, n_agents, app_work, demand, bar)
            outcomes.append(out)
            return out

        monkeypatch.setattr(HeuristicPlanner, "_solve_for_agents", spy)
        HeuristicPlanner(p).plan(pool, dgemm_mflop(310))
        assert len(outcomes) == len(pool) // 2
        assert any(out is _BELOW_BAR for out in outcomes[:-1])

    def test_windowed_sweep_visits_every_tier(self, p, monkeypatch):
        """Windowed offsets are not ordered by ceiling, so a below-bar
        tier never ends a ``windowed`` sweep: every tier is visited."""
        outcomes = []
        solve = HeuristicPlanner._solve_for_agents

        def spy(self, arrays, offset, n_agents, app_work, demand, bar):
            out = solve(self, arrays, offset, n_agents, app_work, demand, bar)
            outcomes.append(out)
            return out

        monkeypatch.setattr(HeuristicPlanner, "_solve_for_agents", spy)
        pool = NodePool.uniform_random(120, low=80, high=400, seed=3)
        planner = HeuristicPlanner(p, agent_selection="windowed")
        planner.plan(pool, dgemm_mflop(310))
        n = len(pool)
        tiers = sum(
            len(planner._agent_windows(n, a)) for a in range(1, n // 2 + 1)
        )
        assert len(outcomes) == tiers
        assert any(out is _BELOW_BAR for out in outcomes[:-1])
