"""Homogeneous-optimal planner (complete spanning d-ary trees, ref [10])."""

import pytest

from repro.core.homogeneous import HomogeneousPlanner
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import PlanningError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop


@pytest.fixture
def planner() -> HomogeneousPlanner:
    return HomogeneousPlanner(ModelParams())


class TestDegreeSelection:
    def test_tiny_grain_selects_pair(self, planner):
        # DGEMM 10x10 on 21 nodes: Table 4 row 1 — degree 1.
        pool = NodePool.homogeneous(21, 265.0)
        plan = planner.plan(pool, dgemm_mflop(10))
        assert plan.degree == 1
        assert plan.nodes_used == 2

    def test_huge_grain_selects_star(self, planner):
        # DGEMM 1000: service-bound; every node should serve.
        pool = NodePool.homogeneous(21, 265.0)
        plan = planner.plan(pool, dgemm_mflop(1000))
        assert plan.nodes_used == 21
        assert plan.degree == 20

    def test_selected_plan_beats_other_degrees(self, planner):
        from repro.core.baselines import dary_deployment

        pool = NodePool.homogeneous(18, 265.0)
        wapp = dgemm_mflop(150)
        plan = planner.plan(pool, wapp)
        for degree in range(1, len(pool)):
            other = dary_deployment(pool, degree)
            other_rho = hierarchy_throughput(
                other, planner.params, wapp
            ).throughput
            assert plan.throughput >= other_rho - 1e-9


class TestSpanningOnly:
    def test_spanning_uses_all_nodes(self):
        planner = HomogeneousPlanner(ModelParams(), spanning_only=True)
        pool = NodePool.homogeneous(15, 265.0)
        plan = planner.plan(pool, dgemm_mflop(10))
        assert plan.nodes_used == 15

    def test_free_planner_at_least_as_good(self):
        params = ModelParams()
        pool = NodePool.homogeneous(15, 265.0)
        for size in (10, 100, 310, 1000):
            wapp = dgemm_mflop(size)
            free = HomogeneousPlanner(params).plan(pool, wapp)
            spanning = HomogeneousPlanner(params, spanning_only=True).plan(
                pool, wapp
            )
            assert free.throughput >= spanning.throughput - 1e-9


class TestDemand:
    def test_cheapest_satisfying_deployment(self, planner):
        pool = NodePool.homogeneous(30, 265.0)
        wapp = dgemm_mflop(200)  # ~16.5 req/s per server
        plan = planner.plan(pool, wapp, demand=50.0)
        assert plan.throughput >= 50.0
        # ~4 servers satisfy 50 req/s; far fewer than 30 nodes.
        assert plan.nodes_used <= 8

    def test_unsatisfiable_demand_returns_best(self, planner):
        pool = NodePool.homogeneous(5, 265.0)
        plan_capped = planner.plan(pool, dgemm_mflop(1000), demand=1e9)
        plan_free = planner.plan(pool, dgemm_mflop(1000))
        assert plan_capped.throughput == pytest.approx(plan_free.throughput)


class TestValidation:
    def test_plans_are_strictly_valid(self, planner):
        pool = NodePool.homogeneous(9, 265.0)
        for size in (10, 100, 310, 1000):
            planner.plan(pool, dgemm_mflop(size)).hierarchy.validate(strict=True)

    def test_rejects_tiny_pool(self, planner):
        with pytest.raises(PlanningError):
            planner.plan(NodePool.homogeneous(1, 265.0), 1.0)
