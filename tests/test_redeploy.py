"""Iterative deployment improvement (prior-work mechanism [6,7])."""

import pytest

from repro.core.baselines import balanced_deployment, star_deployment
from repro.core.heuristic import HeuristicPlanner
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import PlanningError
from repro.extensions.redeploy import improve_deployment
from repro.platforms.node import Node
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

PARAMS = ModelParams()


def spares(count: int, power: float = 265.0) -> list[Node]:
    return [Node(power=power, name=f"spare-{i:02d}") for i in range(count)]


class TestMoves:
    def test_service_bound_adds_servers(self):
        pool = NodePool.homogeneous(3, 265.0)
        h = star_deployment(pool)  # 1 agent + 2 servers, DGEMM 200: service-bound
        result = improve_deployment(h, spares(4), PARAMS, dgemm_mflop(200))
        assert result.final_throughput > result.initial_throughput * 1.5
        assert any(a.move == "add-server" for a in result.actions)
        assert result.hierarchy.shape_signature()[2] > 2  # more servers
        result.hierarchy.validate(strict=True)

    def test_scheduling_bound_splits_agent(self):
        # A big star on a tiny-ish grain: the root is the bottleneck.
        pool = NodePool.homogeneous(40, 265.0)
        h = star_deployment(pool)
        wapp = dgemm_mflop(120)  # scheduling-bound at degree 39
        before = hierarchy_throughput(h, PARAMS, wapp)
        assert before.is_scheduling_bound
        result = improve_deployment(h, spares(6), PARAMS, wapp)
        assert result.final_throughput > result.initial_throughput
        assert any(a.move == "split-agent" for a in result.actions)
        assert len(result.hierarchy.agents) > 1
        result.hierarchy.validate(strict=True)

    def test_rebalance_without_spares(self):
        # Unbalanced two-agent tree, no spares: children must migrate.
        pool = NodePool.homogeneous(20, 265.0)
        h = balanced_deployment(pool, middle_agents=2)
        # Skew it: move children from agent-2 to agent-1.
        mids = [a for a in h.agents if a != h.root]
        donor, receiver = mids[1], mids[0]
        for child in list(h.children(donor))[:-2]:
            h.reattach(child, receiver)
        wapp = dgemm_mflop(150)
        before = hierarchy_throughput(h, PARAMS, wapp)
        result = improve_deployment(h, [], PARAMS, wapp)
        if before.is_scheduling_bound:
            assert result.final_throughput >= before.throughput
        result.hierarchy.validate(strict=True)

    def test_replace_slow_floor_server(self):
        # One crawling server caps the scheduling floor; a fast spare
        # should replace it.
        h = star_deployment(NodePool.homogeneous(4, 265.0))
        slow = Node(power=0.1, name="slug")
        h.add_server(slow.name, slow.power, h.root)
        wapp = dgemm_mflop(200)
        report = hierarchy_throughput(h, PARAMS, wapp)
        assert report.is_scheduling_bound
        assert report.limiting_node == "slug"
        result = improve_deployment(h, spares(1), PARAMS, wapp)
        moves = [a.move for a in result.actions]
        assert "replace-server" in moves or "add-server" in moves
        assert result.final_throughput > result.initial_throughput
        result.hierarchy.validate(strict=True)


class TestLoopProperties:
    def test_never_regresses(self):
        pool = NodePool.uniform_random(15, low=80, high=400, seed=4)
        h = star_deployment(pool)
        for size in (100, 310, 1000):
            result = improve_deployment(
                h, spares(5), PARAMS, dgemm_mflop(size)
            )
            assert result.final_throughput >= result.initial_throughput - 1e-9

    def test_actions_never_regress(self):
        pool = NodePool.homogeneous(3, 265.0)
        result = improve_deployment(
            star_deployment(pool), spares(8), PARAMS, dgemm_mflop(200)
        )
        for action in result.actions:
            # Strict gains, except unblocking moves which hold rho flat
            # while raising scheduling power.
            assert action.throughput_after >= action.throughput_before * (
                1 - 1e-9
            )
        assert result.final_throughput > result.initial_throughput

    def test_original_hierarchy_untouched(self):
        pool = NodePool.homogeneous(3, 265.0)
        h = star_deployment(pool)
        shape = h.shape_signature()
        improve_deployment(h, spares(5), PARAMS, dgemm_mflop(200))
        assert h.shape_signature() == shape

    def test_spares_accounted(self):
        pool = NodePool.homogeneous(3, 265.0)
        result = improve_deployment(
            star_deployment(pool), spares(5), PARAMS, dgemm_mflop(200)
        )
        consuming = {"add-server", "split-agent", "replace-server"}
        used = sum(1 for a in result.actions if a.move in consuming)
        assert len(result.spares_left) == 5 - used

    def test_improvement_approaches_from_scratch_planner(self):
        """Improving a bad star with the full node budget must come close
        to what planning from scratch achieves — the paper's motivation
        for comparing the two workflows."""
        all_nodes = NodePool.uniform_random(30, low=80, high=400, seed=9)
        initial_pool = all_nodes.take(10)
        spare_nodes = list(all_nodes)[10:]
        wapp = dgemm_mflop(310)
        improved = improve_deployment(
            star_deployment(initial_pool.sorted_by_power()),
            spare_nodes, PARAMS, wapp,
        )
        scratch = HeuristicPlanner(PARAMS).plan(all_nodes, wapp)
        assert improved.final_throughput >= 0.85 * scratch.throughput

    @pytest.mark.parametrize("size", [100, 310, 1000])
    def test_reported_throughputs_equal_cold_model(self, size):
        """Candidates are priced by one shared evaluator; every reported
        throughput still equals cold Eq. 16 bit for bit."""
        pool = NodePool.uniform_random(12, low=80, high=400, seed=11)
        h = star_deployment(pool.take(5))
        wapp = dgemm_mflop(size)
        result = improve_deployment(h, list(pool)[5:], PARAMS, wapp)
        assert result.actions
        assert result.initial_throughput == hierarchy_throughput(
            h, PARAMS, wapp
        ).throughput
        assert result.final_throughput == hierarchy_throughput(
            result.hierarchy, PARAMS, wapp
        ).throughput
        assert result.actions[-1].throughput_after == result.final_throughput

    def test_improvement_factor_property(self):
        pool = NodePool.homogeneous(3, 265.0)
        result = improve_deployment(
            star_deployment(pool), spares(3), PARAMS, dgemm_mflop(200)
        )
        assert result.improvement_factor == pytest.approx(
            result.final_throughput / result.initial_throughput
        )


class TestValidation:
    def test_name_collision_rejected(self):
        pool = NodePool.homogeneous(3, 265.0)
        clash = [Node(power=1.0, name="node-1")]
        with pytest.raises(PlanningError):
            improve_deployment(star_deployment(pool), clash, PARAMS, 1.0)

    def test_bad_app_work_rejected(self):
        pool = NodePool.homogeneous(3, 265.0)
        with pytest.raises(PlanningError):
            improve_deployment(star_deployment(pool), [], PARAMS, 0.0)

    def test_invalid_hierarchy_rejected(self):
        from repro.core.hierarchy import Hierarchy

        h = Hierarchy()
        h.set_root("r", 1.0)
        with pytest.raises(Exception):
            improve_deployment(h, [], PARAMS, 1.0)
