"""Model-vs-simulation convergence.

The discrete-event middleware and the closed-form model (Eq. 16) describe
the same system; under saturating load the measured steady-state rate must
converge to the analytic prediction.  These tests pin that agreement
across regimes (agent-bound, server-bound, heterogeneous, multi-level) —
it is the load-bearing property behind every figure reproduction.
"""

import pytest

from repro.analysis.experiments import run_fixed_load
from repro.core.baselines import balanced_deployment, star_deployment
from repro.core.heuristic import HeuristicPlanner
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

PARAMS = ModelParams()


def assert_converges(
    hierarchy: Hierarchy,
    app_work: float,
    clients: int,
    rel: float = 0.06,
    duration: float = 15.0,
) -> None:
    predicted = hierarchy_throughput(hierarchy, PARAMS, app_work).throughput
    measured = run_fixed_load(
        hierarchy, PARAMS, app_work, clients=clients, duration=duration
    ).throughput
    assert measured == pytest.approx(predicted, rel=rel)


class TestServerBoundRegime:
    """Figure 4/5: DGEMM 200x200 — servers limit throughput."""

    @pytest.mark.parametrize("n_servers,clients", [(1, 20), (2, 40), (4, 60)])
    def test_star_convergence(self, n_servers, clients):
        pool = NodePool.homogeneous(n_servers + 1, 265.0)
        assert_converges(star_deployment(pool), dgemm_mflop(200), clients)

    def test_second_server_doubles_throughput(self):
        one = run_fixed_load(
            star_deployment(NodePool.homogeneous(2, 265.0)),
            PARAMS, dgemm_mflop(200), clients=30, duration=15.0,
        ).throughput
        two = run_fixed_load(
            star_deployment(NodePool.homogeneous(3, 265.0)),
            PARAMS, dgemm_mflop(200), clients=30, duration=15.0,
        ).throughput
        assert two / one == pytest.approx(2.0, rel=0.1)


class TestAgentBoundRegime:
    """Figure 2/3: DGEMM 10x10 — the agent limits throughput."""

    def test_one_server_convergence(self):
        pool = NodePool.homogeneous(2, 265.0)
        assert_converges(
            star_deployment(pool), dgemm_mflop(10), clients=60, duration=8.0
        )

    def test_second_server_hurts(self):
        one = run_fixed_load(
            star_deployment(NodePool.homogeneous(2, 265.0)),
            PARAMS, dgemm_mflop(10), clients=60, duration=8.0,
        ).throughput
        two = run_fixed_load(
            star_deployment(NodePool.homogeneous(3, 265.0)),
            PARAMS, dgemm_mflop(10), clients=60, duration=8.0,
        ).throughput
        assert two < one


class TestHeterogeneousRegime:
    def test_heterogeneous_star_convergence(self):
        pool = NodePool.heterogeneous([265.0, 240.0, 180.0, 120.0, 60.0])
        assert_converges(
            star_deployment(pool), dgemm_mflop(200), clients=60, rel=0.08
        )

    def test_share_split_tracks_eq8(self):
        from test_comp_model import server_share

        pool = NodePool.heterogeneous([265.0, 200.0, 100.0])
        h = star_deployment(pool)
        result = run_fixed_load(
            h, PARAMS, dgemm_mflop(200), clients=60, duration=20.0
        )
        counts = result.service_counts
        total = sum(counts.values())
        shares = server_share(PARAMS, [200.0, 100.0], [16.0, 16.0])
        measured = [counts["node-1"] / total, counts["node-2"] / total]
        for got, want in zip(measured, shares):
            assert got == pytest.approx(want, abs=0.06)


class TestMultiLevelRegime:
    def test_balanced_tree_convergence(self):
        pool = NodePool.homogeneous(10, 265.0)
        h = balanced_deployment(pool, middle_agents=2)
        assert_converges(h, dgemm_mflop(200), clients=80, rel=0.08)

    def test_heuristic_plan_convergence(self):
        pool = NodePool.uniform_random(12, low=100, high=300, seed=4)
        plan = HeuristicPlanner(PARAMS).plan(pool, dgemm_mflop(310))
        assert_converges(
            plan.hierarchy, dgemm_mflop(310), clients=80, rel=0.08,
            duration=20.0,
        )


class TestRankingPreserved:
    def test_measured_ranking_matches_predicted_ranking(self):
        """The reproduction criterion: who wins must transfer from model
        to measurement (Figure 6 in miniature)."""
        from repro.platforms.background import heterogenize

        pool = heterogenize(
            NodePool.homogeneous(48, 265.0), loaded_fraction=0.5, seed=5
        )
        wapp = dgemm_mflop(200)
        auto = HeuristicPlanner(PARAMS).plan(pool, wapp).hierarchy
        star = star_deployment(pool)
        rows = {}
        for label, h in [("auto", auto), ("star", star)]:
            predicted = hierarchy_throughput(h, PARAMS, wapp).throughput
            measured = run_fixed_load(
                h, PARAMS, wapp, clients=160, duration=10.0
            ).throughput
            rows[label] = (predicted, measured)
        assert rows["auto"][0] > rows["star"][0]  # model ranking
        assert rows["auto"][1] > rows["star"][1]  # measured ranking
