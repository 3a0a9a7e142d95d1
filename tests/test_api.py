"""PlanRequest / PlanningSession — the typed planning API."""

import pytest

from repro.api import (
    PlanRequest,
    PlanningSession,
    RankedPlan,
    scenario_grid,
)
from repro.core.params import DEFAULT_PARAMS
from repro.core.registry import HeuristicOptions
from repro.errors import PlanningError
from repro.extensions.multiapp import Application, MultiAppOptions
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop


@pytest.fixture
def pool() -> NodePool:
    return NodePool.uniform_random(20, low=100, high=400, seed=8)


class TestPlanRequest:
    def test_eager_validation(self, pool):
        with pytest.raises(PlanningError, match="app_work"):
            PlanRequest(pool=pool, app_work=0.0)
        with pytest.raises(PlanningError, match="demand"):
            PlanRequest(pool=pool, app_work=1.0, demand=-1.0)
        with pytest.raises(PlanningError, match="NodePool"):
            PlanRequest(pool=[1, 2, 3], app_work=1.0)
        with pytest.raises(PlanningError, match="method"):
            PlanRequest(pool=pool, app_work=1.0, method="")

    def test_replace(self, pool):
        request = PlanRequest(pool=pool, app_work=1.0)
        star = request.replace(method="star")
        assert star.method == "star"
        assert star.pool is pool
        assert request.method == "heuristic"

    def test_cache_key_distinguishes_requests(self, pool):
        base = PlanRequest(pool=pool, app_work=1.0)
        assert base.cache_key() == PlanRequest(pool=pool, app_work=1.0).cache_key()
        assert base.cache_key() != base.replace(app_work=2.0).cache_key()
        assert base.cache_key() != base.replace(method="star").cache_key()
        assert (
            base.cache_key()
            != base.replace(options=HeuristicOptions(patience=2)).cache_key()
        )

    def test_cache_key_ignores_label(self, pool):
        base = PlanRequest(pool=pool, app_work=1.0)
        assert base.cache_key() == base.replace(label="x").cache_key()

    def test_cache_key_is_hashable_for_all_options(self, pool):
        apps = (Application("a", 10.0, 5.0), Application("b", 20.0, 2.0))
        request = PlanRequest(
            pool=pool, app_work=1.0, method="multiapp",
            options=MultiAppOptions(applications=apps),
        )
        hash(request.cache_key())


class TestPlanningSession:
    def test_plan_from_kwargs(self, pool):
        deployment = PlanningSession().plan(
            pool=pool, app_work=dgemm_mflop(200)
        )
        assert deployment.method == "heuristic"
        assert deployment.throughput > 0

    def test_session_params_apply_to_requests_without_params(self, pool):
        params = DEFAULT_PARAMS.replace(wreq=0.3)
        deployment = PlanningSession(params=params).plan(
            pool=pool, app_work=dgemm_mflop(200)
        )
        assert deployment.params.wreq == pytest.approx(0.3)

    def test_request_params_win_over_session_params(self, pool):
        session = PlanningSession(params=DEFAULT_PARAMS.replace(wreq=0.3))
        deployment = session.plan(
            pool=pool, app_work=dgemm_mflop(200), params=DEFAULT_PARAMS
        )
        assert deployment.params.wreq == pytest.approx(0.17)

    def test_cache_hits_on_repeat(self, pool):
        session = PlanningSession()
        first = session.plan(pool=pool, app_work=dgemm_mflop(200))
        second = session.plan(pool=pool, app_work=dgemm_mflop(200))
        assert first is second
        info = session.cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1

    def test_cache_can_be_disabled_and_cleared(self, pool):
        session = PlanningSession(cache=False)
        first = session.plan(pool=pool, app_work=dgemm_mflop(200))
        second = session.plan(pool=pool, app_work=dgemm_mflop(200))
        assert first is not second
        cached = PlanningSession()
        cached.plan(pool=pool, app_work=dgemm_mflop(200))
        cached.clear_cache()
        assert cached.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_every_registered_method_reachable_through_session(self):
        from repro.core.registry import REGISTRY

        session = PlanningSession()
        small = NodePool.uniform_random(8, low=100, high=400, seed=3)
        assert len(REGISTRY.available()) == 9
        for method in REGISTRY.available():
            demand = 10.0 if method == "multiapp" else None
            deployment = session.plan(
                pool=small, app_work=dgemm_mflop(150),
                method=method, demand=demand,
            )
            deployment.hierarchy.validate(strict=True)
            assert deployment.method == method

    def test_unknown_method_lists_available(self, pool):
        with pytest.raises(PlanningError, match="heuristic"):
            PlanningSession().plan(
                pool=pool, app_work=1.0, method="oracle"
            )


class TestScenarioGrid:
    def test_grid_is_full_cross_product(self, pool):
        small = NodePool.homogeneous(12, 265.0)
        grid = scenario_grid(
            pools=[pool, small],
            app_works=[dgemm_mflop(100), dgemm_mflop(310)],
            methods=("heuristic", "star", "balanced"),
        )
        assert len(grid) == 12
        assert len({r.label for r in grid}) == 12

    def test_empty_axis_rejected(self, pool):
        with pytest.raises(PlanningError):
            scenario_grid(pools=[], app_works=[1.0])

    def test_plan_many_parallel_matches_serial(self, pool):
        small = NodePool.homogeneous(12, 265.0)
        grid = scenario_grid(
            pools=[pool, small],
            app_works=[dgemm_mflop(100), dgemm_mflop(310)],
            methods=("heuristic", "star", "balanced"),
        )
        assert len(grid) >= 12
        serial = PlanningSession().plan_many(grid, parallel=False)
        parallel = PlanningSession().plan_many(grid, parallel=True)
        assert [d.describe() for d in serial] == [
            d.describe() for d in parallel
        ]
        assert [d.hierarchy.describe() for d in serial] == [
            d.hierarchy.describe() for d in parallel
        ]
        assert [d.throughput for d in serial] == [
            d.throughput for d in parallel
        ]

    def test_plan_many_empty(self):
        assert PlanningSession().plan_many([]) == []

    def test_plan_many_process_pool_matches_serial(self, pool):
        # Force the process-pool path even on single-CPU machines; the
        # grid must clear _PARALLEL_MIN_UNIQUE or the small-batch fast
        # path would keep it serial.
        grid = scenario_grid(
            pools=[pool],
            app_works=[
                dgemm_mflop(100), dgemm_mflop(200),
                dgemm_mflop(310), dgemm_mflop(400),
            ],
            methods=("heuristic", "star"),
        )
        serial = PlanningSession().plan_many(grid)
        spawned = PlanningSession().plan_many(
            grid, parallel=True, max_workers=2
        )
        assert [d.describe() for d in serial] == [
            d.describe() for d in spawned
        ]
        assert [d.hierarchy.describe() for d in serial] == [
            d.hierarchy.describe() for d in spawned
        ]

    def test_plan_many_single_worker_takes_serial_path(self, pool, monkeypatch):
        import repro.api as api_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("executor must not start for max_workers=1")

        monkeypatch.setattr(api_module, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(api_module, "ThreadPoolExecutor", boom)
        grid = scenario_grid(
            pools=[pool], app_works=[dgemm_mflop(100)], methods=("star",)
        )
        result = PlanningSession().plan_many(
            grid, parallel=True, max_workers=1
        )
        assert len(result) == len(grid)

    def test_plan_many_single_request_takes_serial_path(self, pool, monkeypatch):
        import repro.api as api_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("executor must not start for one request")

        monkeypatch.setattr(api_module, "ProcessPoolExecutor", boom)
        request = PlanRequest(pool=pool, app_work=dgemm_mflop(100))
        result = PlanningSession().plan_many(
            [request], parallel=True, max_workers=4
        )
        assert len(result) == 1

    def test_plan_many_small_batch_takes_serial_path(self, pool, monkeypatch):
        # Below _PARALLEL_MIN_UNIQUE unique requests, parallel=True must
        # not pay process-pool spin-up (ROADMAP: nil gain on small
        # batches) — and the results must still match a serial run.
        import repro.api as api_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("executor must not start for small batches")

        grid = scenario_grid(
            pools=[pool],
            app_works=[dgemm_mflop(100), dgemm_mflop(310)],
            methods=("heuristic", "star"),
        )
        assert len(grid) < api_module._PARALLEL_MIN_UNIQUE
        serial = PlanningSession().plan_many(grid)
        monkeypatch.setattr(api_module, "ProcessPoolExecutor", boom)
        monkeypatch.setattr(api_module, "ThreadPoolExecutor", boom)
        small = PlanningSession().plan_many(
            grid, parallel=True, max_workers=4
        )
        assert [d.describe() for d in small] == [
            d.describe() for d in serial
        ]
        uncached = PlanningSession(cache=False).plan_many(
            grid, parallel=True, max_workers=4
        )
        assert [d.describe() for d in uncached] == [
            d.describe() for d in serial
        ]

    def test_plan_many_small_batch_counts_unique_requests(
        self, pool, monkeypatch
    ):
        # The threshold applies to the *deduped* miss count: a long batch
        # of repeats stays serial, and cache hits never re-trigger a pool.
        import repro.api as api_module

        calls: list[int] = []
        real_fan_out = PlanningSession._fan_out

        def recording(requests, workers, chunk):
            calls.append(len(requests))
            return real_fan_out(requests, workers, chunk)

        monkeypatch.setattr(
            PlanningSession, "_fan_out", staticmethod(recording)
        )
        request = PlanRequest(
            pool=pool, app_work=dgemm_mflop(100), method="star"
        )
        session = PlanningSession()
        batch = [
            request.replace(label=f"r{i}")
            for i in range(api_module._PARALLEL_MIN_UNIQUE)
        ]
        # All labels alias one cache key, so one unique miss: no fan-out.
        session.plan_many(batch, parallel=True, max_workers=2)
        assert calls == []
        # Genuinely distinct requests at the threshold do fan out.
        varied = scenario_grid(
            pools=[pool],
            app_works=[
                dgemm_mflop(100), dgemm_mflop(200),
                dgemm_mflop(310), dgemm_mflop(400),
            ],
            methods=("heuristic", "star"),
        )
        assert len(varied) >= api_module._PARALLEL_MIN_UNIQUE
        PlanningSession().plan_many(varied, parallel=True, max_workers=2)
        assert calls == [len(varied)]

    def test_plan_many_uncached_session_matches_serial_semantics(self, pool):
        request = PlanRequest(
            pool=pool, app_work=dgemm_mflop(100), method="star"
        )
        batch = [request, request.replace(label="twin")]
        session = PlanningSession(cache=False)
        first, second = session.plan_many(
            batch, parallel=True, max_workers=2
        )
        # Like the serial no-cache path: independent objects, no stats.
        assert first is not second
        assert first.describe() == second.describe()
        assert session.cache_info() == {"hits": 0, "misses": 0, "size": 0}

    def test_plan_many_falls_back_to_threads_without_worker_planners(
        self, pool, monkeypatch
    ):
        # A planner registered at runtime is invisible to spawned workers;
        # the session must retry on threads instead of failing the batch.
        monkeypatch.setattr(
            PlanningSession, "_fan_out", staticmethod(lambda *a: None)
        )
        grid = scenario_grid(
            pools=[pool], app_works=[dgemm_mflop(100)],
            methods=("star", "heuristic"),
        )
        serial = PlanningSession().plan_many(grid)
        fallback = PlanningSession().plan_many(
            grid, parallel=True, max_workers=2
        )
        assert [d.describe() for d in serial] == [
            d.describe() for d in fallback
        ]

    def test_plan_many_deduplicates_and_caches_across_calls(self, pool):
        session = PlanningSession()
        request = PlanRequest(
            pool=pool, app_work=dgemm_mflop(100), method="star"
        )
        batch = [request, request.replace(label="twin"), request]
        first = session.plan_many(batch, parallel=True, max_workers=2)
        assert session.cache_info()["misses"] == 1
        assert session.cache_info()["hits"] == 2
        second = session.plan_many(batch, parallel=True, max_workers=2)
        assert session.cache_info()["misses"] == 1
        assert [d.describe() for d in first] == [
            d.describe() for d in second
        ]

    def test_options_by_method(self, pool):
        grid = scenario_grid(
            pools=[pool],
            app_works=[dgemm_mflop(100)],
            methods=("balanced",),
            options_by_method={"balanced": {"middle_agents": 2}},
        )
        deployment = PlanningSession().plan_many(grid)[0]
        # 1 root + 2 middle agents
        assert deployment.hierarchy.shape_signature()[1] == 3


class TestRank:
    def test_rank_sorted_best_first(self, pool):
        ranked = PlanningSession().rank(pool, dgemm_mflop(310))
        assert len(ranked) >= 3
        predictions = [entry.predicted for entry in ranked]
        assert predictions == sorted(predictions, reverse=True)
        assert all(isinstance(entry, RankedPlan) for entry in ranked)
        assert all(entry.measured is None for entry in ranked)

    def test_rank_defaults_exclude_extensions_and_exhaustive(self, pool):
        ranked = PlanningSession().rank(pool, dgemm_mflop(310))
        methods = {entry.method for entry in ranked}
        assert "exhaustive" not in methods
        assert not methods & {"hetcomm", "multiapp", "redeploy"}

    def test_rank_skips_infeasible_methods(self):
        tiny = NodePool.homogeneous(3, 265.0)  # too small for balanced
        ranked = PlanningSession().rank(
            tiny, dgemm_mflop(200), methods=("heuristic", "balanced")
        )
        assert [entry.method for entry in ranked] == ["heuristic"]

    def test_rank_unknown_method_raises_not_skips(self, pool):
        with pytest.raises(PlanningError, match="balansed"):
            PlanningSession().rank(
                pool, dgemm_mflop(200), methods=("heuristic", "balansed")
            )

    def test_rank_all_infeasible_raises(self):
        tiny = NodePool.homogeneous(3, 265.0)
        with pytest.raises(PlanningError, match="no ranked methods"):
            PlanningSession().rank(
                tiny, dgemm_mflop(200), methods=("balanced",)
            )

    def test_rank_measured(self, pool):
        ranked = PlanningSession().rank(
            NodePool.homogeneous(8, 265.0),
            dgemm_mflop(200),
            methods=("heuristic", "star"),
            measure=True,
            clients=10,
            duration=3.0,
        )
        assert all(entry.measured is not None for entry in ranked)
        measured = [entry.measured for entry in ranked]
        assert measured == sorted(measured, reverse=True)


class TestExtensionPlannersThroughSession:
    def test_hetcomm_with_clustered_links(self, pool):
        deployment = PlanningSession().plan(
            pool=NodePool.uniform_random(12, low=100, high=400, seed=2),
            app_work=dgemm_mflop(200),
            method="hetcomm",
            options={"group_sizes": "6,6", "group_bandwidths": "1000,100"},
        )
        assert deployment.extras["het_throughput"] > 0
        assert len(deployment.extras["bandwidths"]) == 12

    def test_multiapp_portfolio(self, pool):
        apps = (
            Application("fast", dgemm_mflop(100), 10.0),
            Application("slow", dgemm_mflop(300), 2.0),
        )
        deployment = PlanningSession().plan(
            pool=pool,
            app_work=dgemm_mflop(100),
            method="multiapp",
            options=MultiAppOptions(applications=apps),
        )
        assert set(deployment.extras["assignments"]) == {"fast", "slow"}
        assert 0 < deployment.extras["scale"] <= 1.0

    def test_multiapp_without_demand_is_actionable(self, pool):
        with pytest.raises(PlanningError, match="MultiAppOptions"):
            PlanningSession().plan(
                pool=pool, app_work=dgemm_mflop(100), method="multiapp"
            )

    def test_redeploy_improves_on_its_base(self, pool):
        deployment = PlanningSession().plan(
            pool=pool,
            app_work=dgemm_mflop(310),
            method="redeploy",
            options={"initial_fraction": "0.4"},
        )
        assert (
            deployment.extras["final_throughput"]
            >= deployment.extras["initial_throughput"] - 1e-9
        )
        assert deployment.extras["base_method"] == "heuristic"


class TestAnalysisIntegration:
    def test_experiments_accept_deployment_directly(self):
        from repro.analysis.experiments import run_fixed_load

        deployment = PlanningSession().plan(
            pool=NodePool.homogeneous(6, 265.0), app_work=dgemm_mflop(200)
        )
        result = run_fixed_load(
            deployment, deployment.params, deployment.app_work,
            clients=5, duration=3.0,
        )
        assert result.throughput > 0

    def test_rank_methods_wrapper(self):
        from repro.analysis.compare import rank_methods

        rows = rank_methods(
            NodePool.homogeneous(8, 265.0),
            dgemm_mflop(200),
            methods=("heuristic", "star"),
            clients=10,
            duration=3.0,
        )
        assert [row.label for row in rows]
        assert all(row.measured > 0 for row in rows)


class TestPlannerMethods:
    """The paper's six planning methods, end to end through a session."""

    METHODS = ("heuristic", "homogeneous", "exhaustive", "star", "balanced",
               "chain")

    @staticmethod
    def plan(pool, app_work, **kwargs):
        return PlanningSession().plan(pool=pool, app_work=app_work, **kwargs)

    def test_all_methods_produce_valid_deployments(self, pool):
        for method in self.METHODS:
            if method == "exhaustive":
                continue  # pool too large; tested separately
            options = None
            if method == "balanced":
                options = {"middle_agents": 3}
            elif method == "chain":
                options = {"agents": 2}
            deployment = self.plan(
                pool, dgemm_mflop(200), method=method, options=options
            )
            deployment.hierarchy.validate(strict=True)
            assert deployment.method == method
            assert deployment.throughput > 0

    def test_exhaustive_method_on_small_pool(self):
        pool = NodePool.uniform_random(5, low=100, high=400, seed=8)
        deployment = self.plan(pool, dgemm_mflop(200), method="exhaustive")
        deployment.hierarchy.validate(strict=True)

    def test_unknown_method_rejected(self, pool):
        with pytest.raises(PlanningError):
            self.plan(pool, 1.0, method="oracle")

    def test_unknown_option_rejected(self, pool):
        with pytest.raises(PlanningError):
            self.plan(pool, 1.0, options={"wibble": True})

    def test_heuristic_options_forwarded(self, pool):
        incremental = self.plan(
            pool, dgemm_mflop(310),
            options={"strategy": "incremental", "patience": 1},
        )
        incremental.hierarchy.validate(strict=True)
        windowed = self.plan(
            pool, dgemm_mflop(310), options={"agent_selection": "windowed"}
        )
        default = self.plan(pool, dgemm_mflop(310))
        assert windowed.throughput >= default.throughput - 1e-9

    def test_homogeneous_spanning_option(self):
        pool = NodePool.homogeneous(10, 265.0)
        spanning = self.plan(
            pool, dgemm_mflop(10), method="homogeneous",
            options={"spanning_only": True},
        )
        assert spanning.nodes_used == 10

    def test_default_params_are_table3(self, pool):
        deployment = self.plan(pool, dgemm_mflop(200))
        assert deployment.params.wreq == pytest.approx(0.17)

    def test_heuristic_beats_or_ties_sorted_star(self, pool):
        # Compare against the star whose agent is the node the heuristic
        # itself would pick (pool sorted by power).  A *positional* star
        # can beat the paper's policy by accident on service-bound pools —
        # its slow agent leaves the fastest node serving; the windowed
        # extension covers that case below.
        wapp = dgemm_mflop(310)
        heuristic = self.plan(pool, wapp)
        star = self.plan(pool.sorted_by_power(), wapp, method="star")
        assert heuristic.throughput >= star.throughput - 1e-9

    def test_windowed_heuristic_beats_or_ties_any_star(self, pool):
        wapp = dgemm_mflop(310)
        windowed = self.plan(
            pool, wapp, options={"agent_selection": "windowed"}
        )
        for candidate in (pool, pool.sorted_by_power()):
            star = self.plan(candidate, wapp, method="star")
            assert windowed.throughput >= star.throughput - 1e-9

    def test_demand_forwarded(self, pool):
        capped = self.plan(pool, dgemm_mflop(200), demand=20.0)
        assert capped.throughput >= 20.0
        assert capped.nodes_used <= 5
