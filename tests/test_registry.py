"""The planner registry and typed per-planner options."""

import dataclasses

import pytest

from repro.api import PlanRequest, PlanningSession
from repro.core.optimal import MAX_EXHAUSTIVE_NODES
from repro.core.params import DEFAULT_PARAMS
from repro.core.registry import (
    CAP_AUTOMATIC,
    CAP_BASELINE,
    CAP_DEMAND,
    CAP_EXTENSION,
    REGISTRY,
    BalancedOptions,
    ChainOptions,
    Deployment,
    HeuristicOptions,
    PlannerOptions,
    PlannerRegistry,
    default_middle_agents,
    register_planner,
)
from repro.errors import PlanningError
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop


@dataclasses.dataclass(frozen=True)
class _NoOptions(PlannerOptions):
    pass


class _StubPlanner:
    name = "stub"
    capabilities = frozenset({CAP_AUTOMATIC})
    options_type = _NoOptions

    def plan(self, request):  # pragma: no cover - never called in tests
        raise NotImplementedError


class TestRegistry:
    def test_register_and_get(self):
        registry = PlannerRegistry()
        registry.register(_StubPlanner())
        assert registry.get("stub").name == "stub"
        assert "stub" in registry
        assert registry.available() == ("stub",)

    def test_duplicate_name_raises(self):
        registry = PlannerRegistry()
        registry.register(_StubPlanner())
        with pytest.raises(PlanningError, match="already registered"):
            registry.register(_StubPlanner())

    def test_duplicate_allowed_with_replace(self):
        registry = PlannerRegistry()
        first, second = _StubPlanner(), _StubPlanner()
        registry.register(first)
        registry.register(second, replace=True)
        assert registry.get("stub") is second

    def test_unknown_planner_error_lists_available(self):
        with pytest.raises(PlanningError) as excinfo:
            REGISTRY.get("oracle")
        message = str(excinfo.value)
        for name in REGISTRY.available():
            assert name in message

    def test_incomplete_planner_rejected(self):
        class Sloppy:
            name = "sloppy"

        with pytest.raises(PlanningError, match="Planner protocol"):
            PlannerRegistry().register(Sloppy())

    def test_decorator_registers_into_custom_registry(self):
        registry = PlannerRegistry()

        @register_planner(registry=registry)
        class Decorated:
            name = "decorated"
            capabilities = frozenset({CAP_BASELINE})
            options_type = _NoOptions

            def plan(self, request):  # pragma: no cover
                raise NotImplementedError

        assert "decorated" in registry
        assert "decorated" not in REGISTRY.available()

    def test_global_registry_has_all_nine_planners(self):
        assert set(REGISTRY.available()) == {
            "heuristic", "homogeneous", "exhaustive",
            "star", "balanced", "chain",
            "hetcomm", "multiapp", "redeploy",
        }

    def test_extensions_are_capability_flagged(self):
        for name in ("hetcomm", "multiapp", "redeploy"):
            assert CAP_EXTENSION in REGISTRY.get(name).capabilities
        for name in ("heuristic", "star", "balanced"):
            assert CAP_EXTENSION not in REGISTRY.get(name).capabilities


class TestTypedOptions:
    def test_eager_validation_with_actionable_message(self):
        with pytest.raises(PlanningError, match="fixed_point"):
            HeuristicOptions(strategy="bogus")
        with pytest.raises(PlanningError, match="patience"):
            HeuristicOptions(patience=0)
        with pytest.raises(PlanningError, match="middle agent"):
            BalancedOptions(middle_agents=0)
        with pytest.raises(PlanningError, match="agent"):
            ChainOptions(agents=0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"strategy": "bogus"},
            {"patience": 0},
            {"agent_selection": "slowest"},
        ],
    )
    def test_heuristic_options_and_planner_reject_alike(self, bad):
        from repro.core.heuristic import HeuristicPlanner

        with pytest.raises(PlanningError) as from_options:
            HeuristicOptions(**bad)
        with pytest.raises(PlanningError) as from_planner:
            HeuristicPlanner(DEFAULT_PARAMS, **bad)
        assert str(from_options.value) == str(from_planner.value)

    def test_coerce_converts_cli_strings(self):
        options = HeuristicOptions.coerce(
            {"strategy": "incremental", "patience": "2",
             "allow_promotion": "false"}
        )
        assert options.strategy == "incremental"
        assert options.patience == 2
        assert options.allow_promotion is False

    def test_coerce_unknown_key_lists_valid_options(self):
        with pytest.raises(PlanningError) as excinfo:
            HeuristicOptions.coerce({"wibble": "1"})
        message = str(excinfo.value)
        assert "wibble" in message
        assert "strategy" in message

    def test_coerce_resolves_runtime_annotations(self):
        # A third-party options class defined without
        # `from __future__ import annotations` must still coerce strings.
        @dataclasses.dataclass(frozen=True)
        class ThirdParty(PlannerOptions):
            hints: int = 3
            verbose: bool = False

        options = ThirdParty.coerce({"hints": "5", "verbose": "true"})
        assert options.hints == 5
        assert options.verbose is True

    def test_coerce_bad_value_names_field_and_type(self):
        with pytest.raises(PlanningError, match="patience"):
            HeuristicOptions.coerce({"patience": "soon"})

    def test_wrong_options_type_rejected(self):
        with pytest.raises(PlanningError, match="HeuristicOptions"):
            REGISTRY.resolve_options("heuristic", BalancedOptions())

    def test_resolve_defaults_and_mappings(self):
        assert REGISTRY.resolve_options("chain", None) == ChainOptions()
        assert REGISTRY.resolve_options(
            "chain", {"agents": "3"}
        ) == ChainOptions(agents=3)


class TestDefaultMiddleAgents:
    def test_paper_shape_on_200_nodes(self):
        pool = NodePool.homogeneous(200, 265.0)
        assert default_middle_agents(pool) == 14

    def test_floor_of_one(self):
        assert default_middle_agents(NodePool.homogeneous(2, 265.0)) == 1

    def test_cli_and_planner_agree(self):
        # The CLI compare path and the balanced planner default both go
        # through default_middle_agents — plan through each and compare.
        pool = NodePool.uniform_random(14, low=100, high=400, seed=5)
        session = PlanningSession()
        via_default = session.plan(
            pool=pool, app_work=dgemm_mflop(200), method="balanced"
        )
        via_explicit = session.plan(
            pool=pool, app_work=dgemm_mflop(200), method="balanced",
            options=BalancedOptions(middle_agents=default_middle_agents(pool)),
        )
        assert (
            via_default.hierarchy.describe()
            == via_explicit.hierarchy.describe()
        )


class TestEveryPlannerOnPoolSweep:
    """Property-style sweep: all registered planners yield valid trees."""

    POOLS = [
        NodePool.uniform_random(8, low=80, high=400, seed=seed)
        for seed in (1, 2)
    ] + [
        NodePool.uniform_random(14, low=80, high=400, seed=3),
        NodePool.homogeneous(10, 265.0),
        NodePool.clustered((4, 4, 4), (350.0, 200.0, 90.0)),
    ]

    @pytest.mark.parametrize("method", sorted(REGISTRY.available()))
    @pytest.mark.parametrize("pool_index", range(len(POOLS)))
    def test_planner_produces_strictly_valid_hierarchy(
        self, method, pool_index
    ):
        pool = self.POOLS[pool_index]
        if method == "exhaustive" and len(pool) > MAX_EXHAUSTIVE_NODES:
            pytest.skip("exhaustive search is capped to small pools")
        request = PlanRequest(
            pool=pool,
            app_work=dgemm_mflop(150),
            # multiapp derives a single application from the demand
            demand=10.0 if method == "multiapp" else None,
            method=method,
        )
        deployment = REGISTRY.plan(request)
        deployment.hierarchy.validate(strict=True)
        assert deployment.method == method
        assert deployment.throughput > 0
        assert isinstance(deployment, Deployment)


class TestDeprecatedShim:
    """The loose call forms the old ``plan_deployment`` shim forwarded —
    options as a mapping, request fields as keywords — plan exactly like
    the typed request API."""

    @pytest.mark.parametrize(
        "method,options",
        [
            ("heuristic", {}),
            ("heuristic", {"strategy": "incremental", "patience": 2}),
            ("heuristic", {"agent_selection": "windowed"}),
            ("homogeneous", {"spanning_only": True}),
            ("star", {}),
            ("balanced", {"middle_agents": 3}),
            ("chain", {"agents": 2}),
        ],
    )
    def test_shim_matches_new_api_exactly(self, method, options):
        pool = NodePool.uniform_random(16, low=100, high=400, seed=9)
        wapp = dgemm_mflop(250)
        mapped = REGISTRY.plan(
            PlanRequest(
                pool=pool, app_work=wapp, method=method,
                options=dict(options) or None,
            )
        )
        typed = PlanningSession().plan(
            PlanRequest(
                pool=pool, app_work=wapp, method=method,
                options=REGISTRY.get(method).options_type(**options),
            )
        )
        assert mapped.hierarchy.describe() == typed.hierarchy.describe()
        assert mapped.throughput == pytest.approx(typed.throughput)
        assert mapped.report.bottleneck == typed.report.bottleneck
        assert mapped.params == DEFAULT_PARAMS

    def test_shim_matches_new_api_with_demand(self):
        pool = NodePool.uniform_random(16, low=100, high=400, seed=9)
        wapp = dgemm_mflop(250)
        request = REGISTRY.plan(
            PlanRequest(pool=pool, app_work=wapp, demand=20.0)
        )
        keyword = PlanningSession().plan(
            pool=pool, app_work=wapp, demand=20.0
        )
        assert request.hierarchy.describe() == keyword.hierarchy.describe()
        assert request.throughput == pytest.approx(keyword.throughput)
