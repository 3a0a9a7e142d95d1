"""Planner registry — the pluggable planning API.

Every planning algorithm in the library (the paper's heuristic, the
homogeneous-optimal planner, the exhaustive reference, the intuitive
baselines, and the extensions) is exposed through one interface:

* :class:`Planner` — the protocol a planner implements: a ``name``, a
  ``capabilities`` set, a typed ``options_type``, and
  ``plan(request) -> Deployment``;
* :class:`PlannerRegistry` — name-indexed planner collection with
  :meth:`~PlannerRegistry.register`, :meth:`~PlannerRegistry.get`,
  :meth:`~PlannerRegistry.available` and a one-stop
  :meth:`~PlannerRegistry.plan` that resolves options and validates the
  result;
* :func:`register_planner` — decorator registering a planner class into
  a registry (the module-level :data:`REGISTRY` by default).

Registering a third-party planner is a one-file change::

    from dataclasses import dataclass
    from repro.core.registry import (
        CAP_AUTOMATIC, Deployment, PlannerOptions, register_planner,
    )

    @dataclass(frozen=True)
    class OracleOptions(PlannerOptions):
        hints: int = 3

    @register_planner
    class OraclePlanner:
        name = "oracle"
        capabilities = frozenset({CAP_AUTOMATIC})
        options_type = OracleOptions

        def plan(self, request):  # request is a repro.api.PlanRequest
            hierarchy = ...  # build a Hierarchy from request.pool
            return Deployment(
                hierarchy=hierarchy,
                report=hierarchy_throughput(
                    hierarchy, request.params, request.app_work
                ),
                method=self.name,
                app_work=request.app_work,
                params=request.params,
            )

The new planner immediately shows up in ``PlannerRegistry.available()``,
``repro-deploy plan --method`` and ``repro-deploy planners`` — no facade
edits required.

Option dataclasses validate **eagerly**: constructing
``HeuristicOptions(strategy="bogus")`` raises a :class:`PlanningError`
naming the valid strategies, before any planning work starts.
"""

from __future__ import annotations

import dataclasses
import importlib
import math
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, runtime_checkable

from repro.core.baselines import (
    balanced_deployment,
    chain_deployment,
    star_deployment,
)
from repro.core.heuristic import HeuristicPlanner, check_heuristic_options
from repro.core.hierarchy import Hierarchy
from repro.core.homogeneous import HomogeneousPlanner
from repro.core.optimal import exhaustive_plan
from repro.core.params import DEFAULT_PARAMS, ModelParams
from repro.core.throughput import ThroughputReport, hierarchy_throughput
from repro.errors import PlanningError
from repro.platforms.pool import NodePool

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import PlanRequest

__all__ = [
    "CAP_AUTOMATIC",
    "CAP_BASELINE",
    "CAP_DEMAND",
    "CAP_EXACT",
    "CAP_EXTENSION",
    "CAP_TRANSFORM",
    "Deployment",
    "Planner",
    "build_deployment",
    "PlannerOptions",
    "PlannerRegistry",
    "REGISTRY",
    "register_planner",
    "default_middle_agents",
    "HeuristicOptions",
    "HomogeneousOptions",
    "ExhaustiveOptions",
    "StarOptions",
    "BalancedOptions",
    "ChainOptions",
]

# Capability flags — coarse, queryable facts about a planner.
CAP_AUTOMATIC = "automatic"  # searches/models rather than a fixed shape
CAP_BASELINE = "baseline"    # positional "intuitive alternative" (§5.3)
CAP_DEMAND = "demand"        # honours PlanRequest.demand
CAP_EXACT = "exact"          # provably optimal in its domain
CAP_EXTENSION = "extension"  # beyond the paper (future-work items)
CAP_TRANSFORM = "transform"  # transforms another planner's deployment


def default_middle_agents(pool: NodePool) -> int:
    """Balanced-tree default: ~sqrt sizing, the paper's 14-for-200 shape.

    The single source of truth for the balanced baseline's middle-agent
    count: ``max(1, floor(sqrt(n - 1)))`` gives 14 middle agents on the
    paper's 200-node Orsay pool.
    """
    return max(1, int(math.sqrt(max(0, len(pool) - 1))))


@dataclass(frozen=True)
class Deployment:
    """A planned deployment: the tree plus its predicted performance."""

    hierarchy: Hierarchy
    report: ThroughputReport
    method: str
    app_work: float
    params: ModelParams
    #: Planner-specific results (e.g. the hetcomm model's throughput, the
    #: multiapp server assignments) that do not fit the common schema.
    extras: Mapping[str, object] = field(default_factory=dict, repr=False)

    @property
    def throughput(self) -> float:
        """Model-predicted completed-request throughput, requests/s."""
        return self.report.throughput

    @property
    def nodes_used(self) -> int:
        return len(self.hierarchy)

    def describe(self) -> str:
        shape = self.hierarchy.shape_signature()
        return (
            f"Deployment[{self.method}]: rho={self.throughput:.2f} req/s "
            f"({self.report.bottleneck}-bound), nodes={shape[0]} "
            f"(agents={shape[1]}, servers={shape[2]}, height={shape[3]})"
        )


# ---------------------------------------------------------------------- #
# typed planner options


@dataclass(frozen=True)
class PlannerOptions:
    """Base class for per-planner option dataclasses.

    Subclasses declare typed fields with defaults and validate them in
    ``__post_init__``; :meth:`coerce` builds an instance from a loose
    string-valued mapping (the CLI's ``--opt key=value`` flags), rejecting
    unknown keys with a message that lists the valid ones.
    """

    @classmethod
    def coerce(cls, mapping: Mapping[str, object]) -> "PlannerOptions":
        """Build options from a mapping, converting strings to field types."""
        fields = {f.name: f for f in dataclasses.fields(cls)}
        unknown = sorted(set(mapping) - set(fields))
        if unknown:
            raise PlanningError(
                f"unknown planner options: {unknown}; "
                f"{cls.__name__} accepts {sorted(fields) or 'no options'}"
            )
        # Resolve annotations to real types so conversion works whether or
        # not the defining module uses `from __future__ import annotations`.
        try:
            hints = typing.get_type_hints(cls)
        except Exception:
            hints = {name: f.type for name, f in fields.items()}
        kwargs = {
            key: _convert_option(
                cls.__name__, key, hints.get(key, fields[key].type), value
            )
            for key, value in mapping.items()
        }
        missing = sorted(
            name
            for name, f in fields.items()
            if f.init
            and name not in kwargs
            and f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        if missing:
            raise PlanningError(
                f"{cls.__name__} is missing required options {missing}"
            )
        return cls(**kwargs)

    def summary(self) -> str:
        """``key=value`` rendering of the non-default fields."""
        parts = []
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            default = (
                f.default
                if f.default is not dataclasses.MISSING
                else (
                    f.default_factory()  # type: ignore[misc]
                    if f.default_factory is not dataclasses.MISSING
                    else dataclasses.MISSING
                )
            )
            if value != default:
                parts.append(f"{f.name}={value!r}")
        return ", ".join(parts)


def _convert_option(
    owner: str, name: str, hint: object, value: object
) -> object:
    """Convert a CLI-style string to the declared field type."""
    if not isinstance(value, str):
        return value
    declared = hint.__name__ if isinstance(hint, type) else str(hint)
    try:
        if "tuple[int" in declared:
            return tuple(int(p) for p in value.split(",") if p.strip())
        if "tuple[float" in declared:
            return tuple(float(p) for p in value.split(",") if p.strip())
        if declared.startswith("bool"):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise PlanningError(
                f"{owner}.{name}: {value!r} is not a boolean; use one of "
                "1/0, true/false, yes/no, on/off"
            )
        if declared.startswith("int"):
            return int(value)
        if declared.startswith("float"):
            return float(value)
        return value
    except ValueError as exc:
        raise PlanningError(
            f"{owner}.{name}: cannot parse {value!r} as {declared}"
        ) from exc


@dataclass(frozen=True)
class HeuristicOptions(PlannerOptions):
    """Options of the paper's heterogeneous heuristic (Algorithm 1)."""

    strategy: str = "fixed_point"
    patience: int = 4
    allow_promotion: bool = True
    agent_selection: str = "fastest"

    def __post_init__(self) -> None:
        check_heuristic_options(
            self.strategy, self.patience, self.agent_selection
        )


@dataclass(frozen=True)
class HomogeneousOptions(PlannerOptions):
    """Options of the complete-spanning-d-ary-tree planner ([10])."""

    spanning_only: bool = False


@dataclass(frozen=True)
class ExhaustiveOptions(PlannerOptions):
    """The exhaustive reference takes no options (small pools only)."""


@dataclass(frozen=True)
class StarOptions(PlannerOptions):
    """The star baseline takes no options (first pool node is the agent)."""


@dataclass(frozen=True)
class BalancedOptions(PlannerOptions):
    """Options of the balanced two-level baseline.

    ``middle_agents=None`` (the default) sizes the middle tier with
    :func:`default_middle_agents`.
    """

    middle_agents: int | None = None

    def __post_init__(self) -> None:
        if self.middle_agents is not None and self.middle_agents < 1:
            raise PlanningError(
                "balanced deployment needs >= 1 middle agent, "
                f"got {self.middle_agents}"
            )


@dataclass(frozen=True)
class ChainOptions(PlannerOptions):
    """Options of the agent-chain baseline."""

    agents: int = 2

    def __post_init__(self) -> None:
        if self.agents < 1:
            raise PlanningError(
                f"chain deployment needs >= 1 agent, got {self.agents}"
            )


# ---------------------------------------------------------------------- #
# the planner protocol and the registry


@runtime_checkable
class Planner(Protocol):
    """What a pluggable planner provides."""

    name: str
    capabilities: frozenset[str]
    options_type: type[PlannerOptions]

    def plan(self, request: "PlanRequest") -> Deployment:
        """Plan a deployment for ``request`` (options already resolved)."""
        ...  # pragma: no cover


class PlannerRegistry:
    """Name-indexed collection of planners.

    Parameters
    ----------
    autoload:
        Module names imported lazily on first lookup, so that planners
        registered at import time (the extensions) become visible without
        an explicit import at every call site.
    """

    def __init__(self, autoload: tuple[str, ...] = ()):
        self._planners: dict[str, Planner] = {}
        self._autoload = tuple(autoload)
        self._loaded = not self._autoload

    def _ensure_loaded(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        for module in self._autoload:
            importlib.import_module(module)

    def register(self, planner: Planner, replace: bool = False) -> Planner:
        """Add ``planner``; duplicate names raise unless ``replace``."""
        for attribute in ("name", "capabilities", "options_type", "plan"):
            if not hasattr(planner, attribute):
                raise PlanningError(
                    f"planner {planner!r} does not satisfy the Planner "
                    f"protocol: missing {attribute!r}"
                )
        name = planner.name
        if not name or not isinstance(name, str):
            raise PlanningError(f"planner name must be a non-empty string, got {name!r}")
        if name in self._planners and not replace:
            raise PlanningError(
                f"planner {name!r} is already registered; "
                "pass replace=True to override it"
            )
        self._planners[name] = planner
        return planner

    def get(self, name: str) -> Planner:
        """The planner registered under ``name``.

        Raises
        ------
        PlanningError
            For unknown names; the message lists :meth:`available`.
        """
        self._ensure_loaded()
        try:
            return self._planners[name]
        except KeyError:
            raise PlanningError(
                f"unknown planner {name!r}; "
                f"available planners: {', '.join(self.available())}"
            ) from None

    def available(self) -> tuple[str, ...]:
        """Registered planner names, sorted."""
        self._ensure_loaded()
        return tuple(sorted(self._planners))

    def __contains__(self, name: object) -> bool:
        self._ensure_loaded()
        return name in self._planners

    def __iter__(self):
        self._ensure_loaded()
        return iter(sorted(self._planners.values(), key=lambda p: p.name))

    def __len__(self) -> int:
        self._ensure_loaded()
        return len(self._planners)

    def resolve_options(
        self, name: str, options: object
    ) -> PlannerOptions:
        """Normalize ``options`` into the planner's typed dataclass."""
        planner = self.get(name)
        options_type = planner.options_type
        if options is None:
            return options_type()
        if isinstance(options, options_type):
            return options
        if isinstance(options, Mapping):
            return options_type.coerce(options)
        if isinstance(options, PlannerOptions):
            raise PlanningError(
                f"planner {name!r} takes {options_type.__name__}, "
                f"got {type(options).__name__}"
            )
        raise PlanningError(
            f"options for planner {name!r} must be a "
            f"{options_type.__name__} or a mapping, got {type(options).__name__}"
        )

    def plan(self, request: "PlanRequest") -> Deployment:
        """Dispatch ``request`` to its planner and validate the result."""
        planner = self.get(request.method)
        params = request.params if request.params is not None else DEFAULT_PARAMS
        options = self.resolve_options(request.method, request.options)
        if params is not request.params or options is not request.options:
            request = dataclasses.replace(
                request, params=params, options=options
            )
        deployment = planner.plan(request)
        deployment.hierarchy.validate(strict=True)
        return deployment


#: The default registry.  Core planners register below at import time;
#: the extension planners register when :mod:`repro.extensions` loads
#: (triggered lazily on first lookup).
REGISTRY = PlannerRegistry(autoload=("repro.extensions",))


def register_planner(cls=None, *, registry: PlannerRegistry | None = None,
                     replace: bool = False):
    """Class decorator: instantiate and register a planner.

    Usable bare (``@register_planner``) or parameterized
    (``@register_planner(registry=my_registry, replace=True)``).
    """

    def wrap(klass):
        (registry if registry is not None else REGISTRY).register(
            klass(), replace=replace
        )
        return klass

    return wrap if cls is None else wrap(cls)


# ---------------------------------------------------------------------- #
# built-in planners


def build_deployment(
    request: "PlanRequest",
    method: str,
    hierarchy: Hierarchy,
    report: ThroughputReport | None = None,
    extras: Mapping[str, object] | None = None,
) -> Deployment:
    """Wrap a planned ``hierarchy`` into a :class:`Deployment`.

    The shared construction helper for planner implementations: fills in
    the Eq. 16 report when none is given and carries planner-specific
    ``extras`` through.  Used by the built-in planners and the extension
    adapters alike.
    """
    if report is None:
        report = hierarchy_throughput(
            hierarchy, request.params, request.app_work
        )
    return Deployment(
        hierarchy=hierarchy,
        report=report,
        method=method,
        app_work=request.app_work,
        params=request.params,
        extras=dict(extras) if extras else {},
    )


@register_planner
class HeuristicRegistryPlanner:
    """Algorithm 1 — the paper's heterogeneous deployment heuristic."""

    name = "heuristic"
    capabilities = frozenset({CAP_AUTOMATIC, CAP_DEMAND})
    options_type = HeuristicOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        opts = request.options
        planner = HeuristicPlanner(
            request.params,
            strategy=opts.strategy,
            patience=opts.patience,
            allow_promotion=opts.allow_promotion,
            agent_selection=opts.agent_selection,
        )
        result = planner.plan(
            request.pool, request.app_work, demand=request.demand
        )
        return build_deployment(request, self.name, result.hierarchy, result.report)


@register_planner
class HomogeneousRegistryPlanner:
    """Optimal complete-spanning-d-ary trees for homogeneous pools ([10])."""

    name = "homogeneous"
    capabilities = frozenset({CAP_AUTOMATIC, CAP_DEMAND})
    options_type = HomogeneousOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        planner = HomogeneousPlanner(
            request.params, spanning_only=request.options.spanning_only
        )
        result = planner.plan(
            request.pool, request.app_work, demand=request.demand
        )
        return build_deployment(request, self.name, result.hierarchy, result.report)


@register_planner
class ExhaustiveRegistryPlanner:
    """Exact optimum by enumeration (small pools only).

    Pools above :data:`repro.core.optimal.MAX_EXHAUSTIVE_NODES` nodes are
    rejected by the underlying search.
    """

    name = "exhaustive"
    capabilities = frozenset({CAP_AUTOMATIC, CAP_DEMAND, CAP_EXACT})
    options_type = ExhaustiveOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        result = exhaustive_plan(
            request.pool, request.params, request.app_work,
            demand=request.demand,
        )
        return build_deployment(request, self.name, result.hierarchy, result.report)


@register_planner
class StarRegistryPlanner:
    """Star baseline: one agent, every other node a server (§5.3)."""

    name = "star"
    capabilities = frozenset({CAP_BASELINE})
    options_type = StarOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        return build_deployment(
            request, self.name, star_deployment(request.pool)
        )


@register_planner
class BalancedRegistryPlanner:
    """Balanced two-level baseline (the paper's 1 + 14 x 14 shape)."""

    name = "balanced"
    capabilities = frozenset({CAP_BASELINE})
    options_type = BalancedOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        middle = request.options.middle_agents
        if middle is None:
            middle = default_middle_agents(request.pool)
        return build_deployment(
            request, self.name, balanced_deployment(request.pool, middle)
        )


@register_planner
class ChainRegistryPlanner:
    """Agent-chain baseline (ablation shape)."""

    name = "chain"
    capabilities = frozenset({CAP_BASELINE})
    options_type = ChainOptions

    def plan(self, request: "PlanRequest") -> Deployment:
        return build_deployment(
            request, self.name,
            chain_deployment(request.pool, request.options.agents),
        )
