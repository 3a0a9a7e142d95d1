"""Autoscaling policies — the control loop's *decide* stage.

A policy looks at the monitor's windowed observations (plus the model's
capacity estimate of the live deployment) and chooses one of three
actions per epoch:

``hold``
    Keep the current deployment.
``improve``
    Grow the running deployment in place with
    :func:`repro.extensions.redeploy.improve_deployment` — the paper's
    prior-work mechanism, consuming spare nodes.  Cheap migration: only
    the touched nodes move.
``replan``
    Plan a fresh deployment over the whole pool through the planner
    registry, optionally capped to a demand target (requests/s) so the
    platform can also *shrink*.
``repair``
    Self-healing response to an *observed fault* (dead node, fresh
    partition): splice spare pool nodes over the gap — or restructure
    the survivors when no spares remain — through the same
    improve/replan machinery, exempt from the amortization veto.

Policies register by name (:func:`register_policy`) exactly like
planners, and declare :class:`PolicyOptions` dataclasses — the planner
registry's typed-option machinery (eager validation, CLI string
coercion) with :class:`~repro.errors.ControlError` as the error domain —
so ``repro-deploy control --policy NAME --policy-opt key=value`` and
third-party policies come for free:

* ``hold`` — the static no-op baseline (what the paper's one-shot plan
  amounts to);
* ``reactive`` — threshold rules on the window's bottleneck utilization
  and queue depth, gated by hysteresis (N consecutive windows) and a
  post-redeploy cooldown; when saturation persists with every pool node
  deployed it proposes a **same-nodes restructuring replan** (shape,
  not size — applied only if the reshaped tree raises modeled capacity
  and its migration price amortizes);
* ``predictive`` — linear lookahead on the offered-client trend, scaled
  through the throughput model's capacity estimate, acting *before*
  saturation (with the same restructure-at-full-occupancy escape);
* ``predictive_ewma`` — Holt-Winters-style exponentially smoothed
  level+trend forecast with an optional additive seasonal component,
  built for recurring shapes like the ``diurnal`` trace;
* ``oracle`` — reads the true future trace level and replans whenever
  required capacity drifts from deployed capacity.  An upper bound on
  responsiveness and a deliberately migration-oblivious baseline: it
  redeploys on every demand shift, so a good reactive policy should
  approach its served throughput with far fewer redeploys.

Every decision the loop applies is additionally priced through a
:class:`MigrationCostModel` (seconds of downtime derived from
:class:`~repro.core.params.ModelParams` communication constants) —
full-platform relaunch cost for stop-the-world restarts, service-weighted
per-subtree drain cost for live migration plans; scale-ups whose modeled
gain does not amortize the migration loss are vetoed by the loop.  The
live price is typically orders of magnitude below the restart price,
which is what lets policies act aggressively under live migration.
"""

from __future__ import annotations

import dataclasses
import functools
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.control.traces import Trace
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.registry import PlannerOptions
from repro.errors import ControlError, PlanningError

if TYPE_CHECKING:  # pragma: no cover
    from repro.control.monitor import WindowObservation
    from repro.deploy.migration import MigrationPlan, MigrationRegion

__all__ = [
    "MIGRATION_MODES",
    "ControlDecision",
    "ControlContext",
    "ControlPolicy",
    "MigrationCostModel",
    "register_policy",
    "available_policies",
    "make_policy",
    "PolicyOptions",
    "HoldOptions",
    "ReactiveOptions",
    "PredictiveOptions",
    "SeasonalPredictiveOptions",
    "OracleOptions",
    "StaticPolicy",
    "ReactivePolicy",
    "PredictivePolicy",
    "SeasonalPredictivePolicy",
    "OraclePolicy",
]


#: Valid :class:`~repro.control.loop.ControlLoop` migration modes.
#: Lives here (not in the loop module) so light CLI imports can build
#: their ``--migration`` choices without dragging in the sim stack.
MIGRATION_MODES = ("live", "concurrent", "restart")


@dataclass(frozen=True)
class ControlDecision:
    """One policy verdict for the upcoming epoch.

    ``demand`` is the capacity target (requests/s) of a ``replan`` —
    ``None`` means plan for maximum throughput.  Demand-free replans
    are *capacity-seeking*: the loop applies them only when the planned
    tree's modeled capacity exceeds the deployed one (anything else is
    churn), whereas a demand-capped replan may also shrink or move
    sideways.

    ``repair`` is the failure response: regrow capacity over the
    surviving deployment from spare pool nodes (or restructure the
    survivors when none remain).  It is realized through the same
    improve/replan machinery, but the loop exempts it from the scale-up
    amortization veto — a repair restores the SLO, it does not chase
    marginal gain.

    ``evict`` drains-and-replaces a persistently degraded server
    (named in ``targets``) with a spare through the ordinary migration
    machinery; like repair it is veto-exempt — cutting a straggler
    loose restores the SLO too.
    """

    action: str  # "hold" | "improve" | "replan" | "repair" | "evict"
    reason: str = ""
    demand: float | None = None
    #: Nodes the decision names explicitly (evict: the server to drain).
    targets: tuple = ()

    def __post_init__(self) -> None:
        if self.action not in (
            "hold", "improve", "replan", "repair", "evict"
        ):
            raise ControlError(
                f"unknown control action {self.action!r}; "
                "expected hold, improve, replan, repair or evict"
            )
        if self.demand is not None and self.demand <= 0.0:
            raise ControlError(
                f"replan demand must be > 0, got {self.demand}"
            )
        if self.action == "evict" and not self.targets:
            raise ControlError("evict decisions must name their targets")
        if self.targets and not all(
            isinstance(t, str) and t for t in self.targets
        ):
            raise ControlError(
                f"decision targets must be node names, got {self.targets!r}"
            )

    @classmethod
    def hold(cls, reason: str = "") -> "ControlDecision":
        return cls("hold", reason)


@dataclass(frozen=True)
class ControlContext:
    """Everything a policy may look at when deciding.

    Attributes
    ----------
    observations:
        Monitor history, oldest first; ``observations[-1]`` is the epoch
        that just finished.
    capacity:
        Model-predicted throughput (Eq. 16) of the live deployment.
    deployed_nodes, pool_size, spares:
        Node accounting; ``spares`` are pool nodes not deployed.
    min_nodes:
        Smallest deployment the controller will shrink to.
    epoch_duration, next_start:
        Epoch length and the upcoming epoch's start time.
    trace:
        The workload trace.  Only the oracle may *peek ahead* on it;
        causal policies must restrict themselves to ``observations``.
    demand_unit:
        Online estimate of the requests/s one unsaturated closed-loop
        client generates (0 while unknown) — the bridge from trace
        levels (clients) to capacity targets (requests/s).
    redeploys, epochs_since_redeploy:
        Redeploy accounting, the raw material of cooldown gates.
    repair_spares:
        Spares available to *repairs and evictions* specifically.  With
        a repair reserve in force (a detection spec's ``reserve=`` key)
        this exceeds ``spares`` (which counts only what scale-ups may
        consume); without one the loop leaves it 0 and repairs fall
        back to ``spares``.
    hierarchy:
        The live deployment the decision is about (``None`` when a
        context is built without one).
    server_shares:
        ``(name, share)`` per deployed server — its power as a fraction
        of total deployed server power, i.e. the service share the model
        expects it to carry.  Compared against the observed
        ``WindowObservation.server_rates`` by the eviction rule, the one
        reader, so it is computed from ``hierarchy`` on first read.
    """

    observations: tuple[WindowObservation, ...]
    capacity: float
    deployed_nodes: int
    pool_size: int
    spares: int
    min_nodes: int
    epoch_duration: float
    next_start: float
    trace: Trace
    demand_unit: float
    redeploys: int
    epochs_since_redeploy: int
    repair_spares: int = 0
    hierarchy: Hierarchy | None = None

    @functools.cached_property
    def server_shares(self) -> tuple:
        if self.hierarchy is None:
            return ()
        powers = {
            str(node): self.hierarchy.power(node)
            for node in self.hierarchy.servers
        }
        total = sum(powers.values())
        if total <= 0.0:
            return ()
        return tuple(
            (name, power / total) for name, power in sorted(powers.items())
        )

    @property
    def last(self) -> WindowObservation | None:
        return self.observations[-1] if self.observations else None

    def required_rate(self, level: int, headroom: float = 1.0) -> float:
        """Capacity (req/s) needed to serve ``level`` clients unsaturated."""
        return max(0.0, level * self.demand_unit * headroom)

    def can_shrink(self) -> bool:
        return self.deployed_nodes > self.min_nodes


class ControlPolicy:
    """Protocol-by-convention base: a ``name`` and a ``decide``.

    Subclasses implement :meth:`decide`; stateless by design — all state
    a policy needs (hysteresis counters included) is derivable from the
    context's observation history, which keeps runs replayable.

    Registered policies declare an ``options_type`` (a
    :class:`PolicyOptions` dataclass, possibly field-less) and get
    typed, eagerly-validated option handling through
    :func:`make_policy`, sharing the planner registry's coercion
    machinery.  That dataclass is the only declaration of a policy's
    options: the constructor takes exactly its fields as keywords,
    validates them by building it, and copies each field onto the
    instance.  A policy without an ``options_type`` takes no options.
    """

    name = "abstract"
    #: Typed option dataclass; :func:`register_policy` requires one.
    options_type: "type[PolicyOptions] | None" = None

    def __init__(self, **options: object) -> None:
        resolved = (self.options_type or PolicyOptions)(**options)
        for spec in dataclasses.fields(resolved):
            setattr(self, spec.name, getattr(resolved, spec.name))

    def decide(self, ctx: ControlContext) -> ControlDecision:
        raise NotImplementedError  # pragma: no cover

    def describe(self) -> str:
        options = ", ".join(
            f"{key}={value!r}"
            for key, value in sorted(vars(self).items())
        )
        return f"{self.name}({options})"


# ---------------------------------------------------------------------- #
# typed policy options


@dataclass(frozen=True)
class PolicyOptions(PlannerOptions):
    """Base class for per-policy typed option dataclasses.

    Exactly the planner registry's :class:`~repro.core.registry.\
PlannerOptions` machinery — typed fields, eager ``__post_init__``
    validation, string coercion for CLI ``--policy-opt key=value`` flags
    (including tuple specs and annotations) — but raising
    :class:`~repro.errors.ControlError` so control-plane callers keep a
    single error domain.
    """

    @classmethod
    def coerce(cls, mapping: Mapping[str, object]) -> "PolicyOptions":
        valid = sorted(f.name for f in dataclasses.fields(cls))
        unknown = sorted(set(mapping) - set(valid))
        if unknown:
            raise ControlError(
                f"unknown option(s) {unknown} for policy options "
                f"{cls.__name__}; valid options: {valid}"
            )
        try:
            return super().coerce(mapping)
        except PlanningError as exc:
            raise ControlError(str(exc)) from exc


# ---------------------------------------------------------------------- #
# registry

_POLICIES: dict[str, type] = {}


def register_policy(cls: type) -> type:
    """Class decorator registering a policy under ``cls.name``.

    The class must declare an ``options_type``: a :class:`PolicyOptions`
    dataclass (a field-less subclass for a policy without options).  The
    inherited :class:`ControlPolicy` constructor takes its fields as
    keywords, so the two cannot drift apart.
    """
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise ControlError(
            f"policy {cls!r} needs a non-empty string `name`"
        )
    if not callable(getattr(cls, "decide", None)):
        raise ControlError(f"policy {name!r} needs a decide() method")
    options_type = getattr(cls, "options_type", None)
    if not (
        isinstance(options_type, type)
        and issubclass(options_type, PolicyOptions)
    ):
        raise ControlError(
            f"policy {name!r} needs an `options_type`: declare a frozen "
            "PolicyOptions dataclass with one field per policy option "
            "(an empty subclass if it takes none) and set it as the "
            "class attribute `options_type`"
        )
    if name in _POLICIES:
        raise ControlError(f"policy {name!r} is already registered")
    _POLICIES[name] = cls
    return cls


def available_policies() -> tuple[str, ...]:
    """Registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


def _policy_class(policy: str) -> type:
    """The class registered as ``policy``; unknown names are errors."""
    if policy not in _POLICIES:
        raise ControlError(
            f"unknown control policy {policy!r}; "
            f"available policies: {', '.join(available_policies())}"
        )
    return _POLICIES[policy]


def accepted_options(policy: str) -> frozenset[str]:
    """Option names policy ``policy`` accepts: its options' fields."""
    options_type = _policy_class(policy).options_type
    return frozenset(f.name for f in dataclasses.fields(options_type))


def make_policy(
    policy: "str | ControlPolicy",
    options: Mapping[str, object] | None = None,
) -> "ControlPolicy":
    """Resolve a policy name (plus loose options) into an instance.

    Options resolve through the policy's typed ``options_type``: eager
    validation, registry-grade string coercion, actionable unknown-key
    errors.
    """
    if isinstance(policy, ControlPolicy):
        if options:
            raise ControlError(
                "policy options only apply when the policy is given by "
                "name, not as an instance"
            )
        return policy
    cls = _policy_class(policy)
    resolved = cls.options_type.coerce(options or {})
    return cls(
        **{
            spec.name: getattr(resolved, spec.name)
            for spec in dataclasses.fields(resolved)
        }
    )


# ---------------------------------------------------------------------- #
# migration pricing


@dataclass(frozen=True)
class MigrationCostModel:
    """Downtime (seconds) of switching deployments, priced from the model.

    Two migration mechanisms, two prices:

    **Full restart** (legacy, :meth:`cost_seconds`): the whole platform
    stops, and *every* element of the target deployment is relaunched —
    ``launch_seconds`` of process spawn/registration plus a
    configuration push (``config_mb`` over the platform link) and
    ``control_round_trips`` agent-level request/reply exchanges — the
    same :class:`~repro.core.params.ModelParams` communication constants
    the throughput model bills (Table 3 sizes over ``bandwidth``) — on
    top of a fixed control-plane ``restart_seconds`` barrier.
    GoDIET-style launchers behave exactly like this: tear everything
    down, per-element launch and config, serial acks, one restart
    barrier; in-flight requests die with the old daemons.

    **Live, per-subtree** (:meth:`plan_outage_seconds`): a
    :class:`~repro.deploy.migration.MigrationPlan` drains one subtree at
    a time while the rest keeps serving.  Each drained region pays at
    most ``drain_seconds`` of quiesce window plus its structural steps'
    config pushes, but only its *drained fraction* of the platform is
    out — the effective downtime is the service-weighted outage, which
    is what lets policies act far more aggressively than under the
    restart price.  Pure capacity growth (new servers under surviving
    agents) drains nothing and prices at configuration cost only.
    """

    restart_seconds: float = 0.25
    config_mb: float = 1.0
    control_round_trips: int = 2
    #: Process launch + naming-service registration per element, billed
    #: for every target node on a full restart and for newly attached
    #: nodes during live migration (where it overlaps with serving).
    launch_seconds: float = 0.1
    #: Per-region drain cap (seconds) for live migrations.  The runtime
    #: exits a drain as soon as the region goes quiet, so this is the
    #: worst case, and the conservative price the veto gate uses.
    drain_seconds: float = 0.25

    def __post_init__(self) -> None:
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value < 0:
                raise ControlError(f"{spec.name} must be >= 0, got {value}")

    @staticmethod
    def touched_nodes(old: Hierarchy | None, new: Hierarchy) -> int:
        """Nodes added, removed, re-parented or role-changed."""
        if old is None:
            return len(new)

        def placement(h: Hierarchy) -> dict[str, tuple[str, object]]:
            return {
                str(node): (str(h.parent(node)), h.role(node)) for node in h
            }

        before, after = placement(old), placement(new)
        added = set(after) - set(before)
        removed = set(before) - set(after)
        moved = {
            node
            for node in set(before) & set(after)
            if before[node] != after[node]
        }
        return len(added) + len(removed) + len(moved)

    def per_node_seconds(self, params: ModelParams) -> float:
        """Configuration-push time billed per structurally touched node."""
        return (
            self.config_mb / params.bandwidth
            + self.control_round_trips * params.agent_child_comm
        )

    def cost_seconds(
        self, old: Hierarchy | None, new: Hierarchy, params: ModelParams
    ) -> float:
        """Predicted downtime of a full-restart migration ``old`` → ``new``.

        Stop-the-world semantics: the old platform is torn down whole
        and every element of the *new* one is launched and configured,
        however small the structural diff — which is exactly why live
        migration pays off.
        """
        return self._stop_the_world_seconds(len(new), params)

    def _stop_the_world_seconds(self, nodes: int, params: ModelParams) -> float:
        """One restart barrier plus a full relaunch of ``nodes`` elements."""
        per_node = self.launch_seconds + self.per_node_seconds(params)
        return self.restart_seconds + nodes * per_node

    def region_config_seconds(self, region, params: ModelParams) -> float:
        """Configuration time of one region's structural steps.

        Reconfigurations are in-place config pushes; only newly
        attached elements additionally pay the launch cost.  This is
        the exact time the live executor bills the simulation for a
        region's reconfiguration, shared here so the veto price and the
        executed cost can never drift apart.
        """
        launches = sum(
            1 for step in region.structural_steps if step.op == "attach"
        )
        return (
            region.touched * self.per_node_seconds(params)
            + launches * self.launch_seconds
        )

    def region_window_seconds(self, region, params: ModelParams) -> float:
        """Worst-case wall (simulated) duration of one migration region."""
        drain = self.drain_seconds if region.drained else 0.0
        return drain + self.region_config_seconds(region, params)

    def wave_window_seconds(self, wave, params: ModelParams) -> float:
        """Worst-case wall duration of one migration wave.

        The wave executor shares a single drain cap across a wave's
        simultaneously-draining regions, each slice proportional to the
        region's drained-node count; a wave closes when its slowest
        region (drain slice plus config push) resumes.  A single-region
        wave — every wave of a serial ``"live"`` schedule — prices
        exactly like :meth:`region_window_seconds`: the share is 1.0.
        """
        total_drained = sum(len(region.drained) for region in wave)
        window = 0.0
        for region in wave:
            drain = (
                self.drain_seconds * (len(region.drained) / total_drained)
                if region.drained
                else 0.0
            )
            window = max(
                window, drain + self.region_config_seconds(region, params)
            )
        return window

    def plan_outage_seconds(
        self, plan: "MigrationPlan", params: ModelParams
    ) -> float:
        """Effective downtime of a plan: outage weighted by coverage.

        For live (incremental) plans, each region's window counts only
        in proportion to the fraction of deployed nodes it drains — the
        rest of the platform serves straight through, and pure-growth
        regions cost nothing.  Restart-kind and cold plans are
        stop-the-world rebuilds of the whole target, so they price
        exactly like :meth:`cost_seconds`: one barrier plus a full
        relaunch of every target element.

        The effective outage is *schedule-independent*: draining two
        regions concurrently overlaps their dark windows in wall time
        but each subtree is still dark for its own window, so the
        service-weighted sum is the same either way.  What a concurrent
        schedule shrinks is the **wall window** of the whole migration
        — see :meth:`plan_window_seconds`.
        """
        if not plan.is_live:
            return self._stop_the_world_seconds(plan.target_nodes, params)
        deployed = max(1, plan.source_nodes)
        outage = 0.0
        for region in plan.regions:
            window = self.region_window_seconds(region, params)
            fraction = min(1.0, len(region.drained) / deployed)
            outage += window * fraction
        return outage

    def plan_window_seconds(
        self,
        plan: "MigrationPlan",
        params: ModelParams,
        waves: "Sequence[Sequence[MigrationRegion]]",
    ) -> float:
        """Worst-case wall (simulated) duration of executing ``plan``.

        ``waves`` is the schedule the executor will run the plan's
        regions in: each wave pays only its *slowest* region
        (:meth:`wave_window_seconds`), waves run back to back.  One
        region per wave is the serial window; the plan's dependency
        waves (:meth:`~repro.deploy.migration.MigrationPlan
        .concurrent_schedule`) give a strictly shorter one whenever a
        wave holds independent regions.  Non-live plans are one
        stop-the-world window, priced like :meth:`cost_seconds`
        whatever ``waves`` says.  This is the horizon discount the
        amortization gate applies: the modeled gain only starts
        accruing once the migration window has closed.
        """
        if not plan.is_live:
            return self._stop_the_world_seconds(plan.target_nodes, params)
        return sum(self.wave_window_seconds(wave, params) for wave in waves)


# ---------------------------------------------------------------------- #
# built-in policies


def _failure_decision(
    ctx: ControlContext, restructure: bool
) -> ControlDecision | None:
    """The shared self-healing gate: repair if a fault was just observed.

    Checked *before* every warm-up/cooldown/hysteresis gate — a dead
    subtree does not wait out a cooldown.  Only the *latest* window
    counts: the monitor reports each crashed node exactly once (in the
    window its failure was observed), and a partition is fresh only in
    the window its root first appears among the standing set — so a
    fault triggers exactly one repair decision, and if realizing it is
    a no-op (nothing raises modeled capacity over the survivors) the
    policy resumes normal scaling next epoch instead of retrying a
    hopeless repair forever.  Returns ``None`` when healthy.
    """
    if not ctx.observations:
        return None
    latest = ctx.observations[-1]
    previous = (
        set(ctx.observations[-2].partitioned_nodes)
        if len(ctx.observations) > 1
        else set()
    )
    fresh_partitions = set(latest.partitioned_nodes) - previous
    broken = sorted(set(latest.failed_nodes) | fresh_partitions)
    if not broken:
        return None
    what = ", ".join(broken)
    # Repairs draw on the reserved pool too (that is what the reserve
    # is *for*); without a reserve, repair_spares is 0 and this reduces
    # to the plain spare count.
    if max(ctx.spares, ctx.repair_spares) > 0:
        return ControlDecision(
            "repair", f"observed failure of {what}; splicing in spares"
        )
    if restructure:
        return ControlDecision(
            "repair",
            f"observed failure of {what}; no spares, restructuring "
            "the survivors",
        )
    return ControlDecision.hold(
        f"observed failure of {what} but no spares to repair with"
    )


def _eviction_decision(
    ctx: ControlContext, evict_after: int, evict_fraction: float
) -> ControlDecision | None:
    """Drain-and-replace a persistently under-serving server.

    The straggler rule, in load-independent form: a server whose
    *observed share* of completed services stays below ``evict_fraction``
    of its *modeled share* (power-proportional — what Eq. 8's balanced
    split expects it to carry) for ``evict_after`` consecutive windows
    is evicted.  Comparing shares rather than absolute rates keeps the
    rule honest at low offered load, where every absolute rate is small.

    Fires only when a spare exists to take the straggler's place, and
    only on windows measured entirely under the current deployment —
    windows spanning a redeploy compare a server against a tree it was
    not part of.  Returns ``None`` when nothing qualifies.
    """
    if evict_after < 1 or len(ctx.observations) < evict_after:
        return None
    if max(ctx.spares, ctx.repair_spares) < 1:
        return None
    if ctx.redeploys > 0 and ctx.epochs_since_redeploy + 1 < evict_after:
        return None
    shares = dict(ctx.server_shares)
    if not shares:
        return None
    candidates: set[str] | None = None
    for observation in ctx.observations[-evict_after:]:
        rates = dict(observation.server_rates)
        total = sum(rates.values())
        if total <= 0.0:
            return None  # idle window: no evidence either way
        lagging = {
            name
            for name, share in shares.items()
            if share > 0.0
            and name in rates
            and rates[name] / total < evict_fraction * share
        }
        candidates = lagging if candidates is None else candidates & lagging
        if not candidates:
            return None
    assert candidates  # non-empty by the loop's early return
    # Deterministic pick: the worst laggard in the latest window, ties
    # by name.
    latest_rates = dict(ctx.observations[-1].server_rates)
    target = min(
        sorted(candidates),
        key=lambda name: (latest_rates.get(name, 0.0), name),
    )
    return ControlDecision(
        "evict",
        f"server {target} served under {evict_fraction:.0%} of its "
        f"modeled share for {evict_after} consecutive window(s); "
        "draining and replacing it",
        targets=(target,),
    )


def _self_healing_decision(
    policy: "ControlPolicy", ctx: ControlContext
) -> ControlDecision | None:
    """The scaling policies' first gate: a due repair, else a due eviction.

    Runs :func:`_failure_decision` if ``policy.repair`` is set, then
    :func:`_eviction_decision` if ``policy.evict_after`` is; ``None``
    when neither fires.
    """
    if policy.repair:
        healing = _failure_decision(ctx, policy.restructure)
        if healing is not None:
            return healing
    if policy.evict_after:
        return _eviction_decision(
            ctx, policy.evict_after, policy.evict_fraction
        )
    return None


@dataclass(frozen=True)
class HoldOptions(PolicyOptions):
    """The static baseline takes no options."""


@dataclass(frozen=True)
class _ScalingOptions(PolicyOptions):
    """Options every scaling policy shares (validated eagerly)."""

    cooldown: int = 2
    #: When pressure persists with every pool node deployed, propose a
    #: same-nodes restructuring replan (shape, not size); the loop only
    #: applies it if the reshaped tree raises modeled capacity and the
    #: migration price amortizes.
    restructure: bool = True
    #: Self-healing: answer observed node failures and fresh partitions
    #: with a ``repair`` decision, ahead of every other gate.
    repair: bool = True
    #: Straggler eviction: drain-and-replace a server whose observed
    #: service share stays below ``evict_fraction`` of its modeled share
    #: for ``evict_after`` consecutive windows.  0 disables (default).
    evict_after: int = 0
    evict_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.evict_after < 0:
            raise ControlError(
                "evict_after must be >= 0 (0 disables), "
                f"got {self.evict_after}"
            )
        if not (0.0 < self.evict_fraction < 1.0):
            raise ControlError(
                "evict_fraction must be in (0, 1), "
                f"got {self.evict_fraction}"
            )
        if self.cooldown < 0:
            raise ControlError(f"cooldown must be >= 0, got {self.cooldown}")


@dataclass(frozen=True)
class ReactiveOptions(_ScalingOptions):
    """Options of the threshold policy (validated eagerly)."""

    up_utilization: float = 0.90
    up_fraction: float = 0.90
    down_fraction: float = 0.40
    hysteresis: int = 2
    headroom: float = 1.3

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (0.0 < self.up_utilization <= 1.0):
            raise ControlError(
                f"up_utilization must be in (0, 1], got {self.up_utilization}"
            )
        if not (0.0 < self.down_fraction < self.up_fraction <= 1.0):
            raise ControlError(
                "need 0 < down_fraction < up_fraction <= 1, got "
                f"({self.down_fraction}, {self.up_fraction})"
            )
        if self.hysteresis < 1:
            raise ControlError(
                f"hysteresis must be >= 1, got {self.hysteresis}"
            )
        if self.headroom < 1.0:
            raise ControlError(f"headroom must be >= 1, got {self.headroom}")


@dataclass(frozen=True)
class PredictiveOptions(_ScalingOptions):
    """Options of the trend-extrapolation policy (validated eagerly)."""

    lookahead: int = 2
    window: int = 3
    headroom: float = 1.25
    down_fraction: float = 0.4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lookahead < 1:
            raise ControlError(
                f"lookahead must be >= 1, got {self.lookahead}"
            )
        if self.window < 2:
            raise ControlError(f"window must be >= 2, got {self.window}")
        if self.headroom < 1.0:
            raise ControlError(f"headroom must be >= 1, got {self.headroom}")
        if not (0.0 < self.down_fraction < 1.0):
            raise ControlError(
                f"down_fraction must be in (0, 1), got {self.down_fraction}"
            )


@dataclass(frozen=True)
class OracleOptions(PolicyOptions):
    """Options of the clairvoyant replanner (validated eagerly)."""

    headroom: float = 1.2
    tolerance: float = 0.15

    def __post_init__(self) -> None:
        if self.headroom < 1.0:
            raise ControlError(f"headroom must be >= 1, got {self.headroom}")
        if self.tolerance <= 0.0:
            raise ControlError(
                f"tolerance must be > 0, got {self.tolerance}"
            )


@register_policy
class StaticPolicy(ControlPolicy):
    """Never adapt — the paper's one-shot deployment as a baseline."""

    name = "hold"
    options_type = HoldOptions

    def decide(self, ctx: ControlContext) -> ControlDecision:
        return ControlDecision.hold("static policy")


@register_policy
class ReactivePolicy(ControlPolicy):
    """Threshold rules with hysteresis and cooldown.

    Scale **up** (``improve``, consuming spare nodes) after
    ``hysteresis`` consecutive *saturated* windows: the
    aggregate served rate has reached ``up_fraction`` of the modeled
    capacity **and** the bottleneck node is pinned (utilization at
    ``up_utilization`` or queues backing up).  Both conditions matter —
    a single slow server can sit at 100 % utilization while the platform
    as a whole has plenty of headroom, and the aggregate alone cannot
    distinguish "at capacity" from "exactly sized".

    Scale **down** (demand-capped ``replan``) after ``hysteresis``
    consecutive windows whose served rate falls below ``down_fraction``
    of capacity — the platform is provably over-provisioned — sized to
    the recent peak offered level times ``headroom``.  Right-sizing is
    not just thrift: a smaller hierarchy has lower fan-out and latency,
    so closed-loop clients are actually served *faster* on it.

    Both directions respect a ``cooldown`` of epochs after any redeploy,
    which (with the hysteresis) is what keeps the policy still on a
    plateau instead of oscillating around a threshold.
    """

    name = "reactive"
    options_type = ReactiveOptions


    def decide(self, ctx: ControlContext) -> ControlDecision:
        healing = _self_healing_decision(self, ctx)
        if healing is not None:
            return healing
        if len(ctx.observations) < self.hysteresis:
            return ControlDecision.hold("warming up")
        if ctx.redeploys > 0 and ctx.epochs_since_redeploy < self.cooldown:
            return ControlDecision.hold("cooldown after redeploy")
        # Observations measured under a *previous* deployment compare a
        # stale served rate against the current capacity; only decide on
        # windows that lie entirely after the last redeploy.
        if ctx.redeploys > 0 and ctx.epochs_since_redeploy + 1 < self.hysteresis:
            return ControlDecision.hold("hysteresis window spans a redeploy")
        recent = ctx.observations[-self.hysteresis:]
        overloaded = all(
            o.offered > 0
            and o.served_rate >= self.up_fraction * ctx.capacity
            and (
                o.busiest_utilization >= self.up_utilization
                or o.queue_depth > o.offered
            )
            for o in recent
        )
        if overloaded:
            if ctx.spares > 0:
                return ControlDecision(
                    "improve",
                    f"saturated {self.hysteresis} epochs "
                    f"(util {recent[-1].busiest_utilization:.2f} at "
                    f"{recent[-1].busiest_node})",
                )
            if self.restructure:
                # Every pool node is deployed and pressure persists: the
                # *shape* of the tree is the bottleneck, not its size.
                # A demand-free replan asks the planner for the best
                # tree over the same nodes; the loop applies it only if
                # it raises modeled capacity and its (live/concurrent)
                # migration price amortizes.
                return ControlDecision(
                    "replan",
                    f"saturated {self.hysteresis} epochs with pool "
                    "exhausted; restructuring over the same nodes",
                )
            return ControlDecision.hold("saturated but pool exhausted")
        idle = all(
            o.served_rate <= self.down_fraction * ctx.capacity
            for o in recent
        )
        if idle and ctx.can_shrink() and ctx.demand_unit > 0.0:
            peak_offered = max(o.offered for o in recent)
            required = max(
                ctx.required_rate(peak_offered, self.headroom),
                ctx.demand_unit,
            )
            if required < ctx.capacity:
                return ControlDecision(
                    "replan",
                    f"over-provisioned {self.hysteresis} epochs "
                    f"(serving {recent[-1].served_rate:.1f} of "
                    f"{ctx.capacity:.1f} req/s capacity)",
                    demand=required,
                )
        return ControlDecision.hold("within thresholds")


@register_policy
class PredictivePolicy(ControlPolicy):
    """Linear lookahead on the offered-client trend through the model.

    Extrapolates the offered level ``lookahead`` epochs ahead, converts
    it to a required rate via the online demand-unit estimate, and acts
    when the *predicted* requirement crosses the deployment's modeled
    capacity — scaling before saturation instead of after it.  Shares
    the reactive policy's cooldown gate; the trend window doubles as
    hysteresis.
    """

    name = "predictive"
    options_type = PredictiveOptions


    def decide(self, ctx: ControlContext) -> ControlDecision:
        healing = _self_healing_decision(self, ctx)
        if healing is not None:
            return healing
        if len(ctx.observations) < self.window or ctx.demand_unit <= 0.0:
            return ControlDecision.hold("warming up")
        if ctx.redeploys > 0 and ctx.epochs_since_redeploy < self.cooldown:
            return ControlDecision.hold("cooldown after redeploy")
        if ctx.redeploys > 0 and ctx.epochs_since_redeploy + 1 < self.window:
            return ControlDecision.hold("trend window spans a redeploy")
        recent = ctx.observations[-self.window:]
        slope = (recent[-1].offered - recent[0].offered) / (self.window - 1)
        predicted = max(0.0, recent[-1].offered + slope * self.lookahead)
        required = max(
            predicted * ctx.demand_unit * self.headroom, ctx.demand_unit
        )
        if required > ctx.capacity:
            if ctx.spares > 0:
                return ControlDecision(
                    "improve",
                    f"predicted {predicted:.0f} clients needs "
                    f"{required:.1f} req/s > capacity {ctx.capacity:.1f}",
                )
            if self.restructure:
                return ControlDecision(
                    "replan",
                    f"predicted {predicted:.0f} clients exceeds capacity "
                    "with pool exhausted; restructuring over the same "
                    "nodes",
                )
            return ControlDecision.hold("predicted overload; pool exhausted")
        if required < ctx.capacity * self.down_fraction and ctx.can_shrink():
            return ControlDecision(
                "replan",
                f"predicted demand {required:.1f} req/s well under "
                f"capacity {ctx.capacity:.1f}",
                demand=required,
            )
        return ControlDecision.hold("capacity matches prediction")


@dataclass(frozen=True)
class SeasonalPredictiveOptions(_ScalingOptions):
    """Options of the EWMA/seasonal predictor (validated eagerly)."""

    #: Level smoothing factor (EWMA weight of the newest window).
    alpha: float = 0.5
    #: Trend smoothing factor.
    beta: float = 0.3
    #: Seasonal smoothing factor (used when ``season > 0``).
    gamma: float = 0.3
    #: Season length in epochs; 0 disables the seasonal component and
    #: leaves a plain Holt (level+trend) double-EWMA.  For a ``diurnal``
    #: trace, set this to ``period / epoch_duration``.
    season: int = 0
    lookahead: int = 2
    headroom: float = 1.25
    down_fraction: float = 0.4
    #: Observations required before the smoothed forecast is trusted.
    warmup: int = 3

    def __post_init__(self) -> None:
        super().__post_init__()
        for name in ("alpha", "beta", "gamma"):
            value = getattr(self, name)
            if not (0.0 < value <= 1.0):
                raise ControlError(
                    f"{name} must be in (0, 1], got {value}"
                )
        if self.season < 0:
            raise ControlError(f"season must be >= 0, got {self.season}")
        if self.lookahead < 1:
            raise ControlError(
                f"lookahead must be >= 1, got {self.lookahead}"
            )
        if self.headroom < 1.0:
            raise ControlError(f"headroom must be >= 1, got {self.headroom}")
        if not (0.0 < self.down_fraction < 1.0):
            raise ControlError(
                f"down_fraction must be in (0, 1), got {self.down_fraction}"
            )
        if self.warmup < 2:
            raise ControlError(f"warmup must be >= 2, got {self.warmup}")


@register_policy
class SeasonalPredictivePolicy(ControlPolicy):
    """Holt-Winters-style EWMA forecast of the offered-client level.

    Where :class:`PredictivePolicy` fits a straight line through a short
    window — jumpy on noisy traces, blind to recurring shapes — this
    variant keeps exponentially-smoothed *level* and *trend* estimates
    (Holt's method) plus an optional additive *seasonal* component
    indexed by epoch-within-season, which is what makes it track
    ``diurnal`` traces: after one full period it anticipates the next
    peak instead of chasing it.

    Stateless like every policy: the smoothed state is recomputed from
    the full observation history each epoch (O(n), n = epochs so far),
    so runs stay replayable from the context alone.
    """

    name = "predictive_ewma"
    options_type = SeasonalPredictiveOptions


    def _forecast(self, offered: "list[int]") -> float:
        """Holt(-Winters additive) forecast ``lookahead`` steps ahead."""
        level = float(offered[0])
        trend = float(offered[1] - offered[0])
        seasonal = [0.0] * self.season if self.season > 0 else []
        for i, value in enumerate(offered[1:], start=1):
            season_term = seasonal[i % self.season] if self.season > 0 else 0.0
            previous_level = level
            level = (
                self.alpha * (value - season_term)
                + (1.0 - self.alpha) * (level + trend)
            )
            trend = (
                self.beta * (level - previous_level)
                + (1.0 - self.beta) * trend
            )
            if self.season > 0:
                seasonal[i % self.season] = (
                    self.gamma * (value - level)
                    + (1.0 - self.gamma) * seasonal[i % self.season]
                )
        horizon = len(offered) - 1 + self.lookahead
        season_term = (
            seasonal[horizon % self.season] if self.season > 0 else 0.0
        )
        return max(0.0, level + trend * self.lookahead + season_term)

    def decide(self, ctx: ControlContext) -> ControlDecision:
        healing = _self_healing_decision(self, ctx)
        if healing is not None:
            return healing
        if len(ctx.observations) < self.warmup or ctx.demand_unit <= 0.0:
            return ControlDecision.hold("warming up")
        if ctx.redeploys > 0 and ctx.epochs_since_redeploy < self.cooldown:
            return ControlDecision.hold("cooldown after redeploy")
        predicted = self._forecast([o.offered for o in ctx.observations])
        required = max(
            predicted * ctx.demand_unit * self.headroom, ctx.demand_unit
        )
        if required > ctx.capacity:
            if ctx.spares > 0:
                return ControlDecision(
                    "improve",
                    f"ewma forecast {predicted:.0f} clients needs "
                    f"{required:.1f} req/s > capacity {ctx.capacity:.1f}",
                )
            if self.restructure:
                return ControlDecision(
                    "replan",
                    f"ewma forecast {predicted:.0f} clients exceeds "
                    "capacity with pool exhausted; restructuring over "
                    "the same nodes",
                )
            return ControlDecision.hold("forecast overload; pool exhausted")
        if required < ctx.capacity * self.down_fraction and ctx.can_shrink():
            return ControlDecision(
                "replan",
                f"ewma forecast {required:.1f} req/s well under "
                f"capacity {ctx.capacity:.1f}",
                demand=required,
            )
        return ControlDecision.hold("capacity matches ewma forecast")


@register_policy
class OraclePolicy(ControlPolicy):
    """Clairvoyant replanner: reads the true future trace level.

    Every epoch it peeks at the trace over the next epoch, converts the
    peak upcoming level into a required rate, and replans the full pool
    whenever required and deployed capacity differ by more than
    ``tolerance`` — no hysteresis, no cooldown, no migration awareness.
    It bounds how much throughput *any* causal policy could recover, at
    the price of redeploying on every demand shift.
    """

    name = "oracle"
    options_type = OracleOptions

    def decide(self, ctx: ControlContext) -> ControlDecision:
        if ctx.demand_unit <= 0.0:
            return ControlDecision.hold("calibrating demand unit")
        step = max(ctx.epoch_duration / 4.0, 1e-6)
        upcoming = ctx.trace.peak(
            ctx.next_start, ctx.next_start + ctx.epoch_duration, step
        )
        required = max(
            ctx.required_rate(upcoming, self.headroom), ctx.demand_unit
        )
        if required > ctx.capacity * (1.0 + self.tolerance):
            return ControlDecision(
                "replan",
                f"oracle: {upcoming} clients next epoch needs "
                f"{required:.1f} req/s > capacity {ctx.capacity:.1f}",
                demand=required,
            )
        if (
            required < ctx.capacity * (1.0 - self.tolerance)
            and ctx.can_shrink()
        ):
            return ControlDecision(
                "replan",
                f"oracle: {upcoming} clients next epoch needs only "
                f"{required:.1f} req/s < capacity {ctx.capacity:.1f}",
                demand=required,
            )
        return ControlDecision.hold("oracle: capacity matches demand")
