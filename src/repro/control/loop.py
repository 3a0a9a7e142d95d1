"""The rolling-horizon autoscaling controller — *act* stage and driver.

:class:`ControlLoop` runs a deployment inside the discrete-event
simulator under a time-varying :class:`~repro.control.traces.Trace` and
adapts it epoch by epoch.  Each epoch runs six stages over one per-run
state:

1. **simulate** — match the closed-loop client population to the trace
   level, then advance the engine one epoch, injecting the faults due
   inside it;
2. **observe** — :class:`~repro.control.monitor.SLOMonitor` condenses
   the window (served rate, per-tier utilization, queue depth), the
   demand unit is calibrated, and a hybrid trace's fluid mass is folded
   in;
3. **reconcile** — the controller's tree catches up with the damage:
   under oracle health it adopts the survivors of a crash and reprices
   partitions and heals; under timeout-modelled detection it excises
   the subtrees the monitor confirmed dead;
4. **decide** — the configured policy returns ``hold`` / ``improve`` /
   ``replan`` / ``repair`` / ``evict``, and the loop realizes it into a
   priced candidate: ``improve`` and ``repair`` run the prior-work
   bottleneck-removal mechanism over the spares, ``replan`` goes through
   the planner registry, ``evict`` swaps a degraded server for the
   strongest spare.  Every candidate is priced by the
   :class:`~repro.control.policy.MigrationCostModel`, and a scale-up
   that cannot amortize its migration downtime is **vetoed**;
5. **act** — the platform migrates onto the candidate;
6. **record** — the epoch's metrics snapshot and :class:`EpochRecord`.

Applied redeploys run in one of three migration modes:

``migration="live"`` (the default)
    The old and new trees are diffed into a subtree-granular
    :class:`~repro.deploy.migration.MigrationPlan` and applied *inside*
    the running simulation by the wave executor, one region per wave:
    the region is unlinked from the fan-out, drained until quiet
    (bounded by the cost model's per-region cap), reconfigured, and
    resumed — clients keep running and the rest of the platform keeps
    serving throughout.  Only diffs the plan engine cannot realize
    incrementally (changed root, changed node powers) fall back to the
    stop-the-world path below.
``migration="concurrent"``
    The same wave executor over the plan's dependency waves
    (:meth:`~repro.deploy.migration.MigrationPlan.concurrent_schedule`):
    every region of a wave is unlinked at once and the engine advances
    under interleaved
    :meth:`~repro.sim.engine.Simulator.run_until_condition` drains —
    each region reconfigures and resumes the moment *it* goes quiet
    (and its config window elapses), while its wave-mates keep
    draining.  Same per-region dark windows, strictly shorter total
    migration window; the applied tree is identical to the serial
    :meth:`~repro.deploy.migration.MigrationPlan.apply`, which the
    equivalence battery asserts.
``migration="restart"``
    The legacy stop-the-world mechanism, kept for comparison: stop the
    clients, advance the clock by the full migration price (in-flight
    requests drain meanwhile), rebuild the middleware on the *same*
    simulator, re-attach the monitor.

The run returns a :class:`ControlTimeline`: one frozen
:class:`EpochRecord` per epoch plus totals; every epoch that migrated
itemizes its downtime per step in
:attr:`EpochRecord.migration_steps`.  **Determinism contract** (the
live-migration extension of the :mod:`repro.workloads.loadgen` one):
everything is a pure function of (pool, trace, policy, params, seed,
migration mode) — wall-clock never leaks into the timeline, drains are
bounded by simulation-state predicates only, and structural steps run in
the plan's fixed order, so two runs with the same seed compare equal in
either mode, which the test suite asserts.  Controller bookkeeping cost
is exposed separately as :attr:`ControlLoop.overhead_seconds` for the
benchmark suite.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import NamedTuple

from repro.api import PlanRequest
from repro.control.monitor import SLOMonitor, WindowObservation, merge_fluid
from repro.control.policy import (
    MIGRATION_MODES,
    ControlContext,
    ControlDecision,
    ControlPolicy,
    MigrationCostModel,
    make_policy,
)
from repro.control.protocol import (
    EXECUTOR_KINDS,
    commands_to_plan,
    make_executor,
    parse_command,
    parse_report,
    plan_commands,
)
from repro.control.registry import DeploymentRegistry, tree_digest
from repro.control.traces import HybridTrace, Trace
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import HierarchyEvaluator
from repro.core.params import DEFAULT_PARAMS, ModelParams
from repro.core.registry import CAP_DEMAND, REGISTRY, PlannerRegistry
from repro.deploy.migration import (
    MigrationPlan,
    MigrationRegion,
    apply_steps,
    hierarchies_equal,
    plan_migration,
)
from repro.errors import ControlError, HierarchyError, ProtocolError
from repro.extensions.redeploy import improve_deployment
from repro.faults import FaultInjector, FaultRecord, FaultSchedule
from repro.faults import from_spec as fault_spec
from repro.middleware.client import ClosedLoopClient
from repro.middleware.detection import DetectionParams, parse_detection
from repro.middleware.system import MiddlewareSystem
from repro.obs import NULL_OBS, MetricsRegistry, MetricsSnapshot, Obs, Stopwatch
from repro.platforms.pool import NodePool
from repro.sim.engine import Simulator
from repro.sim.fluid import FluidPopulation
from repro.sim.stats import IntervalCounter

__all__ = [
    "MigrationStepRecord",
    "DetectionRecord",
    "EpochRecord",
    "ControlTimeline",
    "ControlLoop",
]

_REL_TOL = 1e-9

#: Modes that realize redeploys as in-place subtree migrations.
_LIVE_MODES = ("live", "concurrent")

#: Scale-up gate: the modeled throughput gain must repay the migration
#: downtime within this many epochs.  Live migrations are priced at
#: their service-weighted outage, so the gate lets policies act far
#: more aggressively in live mode.
_AMORTIZE_EPOCHS = 4


def _hierarchy_without(hierarchy: Hierarchy, names: set[str]) -> Hierarchy:
    """Copy of ``hierarchy`` with every node in ``names`` pruned out.

    ``names`` must be subtree-closed (no orphaned descendants); removal
    runs deepest-first so every doomed node is a leaf when its turn
    comes.
    """
    pruned = hierarchy.copy()
    by_name = {str(node): node for node in pruned}
    doomed = [by_name[name] for name in sorted(names) if name in by_name]
    for node in sorted(doomed, key=pruned.depth, reverse=True):
        pruned.remove_leaf(node)
    pruned.validate(strict=False)
    return pruned


@dataclass(frozen=True)
class MigrationStepRecord:
    """One itemized migration step of an epoch's redeploy.

    ``seconds`` is the simulated wall duration of the step's window;
    ``downtime`` weights it by the fraction of deployed nodes that were
    actually dark — a full restart drains everything (downtime equals
    the window), a live drain charges only its subtree's share, and a
    drain-free growth step charges nothing.  ``started_at`` anchors the
    window in simulation time, so concurrent migrations expose their
    *overlapping* step intervals: two records of one epoch may share a
    ``started_at`` while their windows run side by side.
    """

    op: str  # "restart" | "drain" | "grow"
    target: str
    seconds: float
    drained_nodes: int
    deployed_nodes: int
    started_at: float = 0.0

    @property
    def downtime(self) -> float:
        """Service-weighted outage seconds of this step."""
        if self.deployed_nodes <= 0:
            return self.seconds
        fraction = min(1.0, self.drained_nodes / self.deployed_nodes)
        return self.seconds * fraction


@dataclass(frozen=True)
class DetectionRecord:
    """One failure the control plane *inferred* (never announced).

    Under timeout-modelled detection the loop learns about a crash only
    through the suspicion lifecycle: watchdog timeouts accumulate into a
    suspicion, the grace window elapses, and the monitor confirms the
    node dead — at which point the loop excises the subtree and records
    the whole story here.  ``injected_at`` is back-filled from the fault
    schedule purely for *accounting* (the latency a real operator would
    measure); the decision path never sees it.
    """

    #: Confirmed node (subtree root as the controller addressed it).
    node: str
    #: Every node excised with it (the confirmed node's subtree).
    nodes: tuple = ()
    #: When the fault schedule actually injected the failure — ``None``
    #: for a false positive (the node was alive; the controller gave up
    #: on it anyway).
    injected_at: float | None = None
    #: When the suspicion threshold was crossed (watchdog evidence).
    suspected_at: float = 0.0
    #: When the grace window closed and the monitor confirmed the death.
    confirmed_at: float = 0.0
    #: In-flight conversations dead-lettered (and resubmitted) by the
    #: confirmation-time excision.
    dead_letters: int = 0

    @property
    def latency(self) -> float | None:
        """Injection-to-confirmation delay; ``None`` for false positives."""
        if self.injected_at is None:
            return None
        return self.confirmed_at - self.injected_at


@dataclass(frozen=True)
class EpochRecord:
    """One epoch of the control timeline.

    ``action``/``reason`` echo the policy decision; ``applied`` says
    whether the loop actually redeployed (a decision can be a no-op —
    no improving move found, replan produced the current deployment —
    or vetoed by the migration-cost gate, in which case ``reason`` says
    so).  ``migration_seconds`` is the *effective* downtime paid this
    epoch — service-weighted outage, itemized per step in
    ``migration_steps``: a stop-the-world redeploy is one ``restart``
    item covering every node, a live redeploy one ``drain``/``grow``
    item per migrated subtree.
    """

    #: All fields describe the epoch as it ran — the deployment that
    #: served it, its capacity, its node counts.  A redeploy applied at
    #: the epoch's end shows up in ``applied``/``migration_seconds``
    #: here and in the *next* record's deployment fields.
    index: int
    start: float
    end: float
    offered: int
    served: int
    served_rate: float
    capacity: float
    deployed_nodes: int
    spares: int
    busiest_node: str
    busiest_utilization: float
    queue_depth: int
    action: str
    reason: str
    applied: bool
    migration_seconds: float
    migration_steps: tuple[MigrationStepRecord, ...] = ()
    #: Wall (simulated) duration of the epoch's whole migration — the
    #: span from the first step going dark to the last resuming.  Equals
    #: the sum of step windows for serial execution; strictly less when
    #: a concurrent schedule overlaps them.
    migration_window: float = 0.0
    #: Fault events injected during this epoch's simulate stage, as they
    #: actually landed (resolved targets, affected nodes, dead-letters).
    faults: tuple[FaultRecord, ...] = ()
    #: Failures *confirmed* (and excised) this epoch under
    #: timeout-modelled detection, with their measured latency.
    detections: tuple[DetectionRecord, ...] = ()
    #: Nodes past the suspicion threshold but still inside their grace
    #: window at this epoch's boundary (detection only).
    suspects: tuple[str, ...] = ()
    #: Previously suspect nodes that answered within the grace window
    #: and were re-integrated this epoch (detection only).
    reintegrated: tuple[str, ...] = ()
    #: Servers drained-and-replaced by an applied ``evict`` this epoch.
    evictions: tuple[str, ...] = ()
    #: Frozen :class:`~repro.obs.MetricsSnapshot` at this epoch's
    #: boundary — cumulative conversation/engine/migration counters plus
    #: this epoch's gauges.  Always populated by :meth:`ControlLoop.run`
    #: and fed exclusively from deterministic simulation state, so it is
    #: bit-identical whether tracing is enabled or not.
    metrics: MetricsSnapshot | None = None
    #: Hybrid runs only: mean fluid client mass carried analytically this
    #: epoch (``offered`` already includes it) and how many clients were
    #: actually simulated as the discrete cohort.  Both 0 on ordinary
    #: all-discrete runs.
    fluid_clients: float = 0.0
    cohort_clients: int = 0


@dataclass(frozen=True)
class ControlTimeline:
    """Structured outcome of one controller run."""

    policy: str
    trace_name: str
    seed: int
    epoch_duration: float
    records: tuple[EpochRecord, ...] = field(repr=False)
    total_served: int = 0
    redeploys: int = 0
    final_shape: tuple[int, int, int, int] = (0, 0, 0, 0)
    final_capacity: float = 0.0
    migration: str = "restart"
    #: Fault events that fired during the run (applied or skipped).
    fault_count: int = 0
    #: In-flight service conversations dead-lettered by crashes; every
    #: one was resubmitted elsewhere, so clients still completed.
    dead_letters: int = 0
    #: Conversations dropped without resubmission — the self-healing
    #: invariant keeps this at zero, and tests assert it.
    lost_conversations: int = 0
    #: Failures confirmed through the suspicion lifecycle (detection
    #: runs only; oracle runs leave it 0).
    detection_count: int = 0
    #: Servers drained-and-replaced by ``evict`` decisions.
    eviction_count: int = 0

    @property
    def detection_records(self) -> tuple[DetectionRecord, ...]:
        """Every confirmation across the run, in epoch order."""
        return tuple(
            detection
            for record in self.records
            for detection in record.detections
        )

    @property
    def mean_detection_latency(self) -> float:
        """Mean injection-to-confirmation delay (0 when nothing matched)."""
        latencies = [
            detection.latency
            for detection in self.detection_records
            if detection.latency is not None
        ]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)

    @property
    def served_in_epochs(self) -> int:
        """Completions inside measured windows (excludes drain time)."""
        return sum(record.served for record in self.records)

    @property
    def mean_served_rate(self) -> float:
        """Served requests/s averaged over the measured windows."""
        window = sum(r.end - r.start for r in self.records)
        return self.served_in_epochs / window if window > 0.0 else 0.0

    @property
    def migration_downtime(self) -> float:
        """Total effective downtime (service-weighted) across the run."""
        return sum(r.migration_seconds for r in self.records)

    @property
    def migration_step_count(self) -> int:
        """Itemized migration steps across every applied redeploy."""
        return sum(len(r.migration_steps) for r in self.records)

    @property
    def migration_window(self) -> float:
        """Total wall (simulated) time spent inside migrations.

        The number a concurrent schedule shrinks: overlapping drains
        pay their windows once, not back to back.
        """
        return sum(r.migration_window for r in self.records)

    def describe(self) -> str:
        faults = (
            f", {self.fault_count} faults injected "
            f"({self.dead_letters} dead-lettered, "
            f"{self.lost_conversations} lost)"
            if self.fault_count
            else ""
        )
        if self.detection_count:
            faults += (
                f", {self.detection_count} confirmed by timeout "
                f"(mean detection latency "
                f"{self.mean_detection_latency:.2f}s)"
            )
        if self.eviction_count:
            faults += f", {self.eviction_count} evicted"
        return (
            f"ControlTimeline[{self.policy}] on {self.trace_name} "
            f"({self.migration} migration): "
            f"{len(self.records)} epochs x {self.epoch_duration:g}s, "
            f"served {self.total_served} "
            f"({self.mean_served_rate:.1f} req/s mean), "
            f"{self.redeploys} redeploys "
            f"({self.migration_downtime:.2f}s downtime over "
            f"{self.migration_step_count} steps in a "
            f"{self.migration_window:.2f}s window){faults}, final shape "
            f"nodes={self.final_shape[0]} agents={self.final_shape[1]} "
            f"servers={self.final_shape[2]} height={self.final_shape[3]}"
        )


class _Realized(NamedTuple):
    """A decision turned into what the act stage executes.

    ``candidate`` is the tree to migrate onto — ``None`` when the
    decision is a no-op or the migration-cost gate vetoes it, and
    ``reason`` then says why.  ``cost`` is the predicted migration
    downtime, ``rho`` the candidate's modeled throughput (already
    computed by the improve/replan machinery, so the loop never
    re-evaluates the model) and ``plan`` the migration recipe.
    """

    candidate: Hierarchy | None
    reason: str
    cost: float
    rho: float
    plan: MigrationPlan | None

    @classmethod
    def skip(cls, reason: str, note: str = "") -> _Realized:
        """Nothing to migrate; ``note`` is appended to ``reason``."""
        text = f"{reason} [{note}]" if note else reason
        return cls(None, text, 0.0, 0.0, None)


@dataclass(eq=False)
class _Run:
    """Everything one :meth:`ControlLoop.run` builds up and mutates.

    Created fresh at the start of every run (and once at construction,
    so a loop that never ran still answers its helpers).  The deployment
    fields are filled in by :meth:`ControlLoop._deploy_initial`.
    """

    # Loop-owned memoizing evaluator for capacity evaluations; fresh
    # per run so serial and process-pool sweeps see identical cache
    # hit-rate metrics.
    evaluator: HierarchyEvaluator
    injector: FaultInjector | None = None
    # Hybrid traces: only the sampled cohort runs as discrete
    # clients; the remainder is integrated analytically between event
    # boundaries by a fluid population calibrated from the cohort's own
    # measured per-client rate.
    fluid: FluidPopulation | None = None
    sim: Simulator = field(default_factory=Simulator)
    # Generation 0 is the initial deployment and every applied
    # transition (redeploy, crash adoption, confirmed-detection
    # excision) commits the next one.
    registry: DeploymentRegistry = field(default_factory=DeploymentRegistry)
    # Names of crashed nodes; they leave the usable pool for good.
    failed_names: set[str] = field(default_factory=set)
    # Names of evicted nodes; the controller gave up on them, so they
    # leave the usable pool exactly like crashed ones.
    evicted_names: set[str] = field(default_factory=set)
    # node -> injection time of a not-yet-confirmed silent fault
    # (detection accounting only; never consulted by decisions).
    pending_injections: dict[str, float] = field(default_factory=dict)
    # Memoized demand-free (maximum-capacity) replans, keyed by the
    # excluded-name set (the repair reserve); dropped whenever attrition
    # shrinks the live pool.
    capacity_plans: dict[frozenset, object] = field(default_factory=dict)
    completions: IntervalCounter = field(default_factory=IntervalCounter)
    monitor: SLOMonitor | None = None
    system: MiddlewareSystem | None = None
    generation: int = 0
    # (dead-lettered, resubmitted, lost) conversations of the platform
    # generations a stop-the-world restart replaced: the counters live
    # on the system object, which restarts discard.
    retired: tuple[int, int, int] = (0, 0, 0)
    # The deployment the controller plans from and its model capacity.
    hierarchy: Hierarchy | None = None
    capacity: float = 0.0
    clients: list[ClosedLoopClient] = field(default_factory=list)
    # Stopped clients whose final request is still in flight; their
    # completions land in windows whose `offered` no longer counts them,
    # so calibration is suppressed until the drain finishes.
    draining: list[ClosedLoopClient] = field(default_factory=list)
    client_serial: int = 0
    observations: list[WindowObservation] = field(default_factory=list)
    records: list[EpochRecord] = field(default_factory=list)
    redeploys: int = 0
    # Policies gate their cooldown on `redeploys > 0`, so the value
    # before the first redeploy is immaterial.
    epochs_since_redeploy: int = 0
    demand_unit: float = 0.0

    def conversation_totals(self) -> tuple[int, int, int]:
        """``(dead-lettered, resubmitted, lost)`` over every generation."""
        dead, resubmitted, lost = self.retired
        return (
            dead + self.system.dead_letters,
            resubmitted + self.system.resubmissions,
            lost + self.system.lost_conversations,
        )


@dataclass(eq=False)
class _Epoch:
    """One epoch's working state, handed from stage to stage."""

    index: int
    start: float
    end: float
    offered: int
    cohort_target: int
    # Stopped clients were still draining when the window opened.
    contaminated: bool = False
    faults: list[FaultRecord] = field(default_factory=list)
    observation: WindowObservation | None = None
    fluid_window: object = None
    detections: list[DetectionRecord] = field(default_factory=list)
    decision: ControlDecision | None = None
    realized: _Realized | None = None
    # The deployment that served the epoch, before any candidate.
    capacity: float = 0.0
    deployed_nodes: int = 0
    spares: int = 0
    applied: bool = False
    steps: tuple[MigrationStepRecord, ...] = ()
    migration_window: float = 0.0
    act_start: float = 0.0
    dispatched: tuple = ()

    @property
    def evictions(self) -> tuple[str, ...]:
        """Servers an applied ``evict`` drained this epoch."""
        if self.applied and self.decision.action == "evict":
            return self.decision.targets
        return ()


class ControlLoop:
    """Online autoscaling controller over the simulated platform.

    Parameters
    ----------
    pool:
        Every node the controller may ever use.  The initial deployment
        takes the first ``round(initial_fraction * n)`` (at least
        ``min_nodes``); the rest start as spares.
    app_work:
        Application work ``Wapp`` per request (MFlop).
    trace:
        Target client population over time.  A
        :class:`~repro.control.traces.HybridTrace` switches the loop
        into hybrid mode: only the sampled cohort runs as discrete
        closed-loop clients, while the fluid remainder is integrated
        analytically each epoch (calibrated from the cohort's measured
        per-client rate) and folded into the observations policies see
        — which is what makes 10⁵–10⁶-client traces run at small-pool
        wall times.
    policy:
        A registered policy name (optionally with ``policy_options``) or
        a :class:`~repro.control.policy.ControlPolicy` instance.
    epochs, epoch_duration:
        Rolling-horizon geometry: number of control epochs and seconds
        of simulation per epoch.
    base_method:
        Planner used for the initial deployment and for replans.
    migration:
        ``"live"`` (default) applies redeploys as subtree-granular
        migrations inside the running simulation, one region per wave —
        only drained subtrees stop serving; ``"concurrent"`` runs the
        same executor over dependency waves, draining independent
        regions in parallel and shrinking the migration window;
        ``"restart"`` keeps the legacy stop-the-world rebuild for
        comparison.
    think_time:
        Client think time between requests.  0 reproduces the paper's
        load scripts (each client saturates); > 0 makes each trace level
        an open-ish load so utilization genuinely falls when the trace
        does — which is what gives scale-down policies something to see.
    seed:
        Master seed.  Every stochastic component (middleware RNGs per
        generation) derives from it; same seed ⇒ identical timeline.
    faults:
        Optional :class:`~repro.faults.FaultSchedule` (or a
        ``from_spec`` string) injected into the simulate stage: each
        event is applied at its scheduled time, the monitor reports the
        observed damage, and repair-enabled policies heal through the
        migration machinery.  Fault and repair records land in the
        timeline, so runs stay bit-reproducible per seed.
    detection:
        Optional :class:`~repro.middleware.detection.DetectionParams`
        (or a ``parse_detection`` spec string such as
        ``"timeout=0.5,retries=1,threshold=3"``).  When set, failures
        are *inferred*, never announced: crashes land silently, agents
        watch their children with timeout/retry ladders, and the loop
        only acts when the monitor's suspicion lifecycle confirms a
        death — at which point the subtree is excised and a
        :class:`DetectionRecord` (with measured detection latency)
        lands in the timeline.  ``None`` keeps the oracle health model
        bit-exactly.  A spec string's ``reserve=`` key (e.g.
        ``"timeout=0.5,reserve=0.2"``) holds that fraction of the pool
        (rounded to a node count) back from scale-ups as a repair
        reserve: ``improve`` decisions only see the scalable remainder,
        while ``repair`` and ``evict`` draw on the whole spare set, so
        a damaged platform always has material to heal with.
    executor:
        Where the act stage's per-region daemons run — one of
        :data:`~repro.control.protocol.EXECUTOR_KINDS`: ``"local"``
        (the default, in the master's process) or ``"pool"`` (a
        process pool).  Either way the master serializes each live plan
        into versioned :class:`~repro.control.protocol.MigrationCommand`
        batches, the stateless daemons rebuild the deployment from a
        :class:`~repro.control.registry.DeploymentRegistry` snapshot and
        apply them, and the master verifies the acked digests before the
        simulated apply — the timeline is bit-identical across both
        kinds (asserted by ``tests/test_protocol.py``).
    obs:
        Observability handle.  ``None``/``False`` (default) runs with
        the shared null handle — disabled instrumentation costs one
        attribute check per site; ``True`` creates a fresh
        :class:`~repro.obs.Obs` (read it back via :attr:`obs`); an
        :class:`~repro.obs.Obs` instance is used as given.  Tracing
        never changes the timeline: every :class:`EpochRecord` metric
        is fed from deterministic simulation state whether or not a
        tracer records, so same-seed runs are bit-identical either way.
    """

    def __init__(
        self,
        pool: NodePool,
        app_work: float,
        trace: Trace,
        policy: str | ControlPolicy = "reactive",
        params: ModelParams | None = None,
        registry: PlannerRegistry | None = None,
        epochs: int = 30,
        epoch_duration: float = 5.0,
        base_method: str = "heuristic",
        initial_fraction: float = 0.5,
        min_nodes: int = 2,
        policy_options: dict[str, object] | None = None,
        migration: str = "live",
        think_time: float = 0.0,
        seed: int = 0,
        faults: FaultSchedule | str | None = None,
        detection: DetectionParams | str | None = None,
        obs: Obs | bool | None = None,
        executor: str = "local",
    ):
        if len(pool) < 2:
            raise ControlError(
                f"control loop needs a pool of >= 2 nodes, got {len(pool)}"
            )
        if not isinstance(trace, Trace):
            raise ControlError(
                f"trace must be a control Trace, got {type(trace).__name__}"
            )
        if epochs < 1:
            raise ControlError(f"epochs must be >= 1, got {epochs}")
        # Chained bounds reject NaN too (every comparison with NaN is
        # false); an infinite epoch would never end.
        if not 0.0 < epoch_duration < math.inf:
            raise ControlError(
                f"epoch_duration must be finite and > 0, got {epoch_duration}"
            )
        if not math.isfinite(app_work):
            raise ControlError(f"app_work must be finite, got {app_work}")
        if not (0.0 < initial_fraction <= 1.0):
            raise ControlError(
                f"initial_fraction must be in (0, 1], got {initial_fraction}"
            )
        if min_nodes < 2:
            raise ControlError(f"min_nodes must be >= 2, got {min_nodes}")
        if migration not in MIGRATION_MODES:
            raise ControlError(
                f"unknown migration mode {migration!r}; "
                f"expected one of {MIGRATION_MODES}"
            )
        if not 0.0 <= think_time < math.inf:
            raise ControlError(
                f"think_time must be finite and >= 0, got {think_time}"
            )
        if isinstance(faults, str):
            faults = fault_spec(faults)
        if faults is not None and not isinstance(faults, FaultSchedule):
            raise ControlError(
                "faults must be a FaultSchedule or a fault-spec string, "
                f"got {type(faults).__name__}"
            )
        reserve = None
        if isinstance(detection, str):
            detection, reserve = parse_detection(detection)
        if detection is not None and not isinstance(
            detection, DetectionParams
        ):
            raise ControlError(
                "detection must be DetectionParams or a spec string, "
                f"got {type(detection).__name__}"
            )
        if obs is None or obs is False:
            obs = NULL_OBS
        elif obs is True:
            obs = Obs()
        elif not isinstance(obs, Obs):
            raise ControlError(
                f"obs must be an Obs handle or a bool, got "
                f"{type(obs).__name__}"
            )
        if executor not in EXECUTOR_KINDS:
            raise ControlError(
                f"unknown executor kind {executor!r}; "
                f"expected one of {EXECUTOR_KINDS}"
            )
        self.pool = pool
        self.app_work = float(app_work)
        self.trace = trace
        self.policy = make_policy(policy, policy_options)
        self.params = params if params is not None else DEFAULT_PARAMS
        self.registry = registry if registry is not None else REGISTRY
        self.epochs = epochs
        self.epoch_duration = float(epoch_duration)
        self.base_method = base_method
        self.initial_fraction = initial_fraction
        self.min_nodes = min_nodes
        self.cost_model = MigrationCostModel()
        self.migration = migration
        self.think_time = float(think_time)
        self.seed = seed
        self.faults = faults
        self.detection = detection
        self.executor = executor
        # The live run's executor instance, built and closed by
        # :meth:`run`.
        self._executor = None
        # Reserve size in nodes, fixed at construction: a fraction of
        # the *full* pool, so attrition cannot silently shrink it.
        self._reserve_target = round((reserve or 0.0) * len(pool))
        #: The observability handle (the shared null handle when none
        #: was configured); callers read traces back from
        #: ``loop.obs.tracer`` after :meth:`run`.
        self.obs = obs
        # The metrics registry is *always* live — fed exclusively from
        # deterministic simulation state, so EpochRecord snapshots are
        # identical whether or not a tracer records.  A configured Obs
        # brings its own registry; the null handle gets a private one.
        self._metrics = (
            obs.metrics if obs.metrics is not None else MetricsRegistry()
        )
        # Centralized wall-clock accounting for controller bookkeeping
        # (planning, observing, deciding, pricing): one stopwatch
        # context manager instead of hand-paired perf_counter deltas,
        # so new control stages cannot double-count.  Telemetry only.
        self._overhead = Stopwatch()
        self._run = self._new_run()
        #: The last run's final demand-unit estimate (req/s one
        #: unsaturated client generates); telemetry only.
        self.demand_unit_estimate = 0.0
        #: The deployment tree the last :meth:`run` ended on; telemetry
        #: for equivalence tests (the timeline itself only carries the
        #: shape signature).
        self.final_hierarchy: Hierarchy | None = None

    # ------------------------------------------------------------------ #

    @property
    def deployment_registry(self) -> DeploymentRegistry:
        """Versioned deployment-state registry of the last :meth:`run` —
        one generation per applied deployment transition, the durable
        truth executors (and restarted daemons) rebuild from."""
        return self._run.registry

    @property
    def overhead_seconds(self) -> float:
        """Wall-clock seconds the controller itself spent (planning,
        observing, deciding, pricing) in the last :meth:`run` —
        telemetry only, never part of the timeline."""
        return self._overhead.total

    def run(self) -> ControlTimeline:
        """Run every epoch's stages (see the module docstring)."""
        executor = make_executor(self.executor)
        # Spin the executor up (process-pool workers included) before
        # the run, *outside* the overhead stopwatch: worker spawn is
        # one-time infrastructure, not per-epoch controller bookkeeping,
        # and charging it to the first dispatch would make the
        # adaptation-overhead budget lie about steady state.
        executor.warm()
        self._executor = executor
        try:
            return self._run_loop()
        finally:
            executor.close()
            self._executor = None

    def _new_run(self) -> _Run:
        """The one place per-run state is set up."""
        return _Run(
            evaluator=HierarchyEvaluator(self.params),
            injector=(
                FaultInjector(self.faults) if self.faults is not None else None
            ),
            fluid=(
                FluidPopulation()
                if isinstance(self.trace, HybridTrace)
                else None
            ),
            epochs_since_redeploy=self.epochs,
        )

    def _run_loop(self) -> ControlTimeline:
        self._overhead.reset()
        self._metrics.reset()
        self.obs.tracer.clear()
        run = self._run = self._new_run()
        with self._overhead:
            self._deploy_initial(run)
        sim, completions = run.sim, run.completions

        def record_completion(request) -> None:
            completions.record(sim.now)

        for index in range(self.epochs):
            epoch = self._simulate(run, index, record_completion)
            # observe → reconcile → decide: controller bookkeeping,
            # accounted by the overhead stopwatch.  The act stage times
            # its own bookkeeping: the simulated migration is the
            # platform's time, not the controller's.
            with self._overhead:
                self._observe(run, epoch)
                self._reconcile(run, epoch)
                self._decide(run, epoch)
            self._act(run, epoch)
            if self.obs.enabled:
                self._trace_epoch(run, epoch)
            self._record(run, epoch)

        self.demand_unit_estimate = run.demand_unit
        self.final_hierarchy = run.hierarchy
        records = run.records
        dead_letters, _, lost = run.conversation_totals()
        return ControlTimeline(
            policy=self.policy.name,
            trace_name=self.trace.name,
            seed=self.seed,
            epoch_duration=self.epoch_duration,
            records=tuple(records),
            total_served=completions.count,
            redeploys=run.redeploys,
            final_shape=run.hierarchy.shape_signature(),
            final_capacity=run.capacity,
            migration=self.migration,
            fault_count=sum(len(record.faults) for record in records),
            dead_letters=dead_letters,
            lost_conversations=lost,
            detection_count=sum(
                len(record.detections) for record in records
            ),
            eviction_count=sum(
                len(record.evictions) for record in records
            ),
        )

    # -- epoch stages --------------------------------------------------- #

    def _deploy_initial(self, run: _Run) -> None:
        """Plan over the first nodes of the pool and start generation 0."""
        initial = min(
            len(self.pool),
            max(self.min_nodes, round(self.initial_fraction * len(self.pool))),
        )
        deployment = self._traced_plan(
            PlanRequest(
                pool=self.pool.take(initial),
                app_work=self.app_work,
                params=self.params,
                method=self.base_method,
                seed=self.seed,
            ),
            purpose="initial",
        )
        run.monitor = SLOMonitor(run.completions)
        run.hierarchy = deployment.hierarchy
        run.registry.commit(run.hierarchy, "initial")
        self._start_generation(run)
        # Model capacity of the live deployment; only changes on redeploy.
        run.capacity = run.evaluator.evaluate(
            run.hierarchy, self.app_work
        ).throughput

    def _simulate(self, run: _Run, index: int, on_complete) -> _Epoch:
        """Match the client cohort to the trace, then advance one epoch."""
        sim = run.sim
        start = sim.now
        end = start + self.epoch_duration
        offered = self.trace.level(start)
        # The engine only ever runs the cohort; the fluid remainder
        # (offered - cohort) is integrated after the window.
        cohort = offered
        if run.fluid is not None:
            cohort = self.trace.cohort_level(start)
        epoch = _Epoch(index, start, end, offered, cohort)
        tracer = self.obs.tracer
        if self.obs.enabled:
            span = tracer.begin(
                start, "epoch", "simulate", index=index, offered=offered
            )
        clients = run.clients
        while len(clients) < epoch.cohort_target:
            client = ClosedLoopClient(
                run.system,
                f"c{run.generation}-{run.client_serial:05d}",
                think_time=self.think_time,
                on_complete=on_complete,
            )
            run.client_serial += 1
            clients.append(client)
            client.start()
        while len(clients) > epoch.cohort_target:
            stopped = clients.pop()
            stopped.stop()
            run.draining.append(stopped)
        # A drain finishing mid-window still contaminates it, so the
        # calibration guard sees the window-start state; the list is
        # pruned afterwards for the next epoch.
        epoch.contaminated = bool(run.draining)
        injector = run.injector
        if injector is not None:
            for event in injector.due(end):
                if event.at > sim.now:
                    sim.run_until(event.at)
                epoch.faults.append(injector.apply(event, run.system))
        sim.run_until(end)
        run.draining = [client for client in run.draining if client.active]
        if self.obs.enabled:
            tracer.end(end, span)
        return epoch

    def _observe(self, run: _Run, epoch: _Epoch) -> None:
        """Condense the window, calibrate demand, fold in the fluid mass."""
        observation = run.monitor.observe(
            epoch.index, epoch.start, epoch.end, epoch.cohort_target
        )
        if observation.offered > 0 and not epoch.contaminated:
            # served/offered never exceeds the rate one unsaturated
            # client generates (latency only grows with contention), so
            # the running max is a safe demand-unit estimate — but only
            # for windows free of drain contamination: clients stopped
            # by a population shrink complete their final requests
            # inside windows whose `offered` no longer counts them,
            # inflating the ratio for as long as the drain lasts.
            # Calibration waits until every stopped client has gone
            # quiet; the estimate stays a lower bound.  (Redeploys don't
            # contaminate: a stop-the-world restart aborts its fleet —
            # disowned completions are never counted — and a live
            # migration stops nobody.)
            run.demand_unit = max(
                run.demand_unit, observation.per_client_rate
            )
        if run.fluid is not None:
            # Fluid advance: the mass not simulated as the cohort is
            # integrated analytically over the window just run, at the
            # per-client rate the cohort measured, against the model
            # capacity the cohort left unused.  The merged observation
            # (total offered, combined served) is what calibration above
            # never sees but policies do.
            residual = max(0.0, run.capacity - observation.served_rate)
            fluid_window = epoch.fluid_window = run.fluid.advance(
                epoch.start, epoch.end, self.trace.fluid_level,
                run.demand_unit, residual,
            )
            allocation = run.system.assign_fluid_rates(
                fluid_window.served_rate
            )
            observation = merge_fluid(
                observation, fluid_window, epoch.offered, allocation,
                residual,
            )
        run.observations.append(observation)
        epoch.observation = observation

    def _reconcile(self, run: _Run, epoch: _Epoch) -> None:
        """Observed damage is the truth the controller plans from."""
        if self.detection is None:
            # Oracle health: crash surgery already pruned the dead
            # subtree out of the running system, so adopt the survivors'
            # tree.
            crashed = sorted(
                name
                for record in epoch.faults
                if record.applied and record.kind == "crash"
                for name in record.nodes
            )
            if crashed:
                self._adopt_survivors(run, crashed, "crash", epoch.index)
            elif any(
                record.applied and record.kind != "degrade"
                for record in epoch.faults
            ):
                # Partitions dark a subtree and heals light it back up:
                # both change what the model says the platform can
                # serve.  (Degrades don't touch the structure; the
                # straggler still reports nominal.)
                run.capacity = self._effective_capacity(run)
            return
        # Inferred health: faults landed silently, so the tree the
        # controller plans from only changes when the monitor *confirms*
        # a death.  Injection times are remembered purely for latency
        # accounting.
        for record in epoch.faults:
            if not record.applied:
                continue
            if record.kind in ("crash", "partition"):
                for name in record.nodes:
                    run.pending_injections.setdefault(name, record.at)
            elif record.kind == "heal":
                for name in record.nodes:
                    run.pending_injections.pop(name, None)
        if epoch.observation.failed_nodes:
            epoch.detections = self._excise_confirmed(
                run, epoch.observation.failed_nodes, epoch.end
            )
        if epoch.detections:
            self._adopt_survivors(
                run,
                [name for found in epoch.detections for name in found.nodes],
                "detection",
                epoch.index,
            )

    def _adopt_survivors(
        self, run: _Run, lost, cause: str, index: int
    ) -> None:
        """Plan from the tree failure surgery left in the running system.

        The ``lost`` nodes leave the usable pool for good, so capacity
        memos keyed on the old pool go stale; the survivors' tree
        becomes the next registry generation.
        """
        run.failed_names.update(lost)
        for name in lost:
            run.pending_injections.pop(name, None)
        run.hierarchy = run.system.hierarchy
        run.capacity_plans.clear()
        run.registry.commit(run.hierarchy, cause, epoch=index)
        run.capacity = self._effective_capacity(run)

    def _decide(self, run: _Run, epoch: _Epoch) -> None:
        """Ask the policy, realize its decision, adopt the candidate."""
        live = self._live_pool()
        deployed = {str(node) for node in run.hierarchy}
        spares = [node for node in live if node.name not in deployed]
        scalable, reserved = self._split_spares(spares)
        context = ControlContext(
            observations=tuple(run.observations),
            capacity=run.capacity,
            deployed_nodes=len(run.hierarchy),
            pool_size=len(live),
            spares=len(scalable),
            min_nodes=self.min_nodes,
            epoch_duration=self.epoch_duration,
            next_start=run.sim.now,
            trace=self.trace,
            demand_unit=run.demand_unit,
            redeploys=run.redeploys,
            epochs_since_redeploy=run.epochs_since_redeploy,
            repair_spares=len(spares) if reserved else 0,
            hierarchy=run.hierarchy,
        )
        decision = epoch.decision = self.policy.decide(context)
        realized = epoch.realized = self._realize(
            decision, run.hierarchy, scalable, run.capacity,
            epoch.observation, reserved=reserved,
        )
        epoch.capacity = run.capacity
        epoch.deployed_nodes = len(run.hierarchy)
        epoch.spares = len(spares)
        if realized.candidate is None:
            return
        if decision.action == "evict":
            # The drained server leaves the usable pool for good — the
            # controller decided it cannot be trusted — and capacity
            # memos keyed on the old pool go stale with it.
            run.evicted_names.update(decision.targets)
            run.capacity_plans.clear()
        run.hierarchy = realized.candidate
        run.capacity = realized.rho

    def _act(self, run: _Run, epoch: _Epoch) -> None:
        """Migrate the running platform onto the adopted candidate."""
        sim = run.sim
        epoch.act_start = sim.now
        candidate, _, cost, _, plan = epoch.realized
        if candidate is None:
            run.epochs_since_redeploy += 1
            return
        # Only live modes build a plan (see _price).
        if plan is not None and plan.is_live:
            # Live: migrate subtree by subtree inside the running
            # simulation, wave by wave (one region per wave in live
            # mode, dependency waves in concurrent mode).  Clients keep
            # looping and the undrained part of the platform keeps
            # serving.
            # The plan first runs the master/daemon protocol:
            # serialized commands out, acked digests back, and the
            # wire-round-tripped plan is what the simulated apply below
            # executes — so serialization is load-bearing, not
            # decorative.  (Restart plans bypass the protocol:
            # stop-the-world is a rebuild, not a command batch.)
            if plan.regions:
                with self._overhead:
                    plan, epoch.dispatched = self._dispatch_commands(
                        plan, candidate, epoch.index
                    )
            migrate_start = sim.now
            epoch.steps = self._apply_waves(sim, run.system, plan, candidate)
            epoch.migration_window = sim.now - migrate_start
            with self._overhead:
                run.monitor.attach(run.system)  # fresh busy baselines
        else:
            self._restart(run, epoch, cost)
        with self._overhead:
            # The applied deployment becomes the next registry
            # generation — committed *after* the apply, so the executors
            # above replayed from the old one.
            run.registry.commit(
                run.hierarchy, epoch.decision.action, epoch=epoch.index,
                command_ids=tuple(
                    command.command_id for command in epoch.dispatched
                ),
            )
        run.redeploys += 1
        run.epochs_since_redeploy = 0
        epoch.applied = True

    def _restart(self, run: _Run, epoch: _Epoch, cost: float) -> None:
        """Stop-the-world: rebuild the platform after ``cost`` seconds dark.

        The old platform's daemons are killed, so every in-flight request
        dies with them (aborted clients disown their completions), the
        platform serves nothing for the whole migration window, and a
        fresh client fleet reconnects to the rebuilt platform at the next
        epoch.  This is the cost live migration exists to avoid.
        """
        sim = run.sim
        for client in run.clients:
            client.abort()
        run.clients = []
        started = sim.now
        sim.run_until(started + cost)
        epoch.migration_window = cost
        epoch.steps = (
            MigrationStepRecord(
                op="restart",
                target="*",
                seconds=cost,
                drained_nodes=epoch.deployed_nodes,
                deployed_nodes=epoch.deployed_nodes,
                started_at=started,
            ),
        )
        with self._overhead:
            run.retired = run.conversation_totals()
            run.generation += 1
            self._start_generation(run)

    def _trace_epoch(self, run: _Run, epoch: _Epoch) -> None:
        """Emit the epoch's observe/decide/act spans, samples and flows."""
        tracer = self.obs.tracer
        index, end = epoch.index, epoch.end
        observation, decision = epoch.observation, epoch.decision
        act_start, dispatched = epoch.act_start, epoch.dispatched
        tracer.event(
            end, "epoch", "observe",
            index=index,
            served=observation.served,
            queue_depth=observation.queue_depth,
            suspects=len(observation.suspect_nodes),
        )
        tracer.event(
            end, "epoch", "decide",
            index=index,
            action=decision.action,
            applied=epoch.applied,
        )
        for detection in epoch.detections:
            tracer.span(
                detection.injected_at
                if detection.injected_at is not None
                else detection.suspected_at,
                detection.confirmed_at,
                "detection",
                detection.node,
                latency=detection.latency,
                dead_letters=detection.dead_letters,
                nodes=len(detection.nodes),
            )
        if epoch.applied:
            for step in epoch.steps:
                tracer.span(
                    step.started_at,
                    step.started_at + step.seconds,
                    "migration",
                    f"{step.op}:{step.target}",
                    drained_nodes=step.drained_nodes,
                    epoch=index,
                )
            tracer.span(
                act_start, run.sim.now, "epoch", "act",
                index=index,
                action=decision.action,
                steps=len(epoch.steps),
            )
        if epoch.applied and dispatched:
            # The master/daemon exchange, folded back into the epoch:
            # one dispatch marker, then per region a command span
            # (outstanding from dispatch until the region resumed)
            # closed by an ack event, with flow arrows tying each pair
            # together across tracks.
            by_root = {command.root: command for command in dispatched}
            tracer.event(
                act_start, "protocol", "dispatch",
                epoch=index,
                commands=len(dispatched),
                generation=dispatched[0].generation,
            )
            for step in epoch.steps:
                command = by_root.get(step.target)
                if command is None:
                    continue
                done = step.started_at + step.seconds
                tracer.span(
                    act_start, done, "protocol",
                    f"command:{step.target}",
                    command_id=command.command_id,
                    wave=command.wave,
                    generation=command.generation,
                    epoch=index,
                )
                tracer.event(
                    done, "protocol", f"ack:{step.target}",
                    command_id=command.command_id,
                    epoch=index,
                )
                tracer.flow(act_start, "protocol", command.command_id, "s")
                tracer.flow(done, "protocol", command.command_id, "f")
        tracer.sample(end, "served_rate", observation.served_rate)
        tracer.sample(end, "queue_depth", observation.queue_depth)
        if run.fluid is not None:
            tracer.sample(end, "fluid_clients", observation.fluid_clients)

    def _record(self, run: _Run, epoch: _Epoch) -> None:
        """Snapshot the epoch's metrics and append its record."""
        with self._overhead:
            snapshot = self._epoch_metrics(run, epoch)
        observation = epoch.observation
        run.records.append(
            EpochRecord(
                index=epoch.index,
                start=epoch.start,
                end=epoch.end,
                offered=epoch.offered,
                served=observation.served,
                served_rate=observation.served_rate,
                capacity=epoch.capacity,
                deployed_nodes=epoch.deployed_nodes,
                spares=epoch.spares,
                busiest_node=observation.busiest_node,
                busiest_utilization=observation.busiest_utilization,
                queue_depth=observation.queue_depth,
                action=epoch.decision.action,
                reason=epoch.realized.reason,
                applied=epoch.applied,
                migration_seconds=sum(step.downtime for step in epoch.steps),
                migration_steps=epoch.steps,
                migration_window=epoch.migration_window,
                faults=tuple(epoch.faults),
                detections=tuple(epoch.detections),
                suspects=observation.suspect_nodes,
                reintegrated=observation.reintegrated_nodes,
                evictions=epoch.evictions,
                metrics=snapshot,
                fluid_clients=observation.fluid_clients,
                cohort_clients=observation.cohort,
            )
        )

    # ------------------------------------------------------------------ #

    def _traced_plan(self, request: PlanRequest, purpose: str):
        """One planner invocation, counted and (when enabled) spanned.

        The span opens and closes at the current simulation time (the
        planner is instantaneous in sim time); its wall duration lands
        in the profiling field the tracer keeps out of deterministic
        exports.  Every planner call in the loop goes through here, so
        the ``planner_calls`` counter is exact.
        """
        self._metrics.counter("planner_calls").inc()
        if not self.obs.enabled:
            return self.registry.plan(request)
        now = self._run.sim.now
        span_id = self.obs.tracer.begin(
            now, "planner", request.method, purpose=purpose
        )
        deployment = self.registry.plan(request)
        self.obs.tracer.end(
            now, span_id, nodes=len(deployment.hierarchy)
        )
        return deployment

    def _epoch_metrics(self, run: _Run, epoch: _Epoch) -> MetricsSnapshot:
        """Fold one epoch's deterministic state into the registry and
        freeze it.

        Every input is a pure function of simulation state — engine and
        middleware counters, the monitor's window, the epoch's migration
        and detection records — so the returned snapshot is identical
        whether or not a tracer records (asserted by the obs test
        battery).  Cumulative counters adopt their authoritative totals;
        per-epoch quantities increment.
        """
        metrics = self._metrics
        sim, observation, steps = run.sim, epoch.observation, epoch.steps
        dead_letters, resubmissions, lost = run.conversation_totals()
        metrics.counter("conversations_served").set_total(
            run.completions.count
        )
        metrics.counter("conversations_dead_lettered").set_total(dead_letters)
        metrics.counter("conversations_resubmitted").set_total(resubmissions)
        metrics.counter("conversations_lost").set_total(lost)
        metrics.counter("engine_events").set_total(sim.events_processed)
        metrics.counter("engine_heap_compactions").set_total(
            sim.heap_compactions
        )
        metrics.counter("faults_injected").inc(len(epoch.faults))
        metrics.counter("detections_confirmed").inc(len(epoch.detections))
        metrics.counter("redeploys").inc(1 if epoch.applied else 0)
        metrics.counter("evictions").inc(len(epoch.evictions))
        metrics.counter("migration_steps").inc(len(steps))
        metrics.counter("migration_downtime_seconds").inc(
            sum(step.downtime for step in steps)
        )
        metrics.counter("migration_window_seconds").inc(
            epoch.migration_window
        )
        cache = run.evaluator.cache_info()
        metrics.counter("evaluator_cache_hits").set_total(cache["hits"])
        metrics.counter("evaluator_cache_misses").set_total(cache["misses"])
        lookups = cache["hits"] + cache["misses"]
        metrics.gauge("evaluator_cache_hit_rate").set(
            cache["hits"] / lookups if lookups else 0.0
        )
        metrics.gauge("offered_clients").set(epoch.offered)
        metrics.gauge("served_rate").set(observation.served_rate)
        metrics.gauge("capacity").set(epoch.capacity)
        metrics.gauge("deployed_nodes").set(epoch.deployed_nodes)
        metrics.gauge("spares").set(epoch.spares)
        metrics.gauge("queue_depth").set(observation.queue_depth)
        metrics.gauge("busiest_utilization").set(
            observation.busiest_utilization
        )
        metrics.gauge("suspect_nodes").set(len(observation.suspect_nodes))
        metrics.gauge("demand_unit_estimate").set(run.demand_unit)
        # Hybrid-population split: all four stay 0 on all-discrete runs,
        # set unconditionally so every epoch's snapshot has a uniform
        # key set (tracing on/off and hybrid/non-hybrid diffs stay
        # structural, never shape changes).
        metrics.gauge("fluid_clients").set(observation.fluid_clients)
        metrics.gauge("cohort_clients").set(observation.cohort)
        metrics.gauge("fluid_served_rate").set(
            epoch.fluid_window.served_rate
            if epoch.fluid_window is not None
            else 0.0
        )
        metrics.counter("fluid_served_total").set_total(
            run.fluid.total_served if run.fluid is not None else 0
        )
        for detection in epoch.detections:
            if detection.latency is not None:
                metrics.histogram("detection_latency").observe(
                    detection.latency
                )
        for step in steps:
            metrics.histogram("migration_step_seconds").observe(step.seconds)
        return metrics.snapshot()

    def _excise_confirmed(
        self, run: _Run, confirmed: tuple, now: float
    ) -> list[DetectionRecord]:
        """Cut every newly confirmed subtree out of the live system.

        Ancestors first: confirming an agent takes its whole subtree
        with it, so a server confirmed in the same window is skipped if
        an ancestor's excision already removed it.  Each excision runs
        the ordinary dead-letter machinery — in-flight conversations
        resubmit elsewhere — and yields a :class:`DetectionRecord`
        pairing the measured suspicion timeline with the (accounting
        only) injection time.
        """
        system = run.system
        by_name = {str(node): node for node in system.hierarchy}
        ordered = sorted(
            confirmed,
            key=lambda name: (
                system.hierarchy.depth(by_name[name])
                if name in by_name
                else len(by_name),
                name,
            ),
        )
        records: list[DetectionRecord] = []
        for name in ordered:
            if name not in system.agents and name not in system.servers:
                continue  # excised with an ancestor this pass
            report = run.monitor.detection_report(name)
            suspected_at, confirmed_at = (
                report if report is not None else (now, now)
            )
            members, dead = system.fail_subtree(name)
            records.append(
                DetectionRecord(
                    node=name,
                    nodes=members,
                    injected_at=run.pending_injections.get(name),
                    suspected_at=suspected_at,
                    confirmed_at=confirmed_at,
                    dead_letters=dead,
                )
            )
        return records

    def _split_spares(self, spares) -> tuple[list, list]:
        """``(scalable, reserved)`` — strongest spares held for repairs.

        The reserve takes the highest-power spares (ties by name): a
        repair wants the best material available, and holding the best
        back costs scale-ups the least relative capacity.  With no
        reserve configured the split is the identity.
        """
        if self._reserve_target <= 0 or not spares:
            return list(spares), []
        ranked = sorted(spares, key=lambda node: (-node.power, node.name))
        reserved = ranked[: self._reserve_target]
        held = {node.name for node in reserved}
        scalable = [node for node in spares if node.name not in held]
        return scalable, reserved

    def _live_pool(self, exclude: frozenset = frozenset()) -> NodePool:
        """The pool minus crashed, evicted and ``exclude``d nodes — what
        planning may still use."""
        unusable = self._run.failed_names | self._run.evicted_names | exclude
        if not unusable:
            return self.pool
        return self.pool.without(unusable)

    def _effective_capacity(self, run: _Run) -> float:
        """Modeled throughput of the *reachable* part of the deployment.

        Partitioned subtrees are still in the logical tree but serve
        nothing (their fan-out edge is severed), so capacity is modeled
        over the tree with them pruned out.  A platform whose servers
        are all dark has zero capacity — the model is never consulted
        on a serverless tree.

        Under timeout-modelled detection the oracle partition registry
        is off-limits — the controller only knows what the watchdogs
        told it — so capacity is the model over the tree it believes
        in (confirmed subtrees were already excised from it).
        """
        dark: set[str] = set()
        if self.detection is None:
            for members in run.system.partitioned_subtrees.values():
                dark.update(members)
        reachable = run.hierarchy
        if dark:
            reachable = _hierarchy_without(run.hierarchy, dark)
        if not reachable.servers:
            return 0.0
        return run.evaluator.evaluate(
            reachable, self.app_work
        ).throughput

    def _replan(
        self, exclude: frozenset = frozenset(), demand: float | None = None
    ):
        """Replan over the live pool; demand-free replans are memoized.

        ``exclude`` holds names additionally withheld (the repair
        reserve, for policy-driven restructures).  A demand-free
        (maximum-capacity) replan is a pure function of run constants,
        so it is memoized per run, keyed by ``exclude``; the memo is
        dropped whenever attrition (crash, confirmation, eviction)
        shrinks the pool, so each entry is always the maximum-capacity
        plan over the nodes it may actually use.
        """
        plans = self._run.capacity_plans
        if demand is None and exclude in plans:
            return plans[exclude]
        planned = self._traced_plan(
            PlanRequest(
                pool=self._live_pool(exclude),
                app_work=self.app_work,
                demand=demand,
                params=self.params,
                method=self.base_method,
                seed=self.seed,
            ),
            purpose="full-capacity" if demand is None else "demand",
        )
        if demand is None:
            plans[exclude] = planned
        return planned

    def _start_generation(self, run: _Run) -> None:
        """Bring the platform up on ``run.hierarchy`` and watch it."""
        run.system = MiddlewareSystem(
            run.sim,
            run.hierarchy,
            self.params,
            self.app_work,
            seed=self.seed + run.generation,
            detection=self.detection,
            obs=self.obs,
        )
        run.monitor.attach(run.system)

    def _price(
        self, current: Hierarchy, candidate: Hierarchy, reason: str, rho: float
    ) -> _Realized:
        """``candidate`` with the migration recipe and predicted downtime
        that take ``current`` onto it under the active mode.

        Live plans price at their service-weighted outage (per-subtree
        drains); everything else — restart mode, or diffs the plan
        engine could only realize as a rebuild — prices at the full
        stop-the-world cost.  Restart mode skips the tree diff
        entirely (``plan`` is ``None``): it would be discarded unused,
        and its cost would inflate the adaptation-overhead telemetry
        the benchmark suite tracks.
        """
        plan = None
        if self.migration in _LIVE_MODES:
            plan = plan_migration(current, candidate)
        if plan is not None and plan.is_live:
            cost = self.cost_model.plan_outage_seconds(plan, self.params)
        else:
            cost = self.cost_model.cost_seconds(
                current, candidate, self.params
            )
        return _Realized(candidate, reason, cost, rho, plan)

    def _dispatch_commands(
        self, plan: MigrationPlan, candidate: Hierarchy, epoch: int
    ) -> tuple[MigrationPlan, tuple]:
        """Run one plan through the master/daemon command protocol.

        The master side of the act-stage split: serialize ``plan`` into
        versioned :class:`~repro.control.protocol.MigrationCommand`
        wires against the registry's current generation, hand them to
        the configured executor (whose stateless daemons rebuild the
        deployment from a registry snapshot and apply the batch), then
        verify every ack — command-id correlation, per-command digest
        against the master's own replay, and the final tree against the
        decided ``candidate``.  Any disagreement is a
        :class:`~repro.errors.ProtocolError`, never a silent repair.

        Returns ``(plan, commands)`` where ``plan`` is the **wire-
        round-tripped** plan (rebuilt from the parsed command wires) —
        the simulated apply executes that one, so a serialization bug
        cannot hide behind the in-memory original.
        """
        registry = self._run.registry
        generation = registry.generation
        commands = plan_commands(plan, generation, epoch)
        wires = [command.to_wire() for command in commands]
        reports = self._executor.execute(registry.snapshot(), wires)
        if len(reports) != len(commands):
            raise ProtocolError(
                f"executor returned {len(reports)} report(s) for "
                f"{len(commands)} command(s)"
            )
        replay = registry.current()
        for command, wire in zip(commands, reports):
            report = parse_report(wire)
            if (
                report.command_id != command.command_id
                or report.root != command.root
                or report.generation != generation
                or report.status != "applied"
            ):
                raise ProtocolError(
                    f"bad ack for {command.command_id}: "
                    f"got id={report.command_id!r} root={report.root!r} "
                    f"generation={report.generation} "
                    f"status={report.status!r}"
                )
            apply_steps(replay, command.steps)
            if report.digest != tree_digest(replay):
                raise ProtocolError(
                    f"digest mismatch on {command.command_id}: the "
                    "daemon built a different tree than the master's "
                    "replay"
                )
        if not hierarchies_equal(replay, candidate):
            raise ProtocolError(
                "executed command batch does not reproduce the decided "
                "deployment"
            )
        round_tripped = commands_to_plan(
            tuple(parse_command(wire) for wire in wires)
        )
        return round_tripped, commands

    def _schedule(
        self, plan: MigrationPlan
    ) -> tuple[tuple[MigrationRegion, ...], ...]:
        """The waves a live ``plan`` executes in under the active mode.

        ``"live"`` runs one region per wave, in plan order;
        ``"concurrent"`` runs the plan's dependency waves
        (:meth:`~repro.deploy.migration.MigrationPlan
        .concurrent_schedule`).  The executor and the amortization gate
        both read it, so the price can never describe another schedule
        than the one that runs.
        """
        if self.migration == "concurrent":
            return plan.concurrent_schedule()
        return tuple((region,) for region in plan.regions)

    def _apply_waves(
        self,
        sim: Simulator,
        system: MiddlewareSystem,
        plan: MigrationPlan,
        target: Hierarchy,
    ) -> tuple[MigrationStepRecord, ...]:
        """Execute an incremental plan wave by wave (:meth:`_schedule`).

        Every region of a wave is unlinked at the wave's start; the
        engine then advances under interleaved
        :meth:`~repro.sim.engine.Simulator.run_until_condition` drains,
        and each region is reconfigured and resumed the moment its own
        subtree has gone quiet (capped by ``drain_seconds``) and its
        config push has elapsed — while its wave-mates are still
        draining.  Drain-free growth regions bill configuration only.
        The wave ends when its last region resumes; the next wave
        (whose regions depend on this one's attaches/promotes) then
        starts.  Step records of one wave share ``started_at`` while
        their windows differ.

        Determinism: regions are scanned in plan order, config
        completions are totally ordered by ``(time, plan order)``, and
        every pause point is a pure function of simulation state.
        """
        records: list[MigrationStepRecord] = []
        deployed = max(1, plan.source_nodes)
        for wave_index, wave in enumerate(self._schedule(plan)):
            start = sim.now
            # Wave-aware drain budget: a wave drains its regions
            # *simultaneously*, so it shares one cap, split
            # proportionally to each region's drained-node count.  A
            # single-region wave keeps the full cap bit-exactly (its
            # share is 1.0).
            total_drained = sum(len(region.drained) for region in wave)
            cap_for: dict[str, float] = {}
            # root -> (region, members, quiet predicate), plan order.
            draining: dict[str, tuple] = {}
            # (config done, plan order, region, members) — min-heap.
            ready: list[tuple[float, int, object, tuple[str, ...]]] = []
            for order, region in enumerate(wave):
                drained = tuple(str(node) for node in region.drained)
                if drained:
                    system.unlink(str(region.root), drained)
                    cap_for[str(region.root)] = (
                        start
                        + self.cost_model.drain_seconds
                        * (len(drained) / total_drained)
                    )
                    draining[str(region.root)] = (
                        region,
                        drained,
                        system.region_busy_predicate(drained),
                    )
                else:
                    config = self.cost_model.region_config_seconds(
                        region, self.params
                    )
                    heapq.heappush(ready, (start + config, order, region, ()))
            offset = len(wave)
            while draining or ready:
                horizon = min(
                    ([ready[0][0]] if ready else [])
                    + [cap_for[root] for root in draining]
                )
                if draining and horizon > sim.now:
                    busy_probes = [
                        probe for (_, _, probe) in draining.values()
                    ]
                    sim.run_until_condition(
                        horizon,
                        lambda: any(not probe() for probe in busy_probes),
                    )
                elif horizon > sim.now:
                    sim.run_until(horizon)
                # Quiet (or capped-out) regions start their config push.
                for root in list(draining):
                    region, drained, probe = draining[root]
                    if not probe() or sim.now >= cap_for[root]:
                        config = self.cost_model.region_config_seconds(
                            region, self.params
                        )
                        heapq.heappush(
                            ready, (sim.now + config, offset, region, drained)
                        )
                        offset += 1
                        del draining[root]
                # Regions whose config window has closed apply their
                # structural steps and resume (fan-out edge restored).
                while ready and ready[0][0] <= sim.now + 1e-12:
                    _, _, region, drained = heapq.heappop(ready)
                    system.apply_migration(region.steps)
                    if drained and region.root in target:
                        parent = target.parent(region.root)
                        if parent is not None:
                            system.ensure_linked(str(region.root), str(parent))
                    records.append(
                        MigrationStepRecord(
                            op="drain" if drained else "grow",
                            target=str(region.root),
                            seconds=sim.now - start,
                            drained_nodes=len(drained),
                            deployed_nodes=deployed,
                            started_at=start,
                        )
                    )
            if self.obs.enabled:
                self.obs.tracer.span(
                    start, sim.now, "migration",
                    f"wave:{wave_index}", regions=len(wave),
                )
        system.complete_migration(target)
        return tuple(records)

    def _realize(
        self,
        decision: ControlDecision,
        hierarchy: Hierarchy,
        spares,
        capacity: float,
        observation: WindowObservation,
        reserved=(),
    ) -> _Realized:
        """Turn a decision into a priced :class:`_Realized` candidate.

        ``spares`` is the *scalable* spare set; ``reserved`` the
        repair reserve held back from scale-ups.  ``improve`` and
        policy replans see only the former; ``repair`` and ``evict``
        draw on both.
        """
        reason = decision.reason
        if decision.action == "hold":
            return _Realized.skip(reason)
        if decision.action == "evict":
            return self._realize_evict(
                decision, hierarchy, list(spares) + list(reserved)
            )
        if decision.action == "improve":
            if not spares:
                qualifier = (
                    "spares held in repair reserve" if reserved
                    else "no spares"
                )
                return _Realized.skip(reason, f"no-op: {qualifier}")
            result = improve_deployment(
                hierarchy, list(spares), self.params, self.app_work
            )
            gain = result.final_throughput - result.initial_throughput
            if not result.actions or gain <= capacity * _REL_TOL:
                return _Realized.skip(reason, "no-op: no improving move")
            return self._gate_scale_up(
                result.hierarchy, hierarchy, result.final_throughput,
                gain, observation, reason,
            )
        if decision.action == "repair":
            # Healing is exempt from the amortization veto: the platform
            # is damaged, and the gate's served-rate arithmetic would
            # read the post-fault slump as "not worth migrating for".
            # It is also what the reserve exists for, so repairs splice
            # from the scalable spares *and* the reserve.
            repair_spares = list(spares) + list(reserved)
            if repair_spares:
                try:
                    result = improve_deployment(
                        hierarchy, repair_spares, self.params, self.app_work
                    )
                except HierarchyError:
                    # Crash surgery can leave survivors the strict
                    # validator rejects (single-child agents); the
                    # bottleneck-removal mechanism cannot start from
                    # such a tree, so fall through to a full replan.
                    result = None
                if (
                    result is not None
                    and result.actions
                    and result.final_throughput - capacity
                    > capacity * _REL_TOL
                ):
                    return self._price(
                        hierarchy, result.hierarchy, reason,
                        result.final_throughput,
                    )
            # No spares, or splicing could not raise capacity:
            # restructure the survivors from scratch over the live pool.
            planned = self._replan()
            if (
                self.cost_model.touched_nodes(hierarchy, planned.hierarchy)
                > 0
                and planned.throughput > capacity * (1.0 + _REL_TOL)
            ):
                return self._price(
                    hierarchy, planned.hierarchy, reason, planned.throughput
                )
            return _Realized.skip(reason, "no-op: no repair raises capacity")
        # replan
        if decision.demand is not None and CAP_DEMAND not in self.registry.get(
            self.base_method
        ).capabilities:
            # A demand-blind planner would plan the full pool for maximum
            # throughput — turning a shrink decision into a scale-up, the
            # opposite of what the policy asked for.
            return _Realized.skip(
                reason,
                f"no-op: planner {self.base_method!r} ignores demand caps",
            )
        # Policy-driven replans never touch the repair reserve; only
        # repair (above) and evict may spend it.
        # Demand-free replans (the saturation restructure above all) are
        # memoized, so a persistently saturated policy proposing one
        # every epoch does not pay the planner again each time.
        held = frozenset(node.name for node in reserved)
        planned = self._replan(held, decision.demand)
        candidate = planned.hierarchy
        if self.cost_model.touched_nodes(hierarchy, candidate) == 0:
            return _Realized.skip(reason, "no-op: replan kept the deployment")
        gain = planned.throughput - capacity
        if gain > capacity * _REL_TOL:
            return self._gate_scale_up(
                candidate, hierarchy, planned.throughput, gain,
                observation, reason,
            )
        if decision.demand is None:
            # A demand-free replan is capacity-seeking (the saturation
            # restructure, or any policy asking for maximum throughput):
            # a reshaped tree that does not raise modeled capacity is
            # churn, not relief, so it is never applied.
            return _Realized.skip(
                reason,
                "no-op: full-capacity replan does not raise modeled capacity",
            )
        # Scale-down (or sideways): efficiency move, no throughput gate —
        # but never below the configured deployment floor.
        if len(candidate) < self.min_nodes:
            return _Realized.skip(
                reason,
                f"no-op: candidate has {len(candidate)} nodes, "
                f"below min_nodes={self.min_nodes}",
            )
        return self._price(hierarchy, candidate, reason, planned.throughput)

    def _realize_evict(
        self,
        decision: ControlDecision,
        hierarchy: Hierarchy,
        all_spares: list,
    ) -> _Realized:
        """Drain-and-replace a persistently degraded server.

        The target leaf is swapped for the strongest available spare
        under the same parent — an ordinary one-region migration, so
        live modes drain only that subtree.  Like repair, eviction is
        exempt from the amortization veto: it is triage, not a
        throughput play (the replacement may even be weaker on paper —
        the model's rate for the evictee was a lie).
        """
        target, reason = decision.targets[0], decision.reason
        if not all_spares:
            return _Realized.skip(reason, "no-op: no spares")
        server_names = {str(node) for node in hierarchy.servers}
        if target not in server_names:
            return _Realized.skip(
                reason, f"no-op: {target} is not a deployed server"
            )
        replacement = max(
            all_spares, key=lambda node: (node.power, node.name)
        )
        candidate = hierarchy.copy()
        doomed = {str(node): node for node in candidate}[target]
        parent = candidate.parent(doomed)
        candidate.remove_leaf(doomed)
        candidate.add_server(replacement.name, replacement.power, parent)
        candidate.validate(strict=False)
        rho = self._run.evaluator.evaluate(
            candidate, self.app_work, validate=False
        ).throughput
        return self._price(hierarchy, candidate, reason, rho)

    def _gate_scale_up(
        self,
        candidate: Hierarchy,
        current: Hierarchy,
        rho: float,
        gain: float,
        observation: WindowObservation,
        reason: str,
    ) -> _Realized:
        """Veto scale-ups whose gain cannot amortize the migration loss."""
        priced = self._price(current, candidate, reason, rho)
        plan = priced.plan
        lost_requests = priced.cost * observation.served_rate
        horizon = _AMORTIZE_EPOCHS * self.epoch_duration
        if plan is not None and plan.is_live:
            # The gain only accrues once the migration window closes, so
            # the amortization horizon shrinks by the window of the
            # schedule that will actually run.  Concurrent waves close
            # it sooner (each wave pays only its slowest region), so for
            # the identical plan the concurrent gate is never stricter
            # than the serial-live one — which is what makes heavily
            # multi-region plans, restructures above all, affordable.
            window = self.cost_model.plan_window_seconds(
                plan, self.params, self._schedule(plan)
            )
            horizon = max(0.0, horizon - window)
        gained_requests = gain * horizon
        if gained_requests <= lost_requests:
            return _Realized.skip(
                reason,
                f"vetoed: migration loses {lost_requests:.0f} requests vs "
                f"{gained_requests:.0f} gained over {_AMORTIZE_EPOCHS} "
                "epochs",
            )
        return priced
