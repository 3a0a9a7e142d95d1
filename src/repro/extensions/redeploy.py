"""Iterative deployment improvement — the paper's prior-work mechanism.

Before arriving at Algorithm 1, the authors' earlier approach ([6], [7]:
"Automatic deployment for hierarchical network enabled server") was
*iterative*: analyze an **existing** deployment with the throughput
model, identify the primary bottleneck, and remove it by adding resources
in the appropriate part of the hierarchy, repeating until no improvement
remains.  The paper positions Algorithm 1 as the from-scratch complement
of that tool; this module supplies the tool itself, so the library covers
both workflows:

* plan from scratch — :class:`repro.core.heuristic.HeuristicPlanner`;
* improve what is already running — :func:`improve_deployment`.

Moves, chosen by the model's bottleneck diagnosis:

``add-server``
    Service-bound: attach the strongest spare node as a server under the
    agent with the most scheduling headroom.
``split-agent``
    Scheduling-bound at an agent: promote the strongest spare to a new
    agent alongside it and hand over half of its children, halving the
    bottleneck agent's degree.
``promote-server``
    Scheduling-bound at an agent and no spare needed: promote the
    strongest server child (the paper's ``shift_nodes``) to a new agent
    and hand over half of its siblings.
``rebalance``
    Scheduling-bound at an agent but no spares left: move one child from
    the bottleneck agent to the existing agent with the most headroom.
``replace-server``
    Scheduling-bound at a *server* (its prediction floor): swap it for a
    stronger spare.

Moves that strictly raise throughput are always preferred.  When the
deployment sits on a *plateau* — scheduling and service power are equal,
so no single move helps although a split followed by an add would — the
loop accepts an "unblocking" move: one that keeps throughput intact while
strictly raising the hierarchy's scheduling power.  Unblocking moves
consume a spare or convert a server, so they are bounded and the loop
still terminates; throughput never regresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hierarchy import Hierarchy, NodeId, Role
from repro.core.params import ModelParams
from repro.core.kernels import HierarchyEvaluator
from repro.core.throughput import ThroughputReport
from repro.errors import PlanningError
from repro.platforms.node import Node

__all__ = ["ImprovementAction", "ImprovementResult", "improve_deployment"]

_REL_TOL = 1e-9


@dataclass(frozen=True)
class ImprovementAction:
    """One applied improvement step."""

    # add-server | split-agent | promote-server | rebalance | replace-server
    move: str
    node: str
    target: str
    throughput_before: float
    throughput_after: float

    @property
    def gain(self) -> float:
        return self.throughput_after - self.throughput_before


@dataclass(frozen=True)
class ImprovementResult:
    """Outcome of an improvement run."""

    hierarchy: Hierarchy
    actions: tuple[ImprovementAction, ...] = field(repr=False, default=())
    initial_throughput: float = 0.0
    final_throughput: float = 0.0
    spares_left: tuple[Node, ...] = field(repr=False, default=())

    @property
    def improvement_factor(self) -> float:
        if self.initial_throughput <= 0:
            return 1.0
        return self.final_throughput / self.initial_throughput


def _headroom_agent(
    hierarchy: Hierarchy,
    agents: list[NodeId],
    evaluator: HierarchyEvaluator,
    exclude: NodeId | None = None,
) -> NodeId:
    """Agent whose post-attach scheduling rate would be the highest;
    ``agents`` lists the hierarchy's agents."""
    return max(
        [a for a in agents if a != exclude] or agents,
        key=lambda a: (
            evaluator.agent_rate(hierarchy.power(a), hierarchy.degree(a) + 1),
            str(a),
        ),
    )


def _evaluate(
    candidate: Hierarchy, evaluator: HierarchyEvaluator, app_work: float
) -> ThroughputReport | None:
    """Throughput report of a candidate, or None if invalid."""
    try:
        candidate.validate(strict=True)
    except Exception:
        return None
    return evaluator.evaluate(candidate, app_work, validate=False)


def _best_move(
    hierarchy: Hierarchy,
    report: ThroughputReport,
    spares: list[Node],
    evaluator: HierarchyEvaluator,
    app_work: float,
) -> tuple[Hierarchy, ImprovementAction, list[Node], ThroughputReport] | None:
    """The best move from ``hierarchy``, whose throughput is ``report``."""
    rho = report.throughput
    sched_now = report.sched
    # Entries: (value, sched, unblocking, trial, action, remaining_spares,
    # trial report).
    candidates: list[
        tuple[
            float, float, bool, Hierarchy, ImprovementAction, list[Node],
            ThroughputReport,
        ]
    ] = []
    spare = max(spares, default=None)
    agents = hierarchy.agents

    def consider(
        move: str,
        node: str,
        target: str,
        trial: Hierarchy,
        remaining: list[Node],
        unblocking: bool,
    ) -> None:
        result = _evaluate(trial, evaluator, app_work)
        if result is None:
            return
        value = result.throughput
        candidates.append(
            (
                value,
                result.sched,
                unblocking,
                trial,
                ImprovementAction(move, node, target, rho, value),
                remaining,
                result,
            )
        )

    # Move: add-server (service-bound, or as a generic option).
    if spare is not None:
        target = _headroom_agent(hierarchy, agents, evaluator)
        trial = hierarchy.copy()
        trial.add_server(spare.name, spare.power, target)
        remaining = [s for s in spares if s.name != spare.name]
        consider("add-server", spare.name, str(target), trial, remaining, False)

    # Scheduling-capacity moves target the *tightest agent* and are
    # considered whenever one exists — not only when the report says
    # scheduling-bound.  Near the regime boundary (sched ~ service) the
    # bottleneck label flips every step, but a split that raises sched
    # power is exactly what lets the next add-server pay off; the
    # acceptance rules below keep unhelpful candidates out.
    limiting = min(agents, key=lambda a: (report.node_rates[a], str(a)))
    children = list(hierarchy.children(limiting))
    # Move: split-agent — a spare becomes a sibling agent and takes
    # half the children.  Unblocking: raises sched power even when
    # service keeps rho flat.
    if spare is not None and len(children) >= 4:
        trial = hierarchy.copy()
        parent = trial.parent(limiting)
        anchor = parent if parent is not None else limiting
        trial.add_agent(spare.name, spare.power, anchor)
        for child in children[: len(children) // 2]:
            trial.reattach(child, spare.name)
        remaining = [s for s in spares if s.name != spare.name]
        consider(
            "split-agent", spare.name, str(limiting), trial, remaining, True
        )
    # Move: promote-server — shift_nodes without a spare: the
    # strongest server child becomes an agent over half its siblings.
    server_children = [
        c for c in children if hierarchy.role(c) is Role.SERVER
    ]
    if len(server_children) >= 5:
        promoted = max(
            server_children, key=lambda s: (hierarchy.power(s), str(s))
        )
        siblings = [c for c in children if c != promoted]
        trial = hierarchy.copy()
        trial.promote(promoted)
        for child in siblings[: len(siblings) // 2]:
            trial.reattach(child, promoted)
        consider(
            "promote-server", str(promoted), str(limiting), trial,
            list(spares), True,
        )
    # Move: rebalance — shift one child to the roomiest other agent.
    if len(children) >= 3 and len(agents) > 1:
        receiver = _headroom_agent(
            hierarchy, agents, evaluator, exclude=limiting
        )
        if receiver != limiting:
            moved = children[-1]
            if receiver not in hierarchy.subtree(moved):
                trial = hierarchy.copy()
                trial.reattach(moved, receiver)
                consider(
                    "rebalance", str(moved), str(receiver), trial,
                    list(spares), False,
                )

    floor_node = report.limiting_node
    if (
        report.is_scheduling_bound
        and hierarchy.role(floor_node) is Role.SERVER
        and spare is not None
        and spare.power > hierarchy.power(floor_node)
    ):
        # Move: replace-server — swap the floor server for a faster spare.
        trial = hierarchy.copy()
        parent = trial.parent(floor_node)
        assert parent is not None
        trial.remove_leaf(floor_node)
        trial.add_server(spare.name, spare.power, parent)
        remaining = [s for s in spares if s.name != spare.name]
        consider(
            "replace-server", spare.name, str(floor_node), trial, remaining,
            False,
        )

    if not candidates:
        return None
    # Strict throughput improvements first.
    improving = [c for c in candidates if c[0] > rho * (1.0 + _REL_TOL)]
    if improving:
        best = max(improving, key=lambda c: c[0])
        return best[3], best[4], best[5], best[6]
    # Plateau: accept an unblocking move that keeps rho and strictly
    # raises scheduling power, enabling the next add-server to pay off.
    unblockers = [
        c
        for c in candidates
        if c[2]
        and c[0] >= rho * (1.0 - _REL_TOL)
        and c[1] > sched_now * (1.0 + _REL_TOL)
    ]
    if unblockers:
        best = max(unblockers, key=lambda c: c[1])
        return best[3], best[4], best[5], best[6]
    return None


def improve_deployment(
    hierarchy: Hierarchy,
    spares: list[Node],
    params: ModelParams,
    app_work: float,
    max_iterations: int = 100,
) -> ImprovementResult:
    """Iteratively remove bottlenecks from an existing deployment.

    Parameters
    ----------
    hierarchy:
        The running deployment (strictly valid); not mutated.
    spares:
        Unused nodes available for growth.  Node names must not collide
        with deployed nodes.
    max_iterations:
        Safety bound on improvement steps.

    Returns
    -------
    ImprovementResult
        The improved hierarchy, the action log, before/after throughput
        and the spares that remain unused.

    Raises
    ------
    PlanningError
        On spare-name collisions or a non-positive ``app_work``.
    """
    if app_work <= 0.0:
        raise PlanningError(f"app_work must be > 0, got {app_work}")
    hierarchy.validate(strict=True)
    deployed = {str(n) for n in hierarchy}
    collisions = sorted(deployed & {s.name for s in spares})
    if collisions:
        raise PlanningError(f"spare names already deployed: {collisions}")

    current = hierarchy.copy()
    remaining = sorted(spares, key=lambda s: (s.power, s.name), reverse=True)
    # Candidates share node and service rates, so one evaluator's caches
    # price them all.
    evaluator = HierarchyEvaluator(params)
    report = evaluator.evaluate(current, app_work, validate=False)
    initial = report.throughput
    actions: list[ImprovementAction] = []
    for _ in range(max_iterations):
        step = _best_move(current, report, remaining, evaluator, app_work)
        if step is None:
            break
        current, action, remaining, report = step
        actions.append(action)
    return ImprovementResult(
        hierarchy=current,
        actions=tuple(actions),
        initial_throughput=initial,
        final_throughput=report.throughput,
        spares_left=tuple(remaining),
    )


# ---------------------------------------------------------------------- #
# registry integration


from repro.core.registry import (  # noqa: E402  (registration tail)
    CAP_AUTOMATIC,
    CAP_EXTENSION,
    CAP_TRANSFORM,
    PlannerOptions,
    build_deployment,
    register_planner,
)


@dataclass(frozen=True)
class RedeployOptions(PlannerOptions):
    """Options of the plan-then-improve transform.

    The pool is split in deployment order: the first
    ``round(initial_fraction * n)`` nodes (at least 2) seed a base
    deployment planned with ``base_method``; the remainder become spares
    that :func:`improve_deployment` may consume.
    """

    initial_fraction: float = 0.5
    base_method: str = "heuristic"
    max_iterations: int = 100

    def __post_init__(self) -> None:
        if not (0.0 < self.initial_fraction <= 1.0):
            raise PlanningError(
                "redeploy: initial_fraction must be in (0, 1], "
                f"got {self.initial_fraction}"
            )
        if self.base_method == "redeploy":
            raise PlanningError(
                "redeploy: base_method cannot be 'redeploy' itself"
            )
        if self.max_iterations < 1:
            raise PlanningError(
                "redeploy: max_iterations must be >= 1, "
                f"got {self.max_iterations}"
            )


@register_planner
class RedeployRegistryPlanner:
    """Plan a base deployment, then iteratively remove its bottlenecks.

    Wraps the prior-work improvement loop as a planner: the paper's
    "improve what is already running" workflow becomes one more method
    behind the registry.  The action log and the before/after throughputs
    ride in ``deployment.extras``.
    """

    name = "redeploy"
    capabilities = frozenset({CAP_AUTOMATIC, CAP_EXTENSION, CAP_TRANSFORM})
    options_type = RedeployOptions

    def plan(self, request):
        from repro.core.registry import REGISTRY
        import dataclasses as _dc

        opts = request.options
        n = len(request.pool)
        if n < 2:
            raise PlanningError(
                f"planning needs >= 2 nodes, pool has {n}"
            )
        initial = min(n, max(2, round(opts.initial_fraction * n)))
        base_request = _dc.replace(
            request,
            pool=request.pool.take(initial),
            method=opts.base_method,
            options=None,
        )
        base = REGISTRY.plan(base_request)
        deployed = {str(node) for node in base.hierarchy}
        spares = [
            node for node in request.pool if node.name not in deployed
        ]
        result = improve_deployment(
            base.hierarchy,
            spares,
            request.params,
            request.app_work,
            max_iterations=opts.max_iterations,
        )
        return build_deployment(
            request,
            self.name,
            result.hierarchy,
            extras={
                "base_method": opts.base_method,
                "actions": result.actions,
                "initial_throughput": result.initial_throughput,
                "final_throughput": result.final_throughput,
                "improvement_factor": result.improvement_factor,
                "spares_left": result.spares_left,
            },
        )
