"""Pre-launch plan validation.

GoDIET refuses to launch inconsistent deployment files; :func:`check_plan`
is the simulated counterpart.  It returns a list of
:class:`ValidationIssue` (empty when the plan is launchable) rather than
raising on the first problem, so tooling can display a complete report.

Checks performed:

* structural validity of the hierarchy (tree shape, roles, child counts);
* every deployed node exists in the resource pool (when a pool is given)
  with a matching power rating;
* no node is deployed twice;
* model parameters and application work are usable;
* warnings for shapes the model predicts to be wasteful (an agent whose
  scheduling rate is far below the plan's service power).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.hierarchy import Hierarchy
from repro.core.throughput import hierarchy_throughput
from repro.deploy.plan import DeploymentPlan
from repro.errors import HierarchyError
from repro.platforms.pool import NodePool

__all__ = ["ValidationIssue", "check_plan"]

#: Relative tolerance when comparing plan powers against pool ratings.
_POWER_TOL = 1e-9


@dataclass(frozen=True)
class ValidationIssue:
    """One problem found in a deployment plan.

    Attributes
    ----------
    severity:
        ``"error"`` (plan cannot launch) or ``"warning"`` (launchable but
        suspicious).
    code:
        Stable machine-readable identifier.
    message:
        Human-readable description.
    node:
        The node concerned, when applicable.
    """

    severity: str
    code: str
    message: str
    node: str | None = None

    @property
    def is_error(self) -> bool:
        return self.severity == "error"


def check_plan(
    plan: DeploymentPlan,
    pool: NodePool | None = None,
) -> list[ValidationIssue]:
    """Validate ``plan``; optionally cross-check against a resource pool."""
    issues: list[ValidationIssue] = []
    hierarchy = plan.hierarchy

    try:
        hierarchy.validate(strict=True)
    except HierarchyError as exc:
        issues.append(
            ValidationIssue("error", "structure", str(exc))
        )
        return issues  # structural breakage makes further checks unreliable

    if pool is not None:
        issues.extend(_check_against_pool(hierarchy, pool))

    issues.extend(_check_performance(plan))
    return issues


def _check_against_pool(
    hierarchy: Hierarchy, pool: NodePool
) -> list[ValidationIssue]:
    issues: list[ValidationIssue] = []
    for node in hierarchy:
        name = str(node)
        if name not in pool:
            issues.append(
                ValidationIssue(
                    "error",
                    "unknown-node",
                    f"node {name!r} is not in the resource pool",
                    node=name,
                )
            )
            continue
        rated = pool[name].power
        planned = hierarchy.power(node)
        if abs(rated - planned) > _POWER_TOL * max(rated, planned):
            issues.append(
                ValidationIssue(
                    "error",
                    "power-mismatch",
                    f"node {name!r}: plan says {planned:g} MFlop/s but the "
                    f"pool rates it at {rated:g} MFlop/s",
                    node=name,
                )
            )
    return issues


def _check_performance(plan: DeploymentPlan) -> list[ValidationIssue]:
    """Model-level sanity warnings (the plan launches, but poorly)."""
    issues: list[ValidationIssue] = []
    hierarchy = plan.hierarchy
    report = hierarchy_throughput(hierarchy, plan.params, plan.app_work)
    for agent in hierarchy.agents:
        rate = report.node_rates[agent]
        if rate < 0.5 * report.service:
            issues.append(
                ValidationIssue(
                    "warning",
                    "agent-bottleneck",
                    f"agent {agent!r} schedules at {rate:.1f} req/s, under "
                    f"half the plan's service power "
                    f"({report.service:.1f} req/s); it will throttle the "
                    "platform",
                    node=str(agent),
                )
            )
    if report.is_scheduling_bound and len(hierarchy.servers) > 1:
        slack = report.service / report.throughput
        if slack > 2.0:
            issues.append(
                ValidationIssue(
                    "warning",
                    "overprovisioned-servers",
                    f"service power is {slack:.1f}x the deliverable "
                    "throughput; the server tier is over-provisioned for "
                    "this hierarchy",
                )
            )
    return issues
