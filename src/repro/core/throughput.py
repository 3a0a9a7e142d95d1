"""Steady-state throughput model — Equations 11–16 of the paper.

The completed-request throughput of a deployment is the minimum of

* the **scheduling throughput** ``rho_sched`` (Eq. 14): the slowest per-node
  rate at which the scheduling phase can flow through the hierarchy — for
  every agent the inverse of its per-request compute + communication time,
  and for every server the inverse of its prediction + communication time;
* the **service throughput** ``rho_service`` (Eq. 15): the aggregate rate at
  which the server pool can execute the application, accounting for the
  prediction work every server performs on *every* request.

These closed forms assume the M(r,s,w) single-port serial model: a node's
per-request send, receive and compute times simply add.

This module holds the per-node rate formulas and the report type;
:func:`hierarchy_throughput` walks a hierarchy through
:class:`~repro.core.kernels.HierarchyEvaluator`, the one Eq. 14–16 walk.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core import comm_model, comp_model
from repro.core.hierarchy import Hierarchy, NodeId
from repro.core.params import ModelParams
from repro.errors import ParameterError

__all__ = [
    "agent_sched_throughput",
    "server_sched_throughput",
    "service_throughput",
    "hierarchy_throughput",
    "ThroughputReport",
    "resolve_app_work_list",
]


def agent_sched_throughput(params: ModelParams, power: float, degree: int) -> float:
    """Per-agent scheduling rate (second operand of Eq. 14), requests/s.

    This is the paper's ``calc_sch_pow``: the rate at which one agent of
    power ``power`` with ``degree`` children can process scheduling traffic.
    It is strictly decreasing in ``degree``.
    """
    if degree < 1:
        raise ParameterError(f"an agent needs >= 1 child, got degree={degree}")
    total_time = comp_model.agent_comp_time(
        params, power, degree
    ) + comm_model.agent_comm_time(params, degree)
    return 1.0 / total_time


def server_sched_throughput(params: ModelParams, power: float) -> float:
    """Per-server prediction rate (first operand of Eq. 14), requests/s."""
    if power <= 0.0:
        raise ParameterError(f"power must be > 0, got {power}")
    total_time = params.wpre / power + comm_model.server_comm_time(params)
    return 1.0 / total_time


def service_throughput(
    params: ModelParams,
    powers: Sequence[float],
    app_works: Sequence[float],
) -> float:
    """Eq. 15 — service-phase throughput of a server pool, requests/s.

    This is the paper's ``calc_hier_ser_pow``: the rate at which the pool
    completes application executions when load is split in the steady-state
    proportions of Eq. 8, including the per-request client communication.
    """
    comp = comp_model.server_comp_time(params, powers, app_works)
    comm = params.service_sizes.round_trip / params.bandwidth
    return 1.0 / (comm + comp)


def resolve_app_work_list(
    servers: Sequence[NodeId],
    app_work: float | Mapping[NodeId, float],
) -> list[float]:
    """Expand a scalar or per-server mapping of ``Wapp`` over ``servers``."""
    if isinstance(app_work, Mapping):
        missing = [s for s in servers if s not in app_work]
        if missing:
            raise ParameterError(f"app_work missing for servers: {missing!r}")
        return [float(app_work[s]) for s in servers]
    work = float(app_work)
    if work <= 0.0:
        raise ParameterError(f"app_work must be > 0, got {work}")
    return [work] * len(servers)


@dataclass(frozen=True)
class ThroughputReport:
    """Full throughput breakdown for a deployment.

    Attributes
    ----------
    throughput:
        Completed-request throughput ``rho`` (Eq. 16), requests/s.
    sched:
        Scheduling throughput ``rho_sched`` (Eq. 14).
    service:
        Service throughput ``rho_service`` (Eq. 15).
    bottleneck:
        ``"scheduling"`` or ``"service"`` — which phase limits ``rho``.
    limiting_node:
        The node realizing the scheduling minimum (even when service-bound,
        this reports the tightest scheduling element).
    node_rates:
        Per-node scheduling rate, requests/s.
    """

    throughput: float
    sched: float
    service: float
    bottleneck: str
    limiting_node: NodeId
    node_rates: Mapping[NodeId, float]

    @property
    def is_scheduling_bound(self) -> bool:
        return self.bottleneck == "scheduling"


def hierarchy_throughput(
    hierarchy: Hierarchy,
    params: ModelParams,
    app_work: float | Mapping[NodeId, float],
) -> ThroughputReport:
    """Eq. 16 — completed-request throughput of a deployment.

    Parameters
    ----------
    hierarchy:
        The deployment tree (validated non-strictly; intermediate planner
        states are allowed as long as they are structurally sound).
    app_work:
        ``Wapp`` in MFlop, either one value for all servers or a per-server
        mapping.
    """
    from repro.core.kernels import HierarchyEvaluator  # kernels imports us

    return HierarchyEvaluator(params).evaluate(hierarchy, app_work)
