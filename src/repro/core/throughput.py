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
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from repro.core import comm_model, comp_model
from repro.core.hierarchy import Hierarchy, NodeId, Role
from repro.core.params import ModelParams
from repro.errors import ParameterError

__all__ = [
    "agent_sched_throughput",
    "server_sched_throughput",
    "service_throughput",
    "sched_throughput",
    "hierarchy_throughput",
    "ThroughputReport",
    "resolve_app_work",
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


def resolve_app_work(
    hierarchy: Hierarchy,
    app_work: float | Mapping[NodeId, float],
) -> list[float]:
    """Expand a scalar or per-server mapping of ``Wapp`` into a list.

    The list is ordered like ``hierarchy.servers``.
    """
    return resolve_app_work_list(hierarchy.servers, app_work)


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

    @property
    def is_service_bound(self) -> bool:
        return self.bottleneck == "service"


def sched_throughput(
    hierarchy: Hierarchy, params: ModelParams
) -> tuple[float, NodeId, dict[NodeId, float]]:
    """Eq. 14 over a hierarchy: (min rate, limiting node, per-node rates)."""
    rates: dict[NodeId, float] = {}
    agent = Role.AGENT
    for node in hierarchy:
        if hierarchy.role(node) is agent:
            rates[node] = agent_sched_throughput(
                params, hierarchy.power(node), hierarchy.degree(node)
            )
        else:
            rates[node] = server_sched_throughput(params, hierarchy.power(node))
    limiting = min(rates, key=lambda n: rates[n])
    return rates[limiting], limiting, rates


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
    hierarchy.validate(strict=False)
    servers = hierarchy.servers
    if not servers:
        raise ParameterError("deployment has no servers; throughput undefined")
    sched, limiting, rates = sched_throughput(hierarchy, params)
    powers = [hierarchy.power(s) for s in servers]
    works = resolve_app_work_list(servers, app_work)
    service = service_throughput(params, powers, works)
    if sched <= service:
        bottleneck = "scheduling"
        rho = sched
    else:
        bottleneck = "service"
        rho = service
    return ThroughputReport(
        throughput=rho,
        sched=sched,
        service=service,
        bottleneck=bottleneck,
        limiting_node=limiting,
        node_rates=rates,
    )
