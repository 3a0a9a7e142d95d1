"""Core analytic models and deployment planners.

This package contains the paper's primary contribution:

* :mod:`repro.core.params` — the calibrated model parameter set (Table 3);
* :mod:`repro.core.comm_model` / :mod:`repro.core.comp_model` — the per-node
  communication and computation time models (Eqs. 1–10);
* :mod:`repro.core.throughput` — scheduling / service / platform throughput
  (Eqs. 11–16);
* :mod:`repro.core.kernels` — batched/array versions of the throughput
  kernels and the memoizing :class:`~repro.core.kernels.HierarchyEvaluator`
  every planner's hot loop runs on;
* :mod:`repro.core.hierarchy` — the deployment-tree data structure;
* :mod:`repro.core.heuristic` — the heterogeneous deployment heuristic
  (Algorithm 1);
* :mod:`repro.core.homogeneous` — the optimal complete-spanning-d-ary-tree
  planner for homogeneous pools (reference [10] of the paper);
* :mod:`repro.core.optimal` — exhaustive reference planners for small pools;
* :mod:`repro.core.baselines` — star / balanced / chain deployments (§5.3);
* :mod:`repro.core.registry` — the pluggable planner registry and typed
  per-planner options (the entry point, with :mod:`repro.api` on top).
"""

from repro.core.params import LevelSizes, ModelParams
from repro.core.hierarchy import Hierarchy, Role
from repro.core.throughput import (
    agent_sched_throughput,
    hierarchy_throughput,
    server_sched_throughput,
    service_throughput,
    ThroughputReport,
)
from repro.core.heuristic import HeuristicPlanner
from repro.core.homogeneous import HomogeneousPlanner
from repro.core.kernels import (
    HierarchyEvaluator,
    agent_sched_throughput_many,
    server_sched_throughput_many,
    service_throughput_prefixes,
    supported_children_many,
)
from repro.core.baselines import balanced_deployment, chain_deployment, star_deployment
from repro.core.registry import (
    REGISTRY,
    BalancedOptions,
    ChainOptions,
    Deployment,
    ExhaustiveOptions,
    HeuristicOptions,
    HomogeneousOptions,
    PlannerOptions,
    PlannerRegistry,
    StarOptions,
    default_middle_agents,
    register_planner,
)

__all__ = [
    "REGISTRY",
    "Deployment",
    "PlannerOptions",
    "PlannerRegistry",
    "register_planner",
    "default_middle_agents",
    "HeuristicOptions",
    "HomogeneousOptions",
    "ExhaustiveOptions",
    "StarOptions",
    "BalancedOptions",
    "ChainOptions",
    "LevelSizes",
    "ModelParams",
    "Hierarchy",
    "Role",
    "agent_sched_throughput",
    "server_sched_throughput",
    "service_throughput",
    "hierarchy_throughput",
    "ThroughputReport",
    "HierarchyEvaluator",
    "agent_sched_throughput_many",
    "server_sched_throughput_many",
    "service_throughput_prefixes",
    "supported_children_many",
    "HeuristicPlanner",
    "HomogeneousPlanner",
    "star_deployment",
    "balanced_deployment",
    "chain_deployment",
]
