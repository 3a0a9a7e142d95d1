"""Deployment comparisons: predicted vs. measured, plan vs. plan.

These helpers produce the numbers the paper reports:

* Figures 3 and 5 compare the model's predicted maximum throughput with
  the measured one for each hierarchy — :func:`predicted_vs_measured`;
* Figures 6 and 7 rank alternative deployments of one pool —
  :func:`compare_deployments` (to plan *and* rank registry planners by
  name, use :meth:`repro.api.PlanningSession.rank`).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from repro.analysis.experiments import run_fixed_load
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import ParameterError

__all__ = [
    "ComparisonRow",
    "predicted_vs_measured",
    "compare_deployments",
]


@dataclass(frozen=True)
class ComparisonRow:
    """One deployment's predicted and measured performance."""

    label: str
    nodes: int
    agents: int
    servers: int
    height: int
    predicted: float
    measured: float

    @property
    def accuracy(self) -> float:
        """measured / predicted (1.0 = the model was exact)."""
        return self.measured / self.predicted if self.predicted else 0.0


def predicted_vs_measured(
    hierarchy: Hierarchy,
    params: ModelParams,
    app_work: float,
    clients: int,
    label: str = "",
    duration: float = 20.0,
    seed: int = 0,
) -> ComparisonRow:
    """Model prediction (Eq. 16) next to the DES measurement."""
    report = hierarchy_throughput(hierarchy, params, app_work)
    result = run_fixed_load(
        hierarchy, params, app_work, clients=clients,
        duration=duration, seed=seed,
    )
    n, a, s, h = hierarchy.shape_signature()
    return ComparisonRow(
        label=label or f"{n}-node deployment",
        nodes=n,
        agents=a,
        servers=s,
        height=h,
        predicted=report.throughput,
        measured=result.throughput,
    )


def compare_deployments(
    deployments: Mapping[str, Hierarchy],
    params: ModelParams,
    app_work: float,
    clients: int,
    duration: float = 20.0,
    seed: int = 0,
) -> list[ComparisonRow]:
    """Rank several deployments of the same pool under identical load.

    Returns rows sorted by measured throughput, best first.
    """
    if not deployments:
        raise ParameterError("no deployments to compare")
    rows = [
        predicted_vs_measured(
            hierarchy, params, app_work, clients=clients,
            label=label, duration=duration, seed=seed,
        )
        for label, hierarchy in deployments.items()
    ]
    rows.sort(key=lambda row: row.measured, reverse=True)
    return rows
