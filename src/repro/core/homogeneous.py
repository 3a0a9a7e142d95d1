"""Optimal planner for homogeneous pools (reference [10] of the paper).

Chouhan, Dail, Caron and Vivien ("Automatic middleware deployment planning
on clusters", IJHPCA 2006) prove that on a *homogeneous* cluster a
**complete spanning d-ary tree** maximizes steady-state throughput, so the
planning problem reduces to a one-dimensional search over the degree ``d``.

:class:`HomogeneousPlanner` performs that search with this paper's
throughput model (Eq. 16), additionally searching over the number of nodes
actually used — the proof's "spanning" assumption only holds once using a
node helps; for tiny request grains the optimum is one agent and one server
(the paper's Table 4 reports optimal degree 1 for DGEMM 10x10 precisely
because of this).

The planner is exact for homogeneous pools and serves as the reference
("Opt. Deg." / "Homo. Deg." columns of Table 4) against which the
heterogeneous heuristic is scored.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.baselines import dary_deployment
from repro.core.hierarchy import Hierarchy
from repro.core.kernels import HierarchyEvaluator
from repro.core.params import ModelParams
from repro.core.throughput import ThroughputReport
from repro.errors import PlanningError
from repro.platforms.pool import NodePool

__all__ = ["HomogeneousPlanner", "HomogeneousPlan"]

_REL_TOL = 1e-12


@dataclass(frozen=True)
class HomogeneousPlan:
    """Result of a homogeneous-optimal planning run.

    Attributes
    ----------
    hierarchy:
        The selected complete d-ary deployment.
    report:
        Model throughput breakdown for the selected deployment.
    degree:
        The d-ary degree of the selected tree (root degree for the
        degenerate 1-agent/1-server case, i.e. 1).
    nodes_used:
        Number of pool nodes in the deployment.
    """

    hierarchy: Hierarchy
    report: ThroughputReport
    degree: int
    nodes_used: int

    @property
    def throughput(self) -> float:
        return self.report.throughput


class HomogeneousPlanner:
    """Exhaustive degree search over complete spanning d-ary trees.

    Parameters
    ----------
    params:
        Calibrated model parameters.
    spanning_only:
        If True, always use the whole pool (the strict [10] setting).  If
        False (default), also search over using only the top ``k`` nodes,
        which dominates for small request grains.
    """

    def __init__(self, params: ModelParams, spanning_only: bool = False):
        self.params = params
        self.spanning_only = spanning_only
        # The degree sweep re-prices the same (power, degree) pairs across
        # candidate trees; the memoized evaluator computes each rate once.
        self._evaluator = HierarchyEvaluator(params)

    def plan(
        self,
        pool: NodePool,
        app_work: float,
        demand: float | None = None,
    ) -> HomogeneousPlan:
        """Select the best complete d-ary deployment for ``pool``.

        Parameters
        ----------
        app_work:
            Application work ``Wapp`` in MFlop (one value — the pool is
            homogeneous and so is the workload).
        demand:
            Optional client demand in requests/s.  When given, the cheapest
            deployment meeting the demand is preferred over a faster one
            (the paper's least-resources tie-break generalized to demand
            satisfaction).

        Raises
        ------
        PlanningError
            If the pool has fewer than two nodes.
        """
        if len(pool) < 2:
            raise PlanningError(
                f"planning needs >= 2 nodes, pool has {len(pool)}"
            )
        scored = self._scored_candidates(pool, app_work)
        chosen = None
        if demand is not None:
            satisfying = [c for c in scored if c[0] >= demand]
            if satisfying:
                chosen = min(satisfying, key=lambda c: (c[1], c[2]))
        if chosen is None:
            chosen = max(scored, key=lambda c: (c[0], -c[1], -c[2]))
        _, nodes_used, degree, hierarchy = chosen
        # The sweep keeps each candidate's rho only; the winner's report
        # comes from the warm caches.
        report = self._evaluator.evaluate(hierarchy, app_work, validate=False)
        return HomogeneousPlan(
            hierarchy=hierarchy,
            report=report,
            degree=degree,
            nodes_used=nodes_used,
        )

    # ------------------------------------------------------------------ #

    def _scored_candidates(
        self, pool: NodePool, app_work: float
    ) -> list[tuple[float, int, int, Hierarchy]]:
        """(rho, nodes_used, realized degree, hierarchy) per candidate tree.

        The sweep scores every (size, degree) shape with the memoized
        evaluator; :meth:`plan` keeps the winner's full report.
        """
        sizes = (
            [len(pool)]
            if self.spanning_only
            else list(range(2, len(pool) + 1))
        )
        scored: list[tuple[float, int, int, Hierarchy]] = []
        seen_shapes: set[tuple[int, int]] = set()
        for size in sizes:
            sub = pool.take(size)
            # Degree 1 degenerates to the 2-node pair (see dary_deployment),
            # which is not spanning; exclude it in spanning-only mode.
            min_degree = 2 if (self.spanning_only and size > 2) else 1
            for degree in range(min_degree, size):
                if (size, degree) in seen_shapes:
                    continue
                seen_shapes.add((size, degree))
                hierarchy = dary_deployment(sub, degree)
                rho = self._evaluator.evaluate(
                    hierarchy, app_work, validate=False
                ).throughput
                # Repair can collapse near-star trees (e.g. d = n-2) into an
                # actual star; report the realized root degree in that case
                # so "degree" always describes the built hierarchy.
                realized = (
                    hierarchy.degree(hierarchy.root)
                    if hierarchy.agent_count == 1
                    else degree
                )
                scored.append((rho, len(hierarchy), realized, hierarchy))
        return scored
