"""Per-pool kernel arrays and memoized hierarchy evaluation.

This is the performance layer under every planner.  The scalar model
functions in :mod:`repro.core.throughput` define the per-node rates
(Eqs. 11–15); this module memoizes the per-node quantities the planners
probe over and over:

* :class:`NodeArrays` — per-node model constants for a ranked node list,
  precomputed once per (nodes, params) pair and sliced by the fixed-point
  solver instead of re-deriving them per probe, plus the per-tier rho
  ceiling that lets the solver skip tiers unsolved and the per-agent slot
  terms its bisection re-sums;
* :class:`HierarchyEvaluator` — the one Eq. 14–16 walk over a hierarchy,
  which :func:`~repro.core.throughput.hierarchy_throughput` reports
  through: per-node rates are cached by ``(power, degree)``, service
  rates by server-power tuple, so evaluating a candidate hierarchy
  recomputes only what changed.

Every vectorized quantity is defined by the *same* floating-point
expression as its scalar counterpart, and every cached one is computed
by the scalar function itself, so planners wired through this layer
return bit-identical deployments.  NumPy is a hard dependency: vector
passes run on NumPy arrays, and the scalar paths read Python-list copies
of the same values.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.core.hierarchy import Hierarchy, NodeId, Role
from repro.core.params import ModelParams
from repro.core.throughput import (
    ThroughputReport,
    agent_sched_throughput,
    resolve_app_work_list,
    server_sched_throughput,
    service_throughput,
)
from repro.errors import ParameterError

if TYPE_CHECKING:  # pragma: no cover
    from repro.platforms.node import Node

__all__ = ["NodeArrays", "HierarchyEvaluator"]

#: Relative tolerance of the supported-children floor and of the
#: fixed-point solver's feasibility tests.
_REL_TOL = 1e-9


def _check_powers(powers: Sequence[float]) -> None:
    for power in powers:
        if not 0.0 < power < math.inf:
            raise ParameterError(
                f"power must be finite and > 0, got {power}"
            )


def _agent_rate_constants(params: ModelParams, degree: int) -> tuple[float, float]:
    """(numerator MFlop, communication seconds) of the agent rate at ``degree``.

    Mirrors ``agent_comp_time`` + ``agent_comm_time`` exactly: the work term
    is ``Wreq + (Wfix + Wsel*d)`` and the communication term is Eq. 1 + Eq. 2
    evaluated with the agent-level sizes.
    """
    if degree < 1:
        raise ParameterError(f"an agent needs >= 1 child, got degree={degree}")
    work = params.wreq + params.wrep(degree)
    sizes = params.agent_sizes
    comm = (sizes.sreq + degree * sizes.srep) / params.bandwidth + (
        degree * sizes.sreq + sizes.srep
    ) / params.bandwidth
    return work, comm


# ---------------------------------------------------------------------- #
# per-pool constant arrays for the fixed-point solver


class NodeArrays:
    """Per-node model constants for a ranked node list, computed once.

    The fixed-point heuristic probes hundreds of agent/server splits of the
    same ranking; every probe needs the same five per-node quantities.  This
    precomputes them as NumPy arrays so a probe is slicing plus a handful
    of vector ops instead of ``O(n)`` re-derivations per bisection step.

    Attributes
    ----------
    powers:
        Node computing powers, ranking order.
    sched_deg1 / sched_deg2:
        Agent scheduling rate at degree 1 / 2 (the ``t_hi`` feasibility
        bounds of the solver).
    fixed, per_child:
        The ``a`` and ``b`` of the supported-children closed form
        ``rate = 1 / (a + b*d)`` (see ``supported_children``).
    server_rate:
        Server scheduling rate (the Eq. 14 first operand).
    """

    #: Agent-tier size above which ``slot_total`` switches from the scalar
    #: early-exit loop to one vectorized pass (below it, per-call NumPy
    #: dispatch overhead exceeds the arithmetic it saves).
    VECTOR_TIER = 160

    __slots__ = (
        "params",
        "n",
        "powers",
        "sched_deg1",
        "sched_deg2",
        "fixed",
        "per_child",
        "server_rate",
        "_fixed_list",
        "_per_child_list",
    )

    def __init__(self, params: ModelParams, powers: Sequence[float]):
        _check_powers(powers)
        self.params = params
        self.n = len(powers)
        work1, comm1 = _agent_rate_constants(params, 1)
        work2, comm2 = _agent_rate_constants(params, 2)
        fixed_work = params.agent_fixed_work
        base_comm = params.agent_comm_base
        child_comm = params.agent_child_comm
        server_comm = params.server_comm
        # Python lists are the authoritative store (plain floats, exactly
        # the scalar expressions); the arrays wrap the same values, so the
        # scalar and vector passes read identical bits.
        power_list = [float(p) for p in powers]
        self._fixed_list = [fixed_work / p + base_comm for p in power_list]
        self._per_child_list = [params.wsel / p + child_comm for p in power_list]
        self.powers = np.asarray(power_list, dtype=np.float64)
        self.sched_deg1 = np.asarray(
            [1.0 / (work1 / p + comm1) for p in power_list], dtype=np.float64
        )
        self.sched_deg2 = np.asarray(
            [1.0 / (work2 / p + comm2) for p in power_list], dtype=np.float64
        )
        self.fixed = np.asarray(self._fixed_list, dtype=np.float64)
        self.per_child = np.asarray(self._per_child_list, dtype=np.float64)
        self.server_rate = np.asarray(
            [1.0 / (params.wpre / p + server_comm) for p in power_list],
            dtype=np.float64,
        )

    @classmethod
    def for_nodes(cls, params: ModelParams, nodes: Sequence["Node"]) -> "NodeArrays":
        return cls(params, [node.power for node in nodes])

    # ------------------------------------------------------------------ #

    def select(self, indices: Sequence[int] | slice):
        """(powers, fixed, per_child, server_rate) restricted to ``indices``."""
        if not isinstance(indices, slice):
            indices = np.asarray(indices, dtype=np.intp)
        return (
            self.powers[indices],
            self.fixed[indices],
            self.per_child[indices],
            self.server_rate[indices],
        )

    def min_sched_deg2(self, lo: int, hi: int) -> float:
        """``min(sched_deg2[lo:hi])`` (``inf`` on an empty range)."""
        if hi <= lo:
            return math.inf
        return float(np.min(self.sched_deg2[lo:hi]))

    def slot_total(
        self, lo: int, hi: int, target_rate: float, clip: int
    ) -> int:
        """Total supported children over the agent tier ``[lo, hi)``.

        ``sum(min(supported_children(params, w, t), clip))`` over the tier,
        with each term defined exactly as the scalar function.  Once the
        running total exceeds ``clip`` the exact remainder is irrelevant to
        every caller (they clamp to the candidate budget), so the scalar
        loop may return early; the vector pass returns the full sum — both
        land on the same value after the caller's clamp.
        """
        inverse = 1.0 / target_rate
        fixed = self._fixed_list
        per_child = self._per_child_list
        total = 0
        # Peel the leading agents scalar-style: the ranking is
        # power-descending, so the strongest agents usually exhaust the
        # clip budget within a step or two — no vector dispatch needed.
        peel = hi if (hi - lo) < self.VECTOR_TIER else lo + 2
        i = lo
        while i < peel:
            budget = inverse - fixed[i]
            b = per_child[i]
            if budget < b:
                # The ranking is power-descending, so the per-node terms
                # are non-increasing: every later term is zero as well.
                return total
            # budget/b >= 1, so truncation is floor.
            slots = int(budget / b + _REL_TOL)
            if slots > clip:
                slots = clip
            total += slots
            if total > clip:
                return total
            i += 1
        if i == hi:
            return total
        budget = inverse - self.fixed[i:hi]
        per = self.per_child[i:hi]
        slots = np.floor(budget / per + _REL_TOL)
        slots = np.where(budget < per, 0.0, np.minimum(slots, float(clip)))
        # Each term is an integer in [0, clip]; the float sum is exact.
        return total + int(float(np.sum(slots)))

    def live_terms(
        self, lo: int, hi: int, t_lo: float, t_hi: float, clip: int
    ) -> tuple[int, list[tuple[float, float, int, int]]]:
        """The agents of tier ``[lo, hi)`` whose slot terms differ between
        targets ``t_lo < t_hi``, as ``(base, live)``.

        A term is ``0 if budget < b else min(int(budget / b + _REL_TOL),
        clip)`` with ``budget = 1 / t - fixed`` and ``b = per_child``: the
        operation sequence of both ``slot_total`` passes without the early
        exits.  On a power-descending tier the terms sum to ``slot_total``
        up to ``clip`` and both exceed it together, so callers that clamp
        to ``clip`` read the same count.  Each term is non-increasing in
        the target, so it cannot change between two targets where it is
        equal: ``base`` sums those, and ``live`` holds a ``(fixed,
        per_child, lo_term, hi_term)`` entry for each of the others.
        """
        fixed = self._fixed_list
        per_child = self._per_child_list
        inv_lo, inv_hi = 1.0 / t_lo, 1.0 / t_hi
        base = 0
        live = []
        for i in range(lo, hi):
            f, b = fixed[i], per_child[i]
            lo_budget, hi_budget = inv_lo - f, inv_hi - f
            lo_term = (
                0 if lo_budget < b
                else min(int(lo_budget / b + _REL_TOL), clip)
            )
            hi_term = (
                0 if hi_budget < b
                else min(int(hi_budget / b + _REL_TOL), clip)
            )
            if lo_term == hi_term:
                base += lo_term
            else:
                live.append((f, b, lo_term, hi_term))
        return base, live

    def service_ceiling(
        self, prefix_power, server_rate, k_min: int, k_cap: int, app_work: float
    ) -> float:
        """``max(min(service(k), server_rate[k-1]))`` over ``k_min..k_cap``.

        ``service(k)`` is Eq. 15 over the ``k`` fastest candidates of a
        ``prefix_powers`` selection, in the fixed-point solver's exact
        operation order, so the result bounds every rho a solve over these
        candidates can return bit for bit.
        """
        comm = self.params.service_comm
        wpre = self.params.wpre
        k = np.arange(k_min, k_cap + 1, dtype=np.float64)
        pred = k * wpre / app_work
        rate = prefix_power[k_min : k_cap + 1] / app_work
        service = 1.0 / (comm + (1.0 + pred) / rate)
        floor = server_rate[k_min - 1 : k_cap]
        return float(np.max(np.minimum(service, floor)))

    def prefix_powers(self, powers) -> np.ndarray:
        """``[0, p0, p0+p1, ...]`` running sums of a power selection."""
        prefix = np.empty(len(powers) + 1, dtype=np.float64)
        prefix[0] = 0.0
        np.cumsum(powers, out=prefix[1:])
        return prefix


# ---------------------------------------------------------------------- #
# memoizing hierarchy evaluation


class HierarchyEvaluator:
    """Caches per-node rates so repeated candidate evaluations are cheap.

    One evaluator serves one parameter set.  Planners that score many
    candidate hierarchies over the same pool (the homogeneous degree sweep,
    the incremental heuristic, the exhaustive reference) share agent rates
    keyed by ``(power, degree)``, server rates keyed by power, and service
    rates keyed by the server-power tuple — a candidate change re-prices
    only the nodes it touched.

    :meth:`evaluate` is the only Eq. 14–16 walk in the package; a cache
    miss prices a node with the scalar functions of
    :mod:`repro.core.throughput`, so a warm report equals a cold one bit
    for bit.
    """

    #: Cap on each rate cache, cleared wholesale when full.  The service
    #: cache is keyed by whole server-power tuples, which the incremental
    #: heuristic's growing trials never repeat (O(n^2) floats per planned
    #: pool without a bound); the scalar-keyed caches only grow past this
    #: for planners reused across many continuous-power pools, but a
    #: long-lived process must not accumulate them forever either.
    SERVICE_CACHE_MAX = 4096
    RATE_CACHE_MAX = 65536

    __slots__ = (
        "params",
        "_agent_rates",
        "_server_rates",
        "_service_rates",
        "hits",
        "misses",
    )

    def __init__(self, params: ModelParams):
        self.params = params
        self._agent_rates: dict[tuple[float, int], float] = {}
        self._server_rates: dict[float, float] = {}
        self._service_rates: dict[tuple, float] = {}
        #: Cache lookups answered from a cache / recomputed — observability
        #: counters (``repro.obs`` feeds per-epoch hit rates from them).
        self.hits = 0
        self.misses = 0

    # -- cached scalar rates ------------------------------------------- #

    def agent_rate(self, power: float, degree: int) -> float:
        """Cached :func:`~repro.core.throughput.agent_sched_throughput`."""
        key = (power, degree)
        rate = self._agent_rates.get(key)
        if rate is None:
            self.misses += 1
            rate = agent_sched_throughput(self.params, power, degree)
            if len(self._agent_rates) >= self.RATE_CACHE_MAX:
                self._agent_rates.clear()
            self._agent_rates[key] = rate
        else:
            self.hits += 1
        return rate

    def server_rate(self, power: float) -> float:
        """Cached :func:`~repro.core.throughput.server_sched_throughput`."""
        rate = self._server_rates.get(power)
        if rate is None:
            self.misses += 1
            rate = server_sched_throughput(self.params, power)
            if len(self._server_rates) >= self.RATE_CACHE_MAX:
                self._server_rates.clear()
            self._server_rates[power] = rate
        else:
            self.hits += 1
        return rate

    def service_rate(
        self, powers: Sequence[float], app_works: Sequence[float]
    ) -> float:
        """Cached :func:`~repro.core.throughput.service_throughput`."""
        key = (tuple(powers), tuple(app_works))
        rate = self._service_rates.get(key)
        if rate is None:
            self.misses += 1
            rate = service_throughput(self.params, powers, app_works)
            if len(self._service_rates) >= self.SERVICE_CACHE_MAX:
                self._service_rates.clear()
            self._service_rates[key] = rate
        else:
            self.hits += 1
        return rate

    # -- whole-hierarchy evaluation ------------------------------------ #

    def _walk(
        self, hierarchy: Hierarchy
    ) -> tuple[dict[NodeId, float], NodeId, list[NodeId], list[float]]:
        """One BFS pass: (rates, limiting node, servers BFS-ordered, powers).

        Reads the hierarchy's internal maps directly — this is the hottest
        loop of every candidate-sweeping planner, and the attribute/BFS
        overhead of the public accessors triples its cost.
        """
        role_map = hierarchy._role
        power_map = hierarchy._power
        children_map = hierarchy._children
        agent_rates = self._agent_rates
        server_rates = self._server_rates
        agent = Role.AGENT  # an enum member lookup per node is not free
        rates: dict[NodeId, float] = {}
        server_nodes: list[NodeId] = []
        server_powers: list[float] = []
        queue: list[NodeId] = [hierarchy.root]
        index = 0
        hits = 0
        # Track the minimum on the fly; like min(), ties keep the first
        # BFS-encountered node.
        limiting = queue[0]
        limit_rate = math.inf
        while index < len(queue):
            node = queue[index]
            index += 1
            power = power_map[node]
            if role_map[node] is agent:
                children = children_map[node]
                queue.extend(children)
                key = (power, len(children))
                rate = agent_rates.get(key)
                if rate is None:
                    rate = self.agent_rate(power, len(children))
                else:
                    hits += 1
            else:
                rate = server_rates.get(power)
                if rate is None:
                    rate = self.server_rate(power)
                else:
                    hits += 1
                server_nodes.append(node)
                server_powers.append(power)
            rates[node] = rate
            if rate < limit_rate:
                limit_rate = rate
                limiting = node
        self.hits += hits
        return rates, limiting, server_nodes, server_powers

    def evaluate(
        self,
        hierarchy: Hierarchy,
        app_work,
        validate: bool = True,
    ) -> ThroughputReport:
        """Eq. 16 — the completed-request throughput report of ``hierarchy``.

        ``validate=False`` skips the structural re-check for hierarchies a
        planner just built itself.
        """
        if validate:
            hierarchy.validate(strict=False)
        try:
            rates, limiting, servers, powers = self._walk(hierarchy)
        except ParameterError:
            # A tree without servers ends in a childless agent, which the
            # walk refuses before it could count servers: name the cause.
            if not hierarchy.servers:
                raise ParameterError(
                    "deployment has no servers; throughput undefined"
                ) from None
            raise
        sched = rates[limiting]
        works = resolve_app_work_list(servers, app_work)
        service = self.service_rate(powers, works)
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

    def cache_info(self) -> dict[str, int]:
        """Cache sizes plus cumulative hit/miss counts (diagnostics for
        tests, benchmarks and the per-epoch cache-hit-rate metric)."""
        return {
            "agent_rates": len(self._agent_rates),
            "server_rates": len(self._server_rates),
            "service_rates": len(self._service_rates),
            "hits": self.hits,
            "misses": self.misses,
        }
