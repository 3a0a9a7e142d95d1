"""The heterogeneous deployment heuristic — Algorithm 1 of the paper.

The heuristic builds a hierarchy from a pool of nodes sorted by scheduling
power (``sort_nodes``).  Its driving quantities are the paper's

* ``calc_sch_pow(node, d)`` — the scheduling rate of a node acting as an
  agent with ``d`` children (strictly decreasing in ``d``), and
* ``calc_hier_ser_pow(servers)`` — the service rate of a server set
  (Eq. 15), increasing as servers are added.

Algorithm 1 alternates between adding servers ("while scheduling power
exceeds service power") and adding scheduling capacity (converting servers
to agents with ``shift_nodes``, each new agent taking children up to the
number it *supports*), stopping when demand is met, nodes run out, or
throughput starts decreasing.  The loop therefore converges to a balance
point: a scheduling rate ``t`` such that, giving every agent as many
children as it supports at rate ``t``, the servers filling those child
slots deliver a service power equal to ``t``.

This module implements two strategies:

``fixed_point`` (default)
    Solves for the balance point directly.  For each candidate agent count
    ``A`` (the ``A`` fastest nodes become agents), a binary search finds
    the scheduling target ``t`` where the service power of the servers
    that fit into the agents' supported child slots crosses ``t``; the
    best ``A`` wins and the hierarchy is materialized by capacity-filling.
    This is the deterministic fixed point the paper's interleaved loops
    approach, and it inherits the paper's boundary behaviour exactly: one
    agent + one server for tiny request grains (Step 6), a spanning star
    when service power never catches scheduling power.

    The sweep skips work it can prove redundant, so the chosen tier and
    its target are the same bits as solving every tier in full.  A tier
    whose rho ceiling ``min(t_hi, max_k min(service(k), floor(k)))`` lies
    strictly below the best rho so far (and, with a demand, below
    ``demand - _REL_TOL``) can win neither selection rule, and is not
    solved.  Tier ceilings never rise with ``A`` at offset 0, so the
    ``fastest`` sweep ends at the first tier skipped that way.  Inside a
    solve, the server count ``k(t)`` never increases with ``t``, so once
    both bisection ends share one ``k`` every midpoint has it, and the
    remaining steps need no slot count.  Before that, each agent's own
    slot term is monotone as well, so a midpoint re-sums only the agents
    whose terms still differ between the two ends; once that is one agent
    one slot apart, its exact jump point settles every later midpoint in
    one comparison.

``incremental``
    A literal greedy reading of the pseudo-code: grow one node at a time,
    each step choosing between attaching a server and promoting the
    strongest server to an agent, with best-snapshot rollback.  Kept for
    ablation (benchmarks compare both).

The interpretation choices (the strategy, promotion and agent selection,
each ablated in ``benchmarks/bench_ablation_planner.py``) are documented
on :class:`HeuristicPlanner`.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.hierarchy import Hierarchy, NodeId
from repro.core.kernels import _REL_TOL, HierarchyEvaluator, NodeArrays
from repro.core.params import ModelParams
from repro.core.throughput import (
    ThroughputReport,
    agent_sched_throughput,
    service_throughput,
)
from repro.errors import PlanningError
from repro.platforms.node import Node
from repro.platforms.pool import NodePool

__all__ = [
    "calc_sch_pow",
    "calc_hier_ser_pow",
    "sort_nodes",
    "supported_children",
    "PlanStep",
    "HeuristicPlan",
    "HeuristicPlanner",
]

STRATEGIES = ("fixed_point", "incremental")


def check_heuristic_options(
    strategy: str, patience: int, agent_selection: str
) -> None:
    """Validate the heuristic's options; raise :class:`PlanningError`.

    The one home of these checks: :class:`HeuristicPlanner` and the
    registry's ``HeuristicOptions`` both call it.
    """
    if strategy not in STRATEGIES:
        raise PlanningError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if patience < 1:
        raise PlanningError(f"patience must be >= 1, got {patience}")
    if agent_selection not in ("fastest", "windowed"):
        raise PlanningError(
            f"unknown agent_selection {agent_selection!r}; "
            "expected 'fastest' or 'windowed'"
        )


def calc_sch_pow(params: ModelParams, power: float, children: int) -> float:
    """Scheduling power of a node acting as an agent with ``children`` children.

    Paper procedure ``calc_sch_pow`` (Table 1); identical to
    :func:`repro.core.throughput.agent_sched_throughput`.
    """
    return agent_sched_throughput(params, power, children)


def calc_hier_ser_pow(
    params: ModelParams, server_powers: list[float], app_work: float
) -> float:
    """Service power of a hierarchy whose servers have ``server_powers``.

    Paper procedure ``calc_hier_ser_pow`` (Table 1): the rate at which the
    server set completes application requests when load is split in the
    steady-state proportions (Eq. 15).
    """
    return service_throughput(
        params, server_powers, [app_work] * len(server_powers)
    )


@lru_cache(maxsize=256)
def _sort_nodes_cached(
    node_key: tuple[tuple[str, float, float, float], ...],
    params: ModelParams,
) -> tuple[Node, ...]:
    """Memoized body of :func:`sort_nodes`, keyed by full node identity."""
    nodes = tuple(
        Node(power=power, name=name, base_power=base, background_load=load)
        for name, power, base, load in node_key
    )
    children = max(1, len(nodes) - 1)
    return tuple(
        sorted(
            nodes,
            key=lambda n: (calc_sch_pow(params, n.power, children), n.name),
            reverse=True,
        )
    )


def sort_nodes(pool: NodePool, params: ModelParams) -> list[Node]:
    """Paper procedure ``sort_nodes``: rank nodes by agent suitability.

    Nodes are ordered by descending ``calc_sch_pow`` with ``n_nodes - 1``
    children (Steps 1–2 of Algorithm 1); with a common parameter set this
    coincides with descending computing power, ties broken by name for
    determinism.  The ranking is memoized per (pool contents, params) so
    repeated planner probes of one pool sort only once.
    """
    node_key = tuple(
        (n.name, n.power, n.base_power, n.background_load) for n in pool
    )
    return list(_sort_nodes_cached(node_key, params))


def supported_children(
    params: ModelParams, power: float, target_rate: float
) -> int:
    """Largest degree at which a node still schedules at ``target_rate``.

    The agent rate is ``1 / (a + b*d)`` with

    * ``a = (Wreq + Wfix)/w + (Sreq + Srep)/B`` (degree-independent), and
    * ``b = Wsel/w + (Srep + Sreq)/B`` (per-child cost),

    so the supported child count is ``floor((1/target - a) / b)``.  Returns
    0 when the node cannot even sustain one child at the target rate.
    """
    if target_rate <= 0.0:
        raise PlanningError(f"target_rate must be > 0, got {target_rate}")
    fixed = params.agent_fixed_work / power + params.agent_comm_base
    per_child = params.wsel / power + params.agent_child_comm
    budget = 1.0 / target_rate - fixed
    if budget < per_child:
        return 0
    return int(math.floor(budget / per_child + _REL_TOL))


#: :meth:`HeuristicPlanner._solve_for_agents` outcome for a tier skipped
#: unsolved because its rho ceiling lies strictly below the sweep's bar
#: (``None`` means the tier is infeasible).
_BELOW_BAR = "below bar"

#: Half-width, in ulps, of the bracket :func:`_jump_threshold` tries
#: around its closed form before it bisects the whole float grid.
_THRESHOLD_ULPS = 4


def _jump_threshold(
    fixed: float, per_child: float, lo_term: int, lo: float, hi: float
) -> float:
    """The least float in ``(lo, hi]`` at which an agent's slot term drops
    below ``lo_term``, its term at ``lo`` (its term at ``hi`` is lower).

    The term at ``t`` is ``0 if budget < b else min(int(budget / b +
    _REL_TOL), clip)`` with ``budget = 1.0 / t - fixed`` and ``b =
    per_child``.  As ``lo_term <= clip``, it is below ``lo_term`` exactly
    when ``below(t)``.  Every IEEE step of the term is monotone in ``t``,
    so ``below`` is false up to one float and true from it on.  The
    closed form ``1 / (fixed + (lo_term - _REL_TOL) * b)`` (``budget =
    b`` for ``lo_term == 1``, the zero term's jump) lands within a few
    ulps of it, so a bisection over the float grid first narrows ``(lo,
    hi]`` to ``_THRESHOLD_ULPS`` either side of it, on each side where
    that keeps the jump inside.
    """

    def below(t: float) -> bool:
        budget = 1.0 / t - fixed
        return (
            budget < per_child
            or int(budget / per_child + _REL_TOL) < lo_term
        )

    # Positive floats order like their bit patterns.
    good, bad = _float_bits(lo), _float_bits(hi)
    guess = _float_bits(
        1.0 / (fixed + max(lo_term - _REL_TOL, 1.0) * per_child)
    )
    near = guess - _THRESHOLD_ULPS
    if good < near < bad and not below(_bits_float(near)):
        good = near
    near = guess + _THRESHOLD_ULPS
    if good < near < bad and below(_bits_float(near)):
        bad = near
    while bad - good > 1:
        mid = (good + bad) // 2
        if below(_bits_float(mid)):
            bad = mid
        else:
            good = mid
    return _bits_float(bad)


def _float_bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<q", bits))[0]


@dataclass(frozen=True)
class PlanStep:
    """One growth step of the incremental strategy, for tracing/ablation."""

    action: str  # "root", "server", "promote", "stop"
    node: NodeId | None
    parent: NodeId | None
    throughput: float
    detail: str = ""


@dataclass(frozen=True)
class HeuristicPlan:
    """Result of a heuristic planning run."""

    hierarchy: Hierarchy
    report: ThroughputReport
    strategy: str = "fixed_point"
    steps: tuple[PlanStep, ...] = field(repr=False, default=())
    demand: float | None = None

    @property
    def throughput(self) -> float:
        return self.report.throughput

    @property
    def nodes_used(self) -> int:
        return len(self.hierarchy)

    def describe(self) -> str:
        shape = self.hierarchy.shape_signature()
        demand = "unbounded" if self.demand is None else f"{self.demand:g} req/s"
        return (
            f"HeuristicPlan[{self.strategy}]: rho={self.throughput:.2f} req/s "
            f"({self.report.bottleneck}-bound), nodes={shape[0]} "
            f"(agents={shape[1]}, servers={shape[2]}, height={shape[3]}), "
            f"demand={demand}"
        )


class HeuristicPlanner:
    """Automatic deployment planner for heterogeneous pools (Algorithm 1).

    Parameters
    ----------
    params:
        Calibrated model parameters (Table 3 defaults).
    strategy:
        ``"fixed_point"`` (default) or ``"incremental"`` — see the module
        docstring.
    patience:
        Incremental strategy only: consecutive non-improving growth steps
        tolerated before stopping (``1`` reproduces the paper's literal
        stop-at-first-decrease).
    allow_promotion:
        Incremental strategy only: with ``False`` the planner never runs
        ``shift_nodes`` and can only grow a star — an ablation isolating
        the value of multi-level hierarchies.
    agent_selection:
        Fixed-point strategy only.  ``"fastest"`` (default) takes the top
        of the sorted node list as agents, exactly as Algorithm 1's
        ``sort_nodes`` prescribes.  ``"windowed"`` additionally tries
        windows of *slower* nodes as the agent tier: when the workload is
        service-bound, spending the fastest nodes on scheduling wastes
        them, and the paper's policy can lose unboundedly on adversarial
        pools (e.g. one very fast node plus one slow one).  This is an
        extension beyond the paper, benchmarked in the ablation suite.
    """

    def __init__(
        self,
        params: ModelParams,
        strategy: str = "fixed_point",
        patience: int = 4,
        allow_promotion: bool = True,
        agent_selection: str = "fastest",
    ):
        check_heuristic_options(strategy, patience, agent_selection)
        self.params = params
        self.strategy = strategy
        self.patience = patience
        self.allow_promotion = allow_promotion
        self.agent_selection = agent_selection
        # Per-planner memoized evaluator: rates survive across plan() calls
        # (they depend only on params) and across incremental growth steps.
        self._evaluator = HierarchyEvaluator(params)

    # ------------------------------------------------------------------ #
    # public API

    def plan(
        self,
        pool: NodePool,
        app_work: float,
        demand: float | None = None,
    ) -> HeuristicPlan:
        """Build a deployment for ``pool`` running an ``app_work`` service.

        Parameters
        ----------
        app_work:
            Application work ``Wapp`` in MFlop.
        demand:
            Client demand in requests/s; growth stops at the cheapest
            deployment meeting it.  ``None`` maximizes throughput.

        Raises
        ------
        PlanningError
            If the pool has fewer than two nodes.
        """
        if len(pool) < 2:
            raise PlanningError(
                f"planning needs >= 2 nodes, pool has {len(pool)}"
            )
        if app_work <= 0.0:
            raise PlanningError(f"app_work must be > 0, got {app_work}")
        if demand is not None and demand <= 0.0:
            raise PlanningError(f"demand must be > 0, got {demand}")
        ranked = sort_nodes(pool, self.params)

        early = self._early_exit(ranked, app_work, demand)
        if early is not None:
            return early
        if self.strategy == "fixed_point":
            return self._plan_fixed_point(ranked, app_work, demand)
        return self._plan_incremental(ranked, app_work, demand)

    # ------------------------------------------------------------------ #
    # Steps 3-7: the degenerate 1-agent/1-server case

    def _early_exit(
        self, ranked: list[Node], app_work: float, demand: float | None
    ) -> HeuristicPlan | None:
        params = self.params
        root, first = ranked[0], ranked[1]
        vir_max_sch_pow = calc_sch_pow(params, root.power, 1)
        vir_max_ser_pow = calc_hier_ser_pow(params, [first.power], app_work)
        min_ser_cv = (
            vir_max_ser_pow if demand is None else min(vir_max_ser_pow, demand)
        )
        if vir_max_sch_pow >= min_ser_cv:
            return None
        hierarchy = Hierarchy()
        hierarchy.set_root(root.name, root.power)
        hierarchy.add_server(first.name, first.power, root.name)
        report = self._evaluator.evaluate(hierarchy, app_work, validate=False)
        step = PlanStep(
            "stop", None, None, report.throughput,
            "scheduling-bound at degree 1: 1 agent + 1 server",
        )
        return HeuristicPlan(
            hierarchy=hierarchy,
            report=report,
            strategy=self.strategy,
            steps=(step,),
            demand=demand,
        )

    # ------------------------------------------------------------------ #
    # fixed-point strategy

    def _agent_windows(self, n: int, n_agents: int) -> list[int]:
        """Starting offsets of the agent window within the sorted nodes.

        The paper's policy is offset 0 (the fastest nodes become agents).
        The ``windowed`` extension also tries pushing the agent tier down
        the ranking, freeing the fastest nodes to serve.
        """
        if self.agent_selection == "fastest":
            return [0]
        last = n - n_agents
        raw = {0, last, last // 4, last // 2, (3 * last) // 4, 1, 2}
        return sorted(o for o in raw if 0 <= o <= last)

    def _plan_fixed_point(
        self, ranked: list[Node], app_work: float, demand: float | None
    ) -> HeuristicPlan:
        rho, used, n_agents, offset, target = self._sweep(
            ranked, app_work, demand
        )
        agents = ranked[offset : offset + n_agents]
        candidates = ranked[:offset] + ranked[offset + n_agents :]
        hierarchy = self._materialize(
            agents, candidates[: used - n_agents], target
        )
        self._repair(hierarchy)
        hierarchy.validate(strict=True)
        report = self._evaluator.evaluate(hierarchy, app_work, validate=False)
        return HeuristicPlan(
            hierarchy=hierarchy,
            report=report,
            strategy="fixed_point",
            steps=(),
            demand=demand,
        )

    def _sweep(
        self, ranked: list[Node], app_work: float, demand: float | None
    ) -> tuple[float, int, int, int, float]:
        """The chosen ``(rho, used, n_agents, offset, target)`` tier.

        The best tier maximizes ``(rho, -used)``; with a demand, the
        cheapest tier meeting it wins instead.  ``bar`` is the rho a tier
        must reach to win either rule; :meth:`_solve_for_agents` skips a
        tier whose ceiling is strictly below it.

        With ``fastest`` selection over a power-descending ranking, the
        first such skip ends the sweep.  Tier A's ceiling never rises with
        A: ``t_hi`` is a minimum over a growing set, the candidates
        ``ranked[A+1:]`` are element-wise no faster than ``ranked[A:]`` (and
        the prefix sums, Eq. 15 and the server rates are IEEE-monotone in
        them), and the k range ``[k_min, k_cap]`` only narrows.  ``bar``
        never falls, so every later tier would be skipped as well.  An
        infeasible tier (``None``) proves nothing and does not stop it.
        """
        n = len(ranked)
        # Per-node model constants, computed once and sliced per probe.
        arrays = NodeArrays.for_nodes(self.params, ranked)
        stops = self.agent_selection == "fastest" and all(
            a.power >= b.power for a, b in zip(ranked, ranked[1:])
        )
        best: tuple[float, int, int, int, float] | None = None
        cheapest: tuple[float, int, int, int, float] | None = None
        bar = -math.inf
        tiers = (
            (n_agents, offset)
            for n_agents in range(1, max(1, n // 2) + 1)
            for offset in self._agent_windows(n, n_agents)
        )
        for n_agents, offset in tiers:
            solved = self._solve_for_agents(
                arrays, offset, n_agents, app_work, demand, bar
            )
            if solved is _BELOW_BAR and stops:
                break
            if solved is None or solved is _BELOW_BAR:
                continue
            rho, n_servers, target = solved
            used = n_agents + n_servers
            entry = (rho, used, n_agents, offset, target)
            if best is None or (rho, -used) > (best[0], -best[1]):
                best = entry
                # ceiling < bar  <=>  ceiling < best rho and (no
                # demand or ceiling < demand - _REL_TOL).
                bar = rho if demand is None else min(rho, demand - _REL_TOL)
            if demand is not None and rho >= demand - _REL_TOL:
                if cheapest is None or used < cheapest[1]:
                    cheapest = entry
        if best is None:
            raise PlanningError("no feasible agent/server split found")
        return cheapest if cheapest is not None else best

    def _solve_for_agents(
        self,
        arrays: NodeArrays,
        offset: int,
        n_agents: int,
        app_work: float,
        demand: float | None,
        bar: float = -math.inf,
    ) -> tuple[float, int, float] | str | None:
        """Best (rho, n_servers, target_rate) for a fixed agent tier.

        The agent tier is ``ranked[offset : offset + n_agents]``; every
        other ranked node is a server candidate.  Binary-searches the
        scheduling target ``t``: lowering ``t`` lets every agent support
        more children, admitting more servers and raising service power.
        The optimum is where service power crosses ``t`` (or a boundary:
        all nodes used / minimum feasible servers).  All per-node rates
        come from the precomputed ``arrays``, so one probe is a few
        vector ops per bisection step.

        Returns ``None`` for an infeasible tier and ``_BELOW_BAR`` for one
        skipped by the ceiling rule below.

        Exact shortcuts skip work without changing any midpoint, any
        feasibility outcome or any result:

        * Ceiling skip.  Every rho this solve can return is
          ``min(t, service(k), floor(k))`` with ``t <= t_hi`` and
          ``k_min <= k <= k_cap``, so it is at most ``min(t_hi, max_k
          min(service(k), floor(k)))``, computed with the same operations
          (``NodeArrays.service_ceiling``).  When that ceiling is strictly
          below ``bar`` the tier can win neither the best nor the demand
          rule of :meth:`_sweep`, and ``_BELOW_BAR`` is returned unsolved.
        * Monotone early stop.  :meth:`_sweep` ends a ``fastest`` sweep at
          the first ``_BELOW_BAR`` tier: its ceiling never rises with
          ``n_agents`` and its bar never falls.
        * Live agents.  Each agent's slot term ``0 if budget < b else
          min(int(budget / b + _REL_TOL), clip)``, with ``budget = 1 / t -
          fixed``, is non-increasing in the float ``t``: the correctly
          rounded ``1 / t``, the subtraction, the division by ``b > 0``,
          the ``+ _REL_TOL``, ``int`` and ``min`` are each monotone.  So
          an agent whose term is equal at both bisection ends has it at
          every midpoint; ``NodeArrays.live_terms`` folds those into a
          base, and a midpoint re-sums only the others.  Its term lies
          between the two end terms, so a midpoint that moves one end
          settles every agent whose term equals the other end's.
        * Jump threshold.  Once one live agent is left and its end terms
          are ``lo_term`` and ``lo_term - 1``, every other term is fixed
          and that agent's term takes only those two values, so the slot
          total, hence ``k``, takes two: ``k_lo`` at the floats below the
          agent's jump point ``tau`` and ``k_hi`` from it on, with both
          caps already known.  ``tau`` is found once
          (:func:`_jump_threshold`), and a midpoint costs ``mid < tau``
          and the feasibility test.  A gap of two or more slots has
          several jumps and stays with the re-summing step.
        * Constant k.  ``server_slots(t)`` never increases with ``t``
          (every IEEE step of ``slot_total`` is monotone, and each early
          exit either skips terms that are zero or lands on ``k_cap``
          after the clamp), so once both ends share one ``k``, every
          midpoint between them has it too (``tau`` is then ``inf``).
        """
        params = self.params
        n = arrays.n
        if n - n_agents < 1:
            return None
        # Validity floor on server count: total child slots A-1+k must give
        # the root >=1 and every non-root agent >=2 children.
        k_min = 1 if n_agents == 1 else n_agents
        k_cap = n - n_agents
        if k_cap < k_min:
            return None

        a_lo, a_hi = offset, offset + n_agents

        # Feasibility ceiling on t: every non-root agent must support >= 2
        # children, the root >= 1.
        t_hi = float(arrays.sched_deg1[a_lo])
        if n_agents > 1:
            t_hi = min(t_hi, arrays.min_sched_deg2(a_lo + 1, a_hi))
        if demand is not None:
            # No point scheduling faster than the demand.
            t_hi = min(t_hi, demand)
        if t_hi < bar:
            return _BELOW_BAR

        if offset == 0:
            cand_sel: slice | list[int] = slice(n_agents, n)
        else:
            cand_sel = list(range(offset)) + list(range(a_hi, n))
        cand_powers, _, _, cand_server_rate = arrays.select(cand_sel)
        prefix_power = arrays.prefix_powers(cand_powers)
        if arrays.service_ceiling(
            prefix_power, cand_server_rate, k_min, k_cap, app_work
        ) < bar:
            return _BELOW_BAR

        comm = params.service_comm
        wpre = params.wpre

        def server_slots(t: float) -> int:
            slots = arrays.slot_total(a_lo, a_hi, t, n)
            return max(0, min(slots - (n_agents - 1), k_cap))

        def service_of(k: int) -> float:
            # Servers are the k fastest candidates; Eq. 15 with scalar Wapp.
            pred = k * wpre / app_work
            rate = prefix_power[k] / app_work
            return 1.0 / (comm + (1.0 + pred) / rate)

        def floor_of(k: int) -> float:
            return float(cand_server_rate[k - 1])

        caps: dict[int, float] = {}

        def cap_of(k: int) -> float:
            """min(service, floor) with k servers; -inf when k is invalid."""
            cap = caps.get(k)
            if cap is None:
                cap = (
                    -math.inf if k < k_min
                    else min(service_of(k), floor_of(k))
                )
                caps[k] = cap
            return cap

        # rho at target t with k = server_slots(t) is min(t, cap_of(k)); the
        # target is feasible when that reaches t (within _REL_TOL).  As t
        # itself always reaches t - _REL_TOL, that is cap_of(k) >= t -
        # _REL_TOL, the same outcome without the min().
        k_hi = server_slots(t_hi)
        if cap_of(k_hi) >= t_hi - _REL_TOL:
            # Service already exceeds the fastest feasible scheduling rate:
            # shrink the server set to the cheapest one sustaining t_hi
            # (t_hi is already capped by the demand).
            k_best = self._min_servers(
                k_min, k_hi, t_hi, service_of, floor_of
            )
            rho = min(t_hi, service_of(k_best), floor_of(k_best))
            return float(rho), k_best, t_hi

        # Otherwise binary-search the crossing service(k(t)) == t.
        t_lo = t_hi
        for _ in range(200):
            t_lo /= 2.0
            k_lo = server_slots(t_lo)
            cap_lo = cap_of(k_lo)
            if cap_lo >= t_lo - _REL_TOL:
                break
            if t_lo < 1e-12:
                return None
        if k_lo < k_min:
            # 200 halvings never reached a valid server count.
            return None
        lo, hi = t_lo, t_hi
        cap_hi = cap_of(k_hi)
        steps = 64
        tau = math.inf
        if k_lo != k_hi:
            # Re-sum the live agents' terms at each midpoint until one is
            # left, one slot apart.  A midpoint term lies between the
            # agent's two end terms; once the midpoint replaces one end,
            # the agents whose term equals the kept end's settle into base.
            base, live = arrays.live_terms(a_lo, a_hi, lo, hi, n)
            while k_lo != k_hi and steps and (
                len(live) != 1 or live[0][2] - live[0][3] > 1
            ):
                steps -= 1
                mid = 0.5 * (lo + hi)
                inverse = 1.0 / mid
                at_lo, at_hi, between = [], [], []
                sum_lo = sum_hi = sum_between = 0
                for entry in live:
                    fixed, b, lo_term, hi_term = entry
                    budget = inverse - fixed
                    if budget < b:
                        # The term is 0, so hi_term is too.
                        at_hi.append(entry)
                        continue
                    # A raw term at or past lo_term clips to lo_term.
                    term = int(budget / b + _REL_TOL)
                    if term >= lo_term:
                        at_lo.append(entry)
                        sum_lo += lo_term
                    elif term == hi_term:
                        at_hi.append(entry)
                        sum_hi += term
                    else:
                        between.append((fixed, b, lo_term, term, hi_term))
                        sum_between += term
                total = base + sum_lo + sum_hi + sum_between
                k = max(0, min(total - (n_agents - 1), k_cap))
                cap = cap_of(k)
                if cap >= mid - _REL_TOL:
                    lo, k_lo, cap_lo = mid, k, cap
                    base += sum_hi
                    at_lo += [(f, b, t, h) for f, b, _, t, h in between]
                    live = at_lo
                else:
                    hi, k_hi, cap_hi = mid, k, cap
                    base += sum_lo
                    at_hi += [(f, b, l, t) for f, b, l, t, _ in between]
                    live = at_hi
            if k_lo != k_hi and steps:
                # One live agent, one slot apart: its term, so k, is k_lo
                # below its jump point tau and k_hi from it on.
                fixed, b, lo_term, _ = live[0]
                tau = _jump_threshold(fixed, b, lo_term, lo, hi)
        # Every remaining midpoint has k_lo below tau and k_hi from it on.
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            cap = cap_lo if mid < tau else cap_hi
            if cap >= mid - _REL_TOL:
                lo, cap_lo = mid, cap
            else:
                hi, cap_hi = mid, cap
        k = k_lo if lo < tau else k_hi
        rho = min(lo, service_of(k), floor_of(k))
        if demand is not None and rho > demand:
            k = self._min_servers(k_min, k, demand, service_of, floor_of)
            rho = min(lo, service_of(k), floor_of(k))
        return float(rho), k, lo

    @staticmethod
    def _min_servers(k_min, k_max, target, service_of, floor_of) -> int:
        """Smallest k in [k_min, k_max] with service(k) >= target, else k_max.

        The least-resources rule: once the target rate is met, extra
        servers are waste.  ``floor_of`` only improves as k shrinks (the
        slowest chosen server gets faster), so it needs no re-check.
        """
        lo, hi = k_min, k_max
        if service_of(hi) < target:
            return hi
        while lo < hi:
            mid = (lo + hi) // 2
            if service_of(mid) >= target:
                hi = mid
            else:
                lo = mid + 1
        return lo

    def _materialize(
        self,
        agents: list[Node],
        servers: list[Node],
        target: float,
    ) -> Hierarchy:
        """Build the tree: capacity-fill agents at the target rate.

        Agents attach breadth-first in power order (placement does not
        change model throughput); every non-root agent is guaranteed two
        children before leftover servers are dealt round-robin, mirroring
        Algorithm 1's inner while loop that fills each converted agent up
        to its supported child count.
        """
        params = self.params
        total = len(agents) + len(servers)
        capacity = {
            a.name: max(
                1 if i == 0 else 2,
                min(
                    supported_children(params, a.power, target),
                    total,
                ),
            )
            for i, a in enumerate(agents)
        }
        hierarchy = Hierarchy()
        hierarchy.set_root(agents[0].name, agents[0].power)
        free = {agents[0].name: capacity[agents[0].name]}
        # Attach agents under the earliest placed agent with a free slot.
        placed = [agents[0]]
        for agent in agents[1:]:
            parent = next(a for a in placed if free[a.name] > 0)
            hierarchy.add_agent(agent.name, agent.power, parent.name)
            free[parent.name] -= 1
            free[agent.name] = capacity[agent.name]
            placed.append(agent)
        # Guarantee two children per non-root agent first (validity), then
        # deal the rest round-robin across agents with spare capacity.
        pending = list(servers)
        for agent in placed[1:]:
            while hierarchy.degree(agent.name) < 2 and pending:
                node = pending.pop(0)
                hierarchy.add_server(node.name, node.power, agent.name)
                free[agent.name] -= 1
        cursor = 0
        while pending:
            order = [a for a in placed if free[a.name] > 0]
            if not order:
                # Capacity exhausted (can only happen through the >=2
                # guarantee overdrawing a slot); attach to the root.
                order = [placed[0]]
            target_agent = order[cursor % len(order)]
            node = pending.pop(0)
            hierarchy.add_server(node.name, node.power, target_agent.name)
            free[target_agent.name] -= 1
            cursor += 1
        return hierarchy

    # ------------------------------------------------------------------ #
    # incremental strategy (ablation)

    def _plan_incremental(
        self, ranked: list[Node], app_work: float, demand: float | None
    ) -> HeuristicPlan:
        hierarchy = Hierarchy()
        root, first = ranked[0], ranked[1]
        hierarchy.set_root(root.name, root.power)
        hierarchy.add_server(first.name, first.power, root.name)
        rho = self._rho(hierarchy, app_work)
        steps = [
            PlanStep("root", root.name, None, rho, "seed root agent"),
            PlanStep("server", first.name, root.name, rho, "seed server"),
        ]
        best = (rho, len(hierarchy), hierarchy.copy())
        if demand is not None and rho >= demand:
            steps.append(PlanStep("stop", None, None, rho, "demand met by seed"))
            return self._finalize(hierarchy, app_work, steps, demand)

        stale = 0
        for node in ranked[2:]:
            move = self._best_move(hierarchy, node, app_work)
            if move is None:
                break
            action, parent, new_rho = move
            if action == "server":
                hierarchy.add_server(node.name, node.power, parent)
            else:
                hierarchy.promote(parent)
                hierarchy.add_server(node.name, node.power, parent)
            steps.append(PlanStep(action, node.name, parent, new_rho))
            rho = new_rho
            if rho > best[0] * (1.0 + _REL_TOL):
                best = (rho, len(hierarchy), hierarchy.copy())
                stale = 0
            else:
                stale += 1
            if demand is not None and rho >= demand:
                best = (rho, len(hierarchy), hierarchy.copy())
                steps.append(PlanStep("stop", None, None, rho, "demand met"))
                break
            if stale >= self.patience:
                steps.append(
                    PlanStep(
                        "stop", None, None, rho,
                        f"no improvement for {stale} steps; rolling back",
                    )
                )
                break
        return self._finalize(best[2], app_work, steps, demand)

    def _rho(self, hierarchy: Hierarchy, app_work: float) -> float:
        return self._evaluator.evaluate(hierarchy, app_work).throughput

    def _best_move(
        self, hierarchy: Hierarchy, node: Node, app_work: float
    ) -> tuple[str, NodeId, float] | None:
        """Evaluate attaching ``node`` as a server vs. promoting under it."""
        params = self.params
        candidates: list[tuple[float, int, str, NodeId]] = []

        # Move (a): attach under the agent with the most scheduling
        # headroom — it keeps the hierarchy's min agent rate maximal among
        # all attach choices.
        agents = hierarchy.agents
        target = max(
            agents,
            key=lambda a: (
                self._evaluator.agent_rate(
                    hierarchy.power(a), hierarchy.degree(a) + 1
                ),
                str(a),
            ),
        )
        trial = hierarchy.copy()
        trial.add_server(node.name, node.power, target)
        candidates.append((self._rho(trial, app_work), 0, "server", target))

        # Move (b): promote the strongest server able to support >= 2
        # children at the current service level (shift_nodes), attaching
        # the new node beneath it.
        if self.allow_promotion and hierarchy.servers:
            service_now = self._evaluator.service_rate(
                [hierarchy.power(s) for s in hierarchy.servers],
                [app_work] * len(hierarchy.servers),
            )
            promotable = [
                s
                for s in hierarchy.servers
                if supported_children(params, hierarchy.power(s), service_now)
                >= 2
            ]
            if promotable:
                strongest = max(
                    promotable, key=lambda s: (hierarchy.power(s), str(s))
                )
                trial = hierarchy.copy()
                trial.promote(strongest)
                trial.add_server(node.name, node.power, strongest)
                candidates.append(
                    (self._rho(trial, app_work), 1, "promote", strongest)
                )

        if not candidates:
            return None
        rho, _, action, parent = max(candidates, key=lambda c: (c[0], -c[1]))
        return action, parent, rho

    def _finalize(
        self,
        hierarchy: Hierarchy,
        app_work: float,
        steps: list[PlanStep],
        demand: float | None,
    ) -> HeuristicPlan:
        """Repair single-child agents, validate, and package the result."""
        self._repair(hierarchy)
        hierarchy.validate(strict=True)
        report = self._evaluator.evaluate(hierarchy, app_work, validate=False)
        return HeuristicPlan(
            hierarchy=hierarchy,
            report=report,
            strategy="incremental",
            steps=tuple(steps),
            demand=demand,
        )

    @staticmethod
    def _repair(hierarchy: Hierarchy) -> None:
        """Demote non-root agents left with fewer than two children.

        Lone children are lifted to the grandparent and the agent rejoins
        the server pool — never decreasing throughput (one fewer
        constrained agent, one more server).
        """
        changed = True
        while changed:
            changed = False
            for agent in hierarchy.agents:
                if agent == hierarchy.root:
                    continue
                kids = hierarchy.children(agent)
                if len(kids) < 2:
                    parent = hierarchy.parent(agent)
                    assert parent is not None
                    for kid in kids:
                        hierarchy.reattach(kid, parent)
                    hierarchy.demote(agent)
                    changed = True
                    break
