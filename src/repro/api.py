"""Typed planning API: :class:`PlanRequest` and :class:`PlanningSession`.

This is the front door of the library.  A :class:`PlanRequest` is a
frozen, validated description of one planning problem — pool, workload,
demand, parameters, planner name and typed options.  A
:class:`PlanningSession` executes requests through the
:data:`~repro.core.registry.REGISTRY`:

* :meth:`PlanningSession.plan` — one request, with result caching;
* :meth:`PlanningSession.plan_many` — a batch (e.g. a scenario grid from
  :func:`scenario_grid`), optionally fanned out in chunks over a
  :class:`concurrent.futures.ProcessPoolExecutor` (planning is CPU-bound,
  so threads cannot scale it past the GIL); results are deterministic and
  identical with or without ``parallel``;
* :meth:`PlanningSession.rank` — the cross-planner comparison the CLI's
  ``compare`` subcommand and :mod:`repro.analysis.compare` build on:
  plan one pool with several methods, optionally measure each deployment
  in the discrete-event simulator, and sort best-first;
* :meth:`PlanningSession.control_run` — the online control plane: run a
  deployment in the simulator under a time-varying workload trace and
  let an autoscaling policy adapt it epoch by epoch
  (:mod:`repro.control`), with live subtree migration or stop-the-world
  restarts per redeploy;
* :meth:`PlanningSession.control_sweep` — a (trace, policy, seed) grid
  of controller runs, fanned out over the same process-pool machinery
  as :meth:`plan_many` (controller runs are simulation-bound, so
  separate interpreters are what scales a tuning campaign).

Quickstart::

    from repro import NodePool, PlanningSession, dgemm_mflop

    session = PlanningSession()
    deployment = session.plan(
        pool=NodePool.uniform_random(50, low=80, high=400, seed=7),
        app_work=dgemm_mflop(310),
    )
    print(deployment.describe())

Every planner — including the extensions (``hetcomm``, ``multiapp``,
``redeploy``) and any third-party planner registered with
:func:`~repro.core.registry.register_planner` — is reachable by name via
``PlanRequest.method``.
"""

from __future__ import annotations

import dataclasses
import math
import os
import threading
from collections.abc import Iterable, Mapping, Sequence
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass

from repro.core.params import ModelParams
from repro.core.registry import (
    REGISTRY,
    Deployment,
    PlannerOptions,
    PlannerRegistry,
    default_middle_agents,
)
from repro.errors import PlanningError
from repro.platforms.pool import NodePool

__all__ = [
    "PlanRequest",
    "PlanningSession",
    "RankedPlan",
    "ControlCell",
    "scenario_grid",
    "default_middle_agents",
]


def _freeze(value: object) -> object:
    """Recursively convert ``value`` into a hashable cache-key component."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            type(value).__name__,
            tuple(
                (f.name, _freeze(getattr(value, f.name)))
                for f in dataclasses.fields(value)
            ),
        )
    if isinstance(value, Mapping):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(_freeze(v) for v in value))
    return value


@dataclass(frozen=True)
class PlanRequest:
    """One planning problem, fully specified.

    Parameters
    ----------
    pool:
        Available compute nodes.
    app_work:
        Application work ``Wapp`` per request, MFlop.
    demand:
        Optional client demand (requests/s); demand-capable planners stop
        at the cheapest satisfying deployment.
    params:
        Model parameters; ``None`` means the Table 3 calibration.
    method:
        A planner name from :meth:`PlannerRegistry.available`.
    options:
        Planner options: the planner's typed dataclass (e.g.
        :class:`~repro.core.registry.HeuristicOptions`), a plain mapping
        (coerced and validated eagerly), or ``None`` for defaults.
    seed:
        Seed for planners/measurements that randomize; planning itself is
        deterministic.
    label:
        Free-form tag carried through to results (useful in grids).
    """

    pool: NodePool
    app_work: float
    demand: float | None = None
    params: ModelParams | None = None
    method: str = "heuristic"
    options: PlannerOptions | Mapping[str, object] | None = None
    seed: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not isinstance(self.pool, NodePool):
            raise PlanningError(
                f"pool must be a NodePool, got {type(self.pool).__name__}"
            )
        if len(self.pool) < 1:
            raise PlanningError("pool must not be empty")
        if self.app_work <= 0.0:
            raise PlanningError(
                f"app_work must be > 0, got {self.app_work}"
            )
        if self.demand is not None and self.demand <= 0.0:
            raise PlanningError(
                f"demand must be > 0 when given, got {self.demand}"
            )
        if not self.method or not isinstance(self.method, str):
            raise PlanningError(
                f"method must be a planner name, got {self.method!r}"
            )

    def replace(self, **changes: object) -> "PlanRequest":
        """A copy with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def cache_key(self) -> tuple:
        """Hashable identity of this request (label excluded)."""
        return (
            self.method,
            tuple((n.name, n.power) for n in self.pool),
            self.app_work,
            self.demand,
            _freeze(self.params),
            _freeze(self.options),
            self.seed,
        )


@dataclass(frozen=True)
class RankedPlan:
    """One entry of a cross-planner comparison."""

    method: str
    deployment: Deployment
    predicted: float
    measured: float | None = None

    @property
    def throughput(self) -> float:
        """Measured throughput when available, else the model prediction."""
        return self.measured if self.measured is not None else self.predicted

    @property
    def shape(self) -> tuple[int, int, int, int]:
        """(nodes, agents, servers, height) of the deployment tree."""
        return self.deployment.hierarchy.shape_signature()


def scenario_grid(
    pools: Sequence[NodePool],
    app_works: Sequence[float],
    methods: Sequence[str] = ("heuristic",),
    demands: Sequence[float | None] = (None,),
    seeds: Sequence[int] = (0,),
    params: ModelParams | None = None,
    options_by_method: Mapping[str, object] | None = None,
) -> list[PlanRequest]:
    """The cross product pool x workload x method x demand x seed.

    Returns one :class:`PlanRequest` per grid cell, labelled
    ``"pool{i}/w{j}/{method}"`` so results stay attributable after a
    parallel :meth:`PlanningSession.plan_many` fan-out.
    """
    if not pools or not app_works or not methods:
        raise PlanningError(
            "scenario_grid needs at least one pool, app_work and method"
        )
    options_by_method = options_by_method or {}
    grid = []
    for i, pool in enumerate(pools):
        for j, app_work in enumerate(app_works):
            for method in methods:
                for demand in demands:
                    for seed in seeds:
                        grid.append(
                            PlanRequest(
                                pool=pool,
                                app_work=app_work,
                                demand=demand,
                                params=params,
                                method=method,
                                options=options_by_method.get(method),
                                seed=seed,
                                label=f"pool{i}/w{j}/{method}",
                            )
                        )
    return grid


#: Fewest unique (post-dedup) requests worth a process pool.  Pool
#: spin-up plus per-task pickling costs hundreds of milliseconds; below
#: this count the serial path is measurably faster on every host, so
#: ``plan_many(parallel=True)`` quietly stays serial (ROADMAP: nil
#: parallel gain on small batches, 6.8 vs 6.2 req/s).
_PARALLEL_MIN_UNIQUE = 8


def _plan_request(request: PlanRequest) -> Deployment:
    """Process-pool worker: plan one request against the global registry.

    Module-level so it pickles by reference; the child process re-imports
    :mod:`repro` and resolves the same registered planners.
    """
    return REGISTRY.plan(request)


@dataclass(frozen=True)
class ControlCell:
    """One (trace, policy, seed) cell of a controller sweep.

    ``trace_jsonl`` carries the cell's exported deterministic trace
    when the sweep ran with ``obs=True`` (``None`` otherwise).  Tracers
    do not transport across processes, so each cell — worker or serial
    — builds its own and exports to the byte-identity JSONL format,
    which is how the test suite asserts serial and process-pool sweeps
    trace identically.
    """

    trace: str
    policy: str
    seed: int
    timeline: object  # repro.control.loop.ControlTimeline
    trace_jsonl: str | None = None

    @property
    def label(self) -> str:
        return f"{self.trace}/{self.policy}/s{self.seed}"


def _control_cell(args: tuple) -> tuple:
    """Process-pool worker: run one controller cell.

    Traces travel as ``from_spec`` strings and policies as
    ``(name, options)`` pairs, so every argument pickles by value; the
    child rebuilds the loop against the global registry.  Returns
    ``(timeline, trace_jsonl)`` — the trace export is ``None`` unless
    the cell ran with ``obs=True``.
    """
    (pool, app_work, trace_spec, policy, policy_options, params,
     control_kwargs) = args
    from repro.control.loop import ControlLoop
    from repro.control.traces import from_spec

    loop = ControlLoop(
        pool=pool,
        app_work=app_work,
        trace=from_spec(trace_spec),
        policy=policy,
        params=params,
        policy_options=dict(policy_options) if policy_options else None,
        **control_kwargs,
    )
    timeline = loop.run()
    trace_jsonl = (
        loop.obs.tracer.to_jsonl() if loop.obs.enabled else None
    )
    return timeline, trace_jsonl


class PlanningSession:
    """Stateful planning front end: registry dispatch + result caching.

    Parameters
    ----------
    params:
        Default model parameters applied to requests that carry none.
    registry:
        Planner registry; defaults to the global
        :data:`~repro.core.registry.REGISTRY`.
    cache:
        Memoize results by :meth:`PlanRequest.cache_key` (planning is
        deterministic, so repeated cells of a grid are free).
    """

    def __init__(
        self,
        params: ModelParams | None = None,
        registry: PlannerRegistry | None = None,
        cache: bool = True,
    ):
        self.params = params
        self.registry = registry if registry is not None else REGISTRY
        self._cache_enabled = cache
        self._cache: dict[tuple, Deployment] = {}
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0

    # -------------------------------------------------------------- #

    def plan(
        self, request: PlanRequest | None = None, /, **kwargs: object
    ) -> Deployment:
        """Execute one request (or build one from keyword arguments)."""
        if request is None:
            request = PlanRequest(**kwargs)  # type: ignore[arg-type]
        elif kwargs:
            request = request.replace(**kwargs)
        request = self._with_session_params(request)
        if not self._cache_enabled:
            return self.registry.plan(request)
        key = request.cache_key()
        with self._lock:
            cached = self._cache.get(key)
        if cached is not None:
            with self._lock:
                self._hits += 1
            return cached
        deployment = self.registry.plan(request)
        with self._lock:
            self._misses += 1
            self._cache.setdefault(key, deployment)
        return deployment

    def plan_many(
        self,
        requests: Iterable[PlanRequest],
        parallel: bool = False,
        max_workers: int | None = None,
        chunksize: int | None = None,
    ) -> list[Deployment]:
        """Execute a batch of requests, preserving order.

        With ``parallel=True`` the unique requests fan out in chunks over a
        :class:`~concurrent.futures.ProcessPoolExecutor` — planning is
        CPU-bound, so separate interpreters are what actually scales it.
        Requests are deduplicated by their frozen
        :meth:`PlanRequest.cache_key` first, the session cache is consulted
        before any dispatch, and worker results are folded back into it, so
        repeated ``plan_many`` calls over overlapping grids replan nothing.
        Planning is deterministic: the result list is identical with or
        without ``parallel``.

        The serial fast path — no executor, no process startup — is taken
        when ``parallel`` is off, when ``max_workers`` is 1 (or the machine
        has a single CPU), or when the batch (after cache dedup) holds
        fewer than ``_PARALLEL_MIN_UNIQUE`` requests to actually plan:
        process-pool spin-up costs hundreds of milliseconds, which a
        handful of ~ms planner calls can never amortize (measured nil
        gain — 6.8 serial vs 6.2 req/s parallel on a small host).
        Two situations fall back to a thread pool (the pre-process-pool
        behaviour): sessions with a custom registry, and planners that were
        registered into the global registry at runtime — a worker process
        re-imports :mod:`repro`, so under spawn/forkserver start methods it
        only sees import-time registrations.

        ``chunksize`` overrides the per-worker batch size (default: unique
        requests split roughly 4 ways per worker).
        """
        requests = [self._with_session_params(r) for r in requests]
        if not requests:
            return []
        workers = max_workers if max_workers is not None else os.cpu_count() or 1
        if not parallel or workers <= 1 or len(requests) == 1:
            return [self.plan(request) for request in requests]
        if self.registry is not REGISTRY:
            with ThreadPoolExecutor(max_workers=workers) as executor:
                return list(executor.map(self.plan, requests))
        def chunk_for(count: int) -> int:
            if chunksize is not None:
                return chunksize
            return max(1, math.ceil(count / (workers * 4)))
        if not self._cache_enabled:
            # Mirror the serial no-cache semantics exactly: every request
            # planned independently (no dedup aliasing), no hit/miss stats.
            if len(requests) < _PARALLEL_MIN_UNIQUE:
                return [self.plan(request) for request in requests]
            planned = self._fan_out(requests, workers, chunk_for(len(requests)))
            if planned is None:
                with ThreadPoolExecutor(max_workers=workers) as executor:
                    return list(executor.map(self.plan, requests))
            return planned
        keys = [request.cache_key() for request in requests]
        with self._lock:
            resolved: dict[tuple, Deployment] = {
                key: self._cache[key]
                for key in set(keys)
                if key in self._cache
            }
        pending: dict[tuple, PlanRequest] = {}
        for key, request in zip(keys, requests):
            if key not in resolved and key not in pending:
                pending[key] = request
        if 0 < len(pending) < _PARALLEL_MIN_UNIQUE:
            # Too few unique misses to amortize pool spin-up; the plain
            # serial path replays the cache and keeps hit/miss accounting
            # identical to a cold serial run.
            return [self.plan(request) for request in requests]
        if pending:
            todo = list(pending.values())
            planned = self._fan_out(todo, workers, chunk_for(len(todo)))
            if planned is None:
                with ThreadPoolExecutor(max_workers=workers) as executor:
                    return list(executor.map(self.plan, requests))
            resolved.update(zip(pending, planned))
            with self._lock:
                self._hits += len(requests) - len(pending)
                self._misses += len(pending)
                for key in pending:
                    self._cache.setdefault(key, resolved[key])
        else:
            with self._lock:
                self._hits += len(requests)
        return [resolved[key] for key in keys]

    @staticmethod
    def _fan_out(
        requests: list[PlanRequest], workers: int, chunk: int
    ) -> list[Deployment] | None:
        """Plan ``requests`` on a process pool; None if workers lack planners.

        A child process that cannot resolve a request's planner (it was
        registered at runtime, after import) makes the whole fan-out
        unusable — the caller then retries on threads, where the parent's
        registry is visible.  Any other planning error propagates.
        """
        try:
            with ProcessPoolExecutor(max_workers=workers) as executor:
                return list(
                    executor.map(_plan_request, requests, chunksize=chunk)
                )
        except PlanningError as error:
            # Match the registry's lookup error only ("unknown planner
            # 'name'; ..."), not e.g. "unknown planner options: [...]" —
            # option errors would just fail again on threads.
            if str(error).startswith("unknown planner '"):
                return None
            raise

    def _with_session_params(self, request: PlanRequest) -> PlanRequest:
        """Fill in the session's default params, exactly like :meth:`plan`."""
        if request.params is None and self.params is not None:
            return request.replace(params=self.params)
        return request

    def rank(
        self,
        pool: NodePool,
        app_work: float,
        methods: Sequence[str] | None = None,
        demand: float | None = None,
        options_by_method: Mapping[str, object] | None = None,
        measure: bool = False,
        clients: int = 50,
        duration: float = 10.0,
        seed: int = 0,
    ) -> list[RankedPlan]:
        """Plan one pool with several methods and sort best-first.

        Methods default to every registered non-extension planner except
        the exhaustive reference.  Methods the pool cannot support (e.g.
        ``balanced`` on a tiny pool) are skipped rather than failing the
        whole comparison.  With ``measure=True`` each deployment also runs
        under a fixed client load in the discrete-event simulator and the
        ranking uses the measured rate.
        """
        from repro.core.registry import (
            CAP_EXACT,
            CAP_EXTENSION,
        )

        if methods is None:
            methods = [
                planner.name
                for planner in self.registry
                if not (
                    {CAP_EXACT, CAP_EXTENSION} & planner.capabilities
                )
            ]
        else:
            # Validate names up front: an unknown/misspelled method is an
            # error, not a silently-skipped row.  Only genuine pool-shape
            # failures are skipped in the loop below.
            for method in methods:
                self.registry.get(method)
        options_by_method = options_by_method or {}
        ranked: list[RankedPlan] = []
        for method in methods:
            try:
                deployment = self.plan(
                    pool=pool,
                    app_work=app_work,
                    demand=demand,
                    method=method,
                    options=options_by_method.get(method),
                    seed=seed,
                )
            except PlanningError:
                continue  # pool shape does not admit this method
            measured = None
            if measure:
                from repro.analysis.experiments import run_fixed_load

                result = run_fixed_load(
                    deployment.hierarchy,
                    deployment.params,
                    app_work,
                    clients=clients,
                    duration=duration,
                    seed=seed,
                )
                measured = result.throughput
            ranked.append(
                RankedPlan(
                    method=method,
                    deployment=deployment,
                    predicted=deployment.throughput,
                    measured=measured,
                )
            )
        if not ranked:
            raise PlanningError(
                f"no ranked methods succeeded on this pool "
                f"(tried {list(methods)})"
            )
        ranked.sort(key=lambda entry: entry.throughput, reverse=True)
        return ranked

    def control_run(
        self,
        pool: NodePool,
        app_work: float,
        trace: object,
        policy: str | object = "reactive",
        epochs: int = 30,
        epoch_duration: float = 5.0,
        base_method: str = "heuristic",
        initial_fraction: float = 0.5,
        policy_options: Mapping[str, object] | None = None,
        migration: str = "live",
        seed: int = 0,
        **loop_kwargs: object,
    ):
        """Run the online autoscaling control loop over the simulator.

        Plans an initial deployment for a fraction of ``pool`` with
        ``base_method``, then drives it through ``epochs`` control
        epochs under ``trace`` (a :class:`repro.control.traces.Trace`),
        letting ``policy`` (a registered policy name or a
        :class:`repro.control.policy.ControlPolicy` instance) grow,
        shrink or hold it.  ``migration`` selects how redeploys are
        realized: ``"live"`` (subtree-granular migration inside the
        running simulation, one region at a time), ``"concurrent"``
        (the same, with independent regions drained in parallel) or
        ``"restart"`` (stop-the-world rebuild).
        Returns the structured
        :class:`repro.control.loop.ControlTimeline`.

        The session's default params and registry apply, so custom
        planners registered here are usable as ``base_method``.  Extra
        keyword arguments go straight to
        :class:`repro.control.loop.ControlLoop` (``cost_model``,
        ``recorder``, ``think_time``, ...).
        """
        from repro.control.loop import ControlLoop

        loop = ControlLoop(
            pool=pool,
            app_work=app_work,
            trace=trace,
            policy=policy,
            params=self.params,
            registry=self.registry,
            epochs=epochs,
            epoch_duration=epoch_duration,
            base_method=base_method,
            initial_fraction=initial_fraction,
            policy_options=dict(policy_options) if policy_options else None,
            migration=migration,
            seed=seed,
            **loop_kwargs,
        )
        return loop.run()

    def control_sweep(
        self,
        pool: NodePool,
        app_work: float,
        traces: Sequence[str],
        policies: Sequence[str] = ("reactive",),
        seeds: Sequence[int] = (0,),
        policy_options: Mapping[str, Mapping[str, object]] | None = None,
        parallel: bool = True,
        max_workers: int | None = None,
        **control_kwargs: object,
    ) -> "list[ControlCell]":
        """Run the (trace, policy, seed) grid of controller runs.

        ``traces`` are :func:`repro.control.traces.from_spec` strings
        (e.g. ``"flash:base=5,peak=60,at=30"`` or a fixture name like
        ``"wikipedia_flash"``) — strings rather than ``Trace`` objects
        so cells pickle into worker processes.  ``policy_options`` maps
        policy names to their option mappings.  Extra keyword arguments
        go to every cell's :class:`~repro.control.loop.ControlLoop`
        (``epochs``, ``epoch_duration``, ``migration``, ...).

        With ``parallel=True`` (the default) the grid fans out in
        chunks over a :class:`~concurrent.futures.ProcessPoolExecutor`,
        exactly like :meth:`plan_many` — controller runs are
        simulation-bound, so separate interpreters are what scales a
        tuning campaign.  Each cell is a pure function of its inputs,
        so results are deterministic and identical with or without
        ``parallel``; the serial path is taken for single-cell grids,
        ``max_workers=1``, single-CPU machines, or sessions with a
        custom registry (which does not transport across processes).

        Pass ``obs=True`` to trace every cell: each run builds its own
        :class:`repro.obs.Obs` (tracers do not transport across
        processes) and the exported JSONL lands on
        :attr:`ControlCell.trace_jsonl` — byte-identical between serial
        and pooled execution of the same grid.  ``obs`` must be a bool
        here; a shared ``Obs`` instance would be cleared by every cell.

        Returns one :class:`ControlCell` per grid point, in
        trace-major, then policy, then seed order.
        """
        from repro.control.policy import make_policy
        from repro.control.traces import from_spec

        if not traces or not policies or not seeds:
            raise PlanningError(
                "control_sweep needs at least one trace, policy and seed"
            )
        if max_workers is not None and max_workers < 1:
            raise PlanningError(
                f"control_sweep needs max_workers >= 1, got {max_workers} "
                "(omit it to use the CPU count)"
            )
        for spec in traces:
            if not isinstance(spec, str):
                raise PlanningError(
                    "control_sweep traces must be from_spec strings "
                    f"(picklable grid cells), got {type(spec).__name__}"
                )
            from_spec(spec)  # validate eagerly, before any fan-out
        policy_options = dict(policy_options or {})
        unknown = sorted(set(policy_options) - set(policies))
        if unknown:
            raise PlanningError(
                f"policy_options given for unswept policies: {unknown}"
            )
        for policy in policies:
            # Validate names and options eagerly too: an unknown policy
            # or a bad option should fail here, not deep inside a worker
            # process with a half-finished grid.
            make_policy(policy, policy_options.get(policy))
        if isinstance(control_kwargs.get("faults"), str):
            # Same eager-validation courtesy for a fault-schedule spec —
            # it stays a string in the cell args (picklable), but a
            # malformed spec fails here, not in a worker.
            from repro.faults import from_spec as fault_spec

            fault_spec(control_kwargs["faults"])
        if not isinstance(control_kwargs.get("obs", False), bool):
            # Tracers are per-run state: a single shared Obs would be
            # cleared by every cell in turn and could not cross process
            # boundaries anyway.  The sweep builds one per cell.
            raise PlanningError(
                "control_sweep obs must be a bool (each cell builds its "
                "own tracer); pass obs=True and read cell.trace_jsonl"
            )
        if isinstance(control_kwargs.get("detection"), str):
            # And for a detection spec ("timeout=0.5,retries=1,..."):
            # malformed timeout grammar fails eagerly, not mid-grid.
            from repro.middleware.detection import parse_detection

            parse_detection(control_kwargs["detection"])
        if "executor" in control_kwargs:
            # Act-stage executors must travel as kind strings: an
            # executor *instance* owns process state (a pool) that
            # neither pickles nor may be shared across cells.
            from repro.control.protocol import EXECUTOR_KINDS

            if control_kwargs["executor"] not in EXECUTOR_KINDS:
                raise PlanningError(
                    "control_sweep executor must be one of "
                    f"{EXECUTOR_KINDS} (a kind string — instances don't "
                    f"pickle), got {control_kwargs['executor']!r}"
                )
        grid = [
            (spec, policy, seed)
            for spec in traces
            for policy in policies
            for seed in seeds
        ]
        cell_args = [
            (
                pool,
                app_work,
                spec,
                policy,
                policy_options.get(policy),
                self.params,
                {**control_kwargs, "seed": seed},
            )
            for spec, policy, seed in grid
        ]
        workers = (
            max_workers if max_workers is not None else os.cpu_count() or 1
        )
        serial = (
            not parallel
            or workers <= 1
            or len(grid) == 1
            or self.registry is not REGISTRY
        )
        if serial:
            # The in-process path goes through control_run, so a custom
            # session registry applies (it cannot transport to workers).
            # Each traced cell still gets a fresh Obs, mirroring what a
            # worker process would build, so serial and pooled sweeps
            # export byte-identical traces.
            from repro.obs import Obs

            traced = bool(control_kwargs.get("obs", False))
            serial_kwargs = {
                k: v for k, v in control_kwargs.items() if k != "obs"
            }
            results = []
            for spec, policy, seed in grid:
                cell_obs = Obs() if traced else None
                timeline = self.control_run(
                    pool,
                    app_work,
                    trace=from_spec(spec),
                    policy=policy,
                    policy_options=policy_options.get(policy),
                    seed=seed,
                    obs=cell_obs,
                    **serial_kwargs,
                )
                results.append((
                    timeline,
                    cell_obs.tracer.to_jsonl() if traced else None,
                ))
        else:
            chunk = max(1, math.ceil(len(grid) / (workers * 4)))
            with ProcessPoolExecutor(max_workers=workers) as executor:
                results = list(
                    executor.map(_control_cell, cell_args, chunksize=chunk)
                )
        return [
            ControlCell(
                trace=spec, policy=policy, seed=seed,
                timeline=timeline, trace_jsonl=trace_jsonl,
            )
            for (spec, policy, seed), (timeline, trace_jsonl)
            in zip(grid, results)
        ]

    # -------------------------------------------------------------- #

    def cache_info(self) -> Mapping[str, int]:
        """``{"hits": ..., "misses": ..., "size": ...}``."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "size": len(self._cache),
            }

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
