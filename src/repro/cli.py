"""Command-line interface: ``repro-deploy``.

Subcommands mirror the paper's workflow:

* ``plan``      — plan a deployment for a node pool and write the GoDIET
  XML (Algorithm 1 end-to-end);
* ``predict``   — evaluate a plan's model throughput (Eq. 16);
* ``simulate``  — launch a plan on the simulated platform and measure its
  sustained throughput under a client ramp (§5.1 protocol);
* ``compare``   — rank planning methods on one pool (the Figure 6/7
  experiment in miniature, via :meth:`PlanningSession.rank`);
* ``improve``   — iteratively remove bottlenecks from a deployed plan
  using spare nodes (the prior-work mechanism in
  :mod:`repro.extensions.redeploy`);
* ``control``   — run the online autoscaling control loop: a deployment
  under a time-varying workload trace, adapted epoch by epoch by a
  registered policy (:mod:`repro.control`) with live subtree migration,
  concurrent wave-parallel drains, or stop-the-world restarts
  (``--migration``); ``--sweep`` fans a (trace x policy x seed) grid
  over a process pool;
* ``trace``     — run one traced control loop and export its
  deterministic Chrome trace-event file (plus optional per-epoch
  metrics JSONL) via :mod:`repro.obs`, for chrome://tracing or
  ui.perfetto.dev;
* ``planners``  — list every registered planner, its capabilities and
  its typed options;
* ``calibrate`` — run the §5.1 calibration campaign and print Table 3.

``plan --method`` choices come straight from the planner registry, so
extension and third-party planners appear automatically; planner options
are passed as repeatable ``--opt key=value`` flags and validated against
the planner's typed option dataclass.

Pool specification flags are shared: ``--nodes/--power`` builds a
homogeneous pool, ``--powers`` an explicit heterogeneous one, ``--random``
a seeded uniform pool, and ``--heterogenize`` applies the §5.3
background-load treatment.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from repro.analysis.report import ascii_table, format_rate
from repro.api import PlanningSession
from repro.calibration.table3 import calibrate, render_table3
from repro.control.policy import MIGRATION_MODES, available_policies
from repro.control.protocol import EXECUTOR_KINDS
from repro.core.params import DEFAULT_PARAMS
from repro.core.registry import REGISTRY
from repro.deploy.godiet import GoDIET
from repro.deploy.plan import DeploymentPlan
from repro.deploy.xml_io import plan_from_xml, plan_to_xml
from repro.errors import ReproError
from repro.platforms.background import heterogenize
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop
from repro.workloads.loadgen import ClientRamp

__all__ = ["main", "build_parser"]


def _add_pool_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("pool specification")
    group.add_argument("--nodes", type=int, help="homogeneous pool size")
    group.add_argument(
        "--power", type=float, default=265.0,
        help="homogeneous node power in MFlop/s (default 265)",
    )
    group.add_argument(
        "--powers", type=str,
        help="comma-separated per-node powers (heterogeneous pool)",
    )
    group.add_argument(
        "--random", type=int, metavar="N",
        help="random pool of N nodes with powers in [--low, --high]",
    )
    group.add_argument("--low", type=float, default=50.0)
    group.add_argument("--high", type=float, default=400.0)
    group.add_argument("--seed", type=int, default=0)
    group.add_argument(
        "--heterogenize", type=float, metavar="FRACTION",
        help="degrade FRACTION of the nodes with background matrix "
        "products (the paper's §5.3 treatment)",
    )


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("workload")
    group.add_argument(
        "--dgemm", type=int, metavar="N",
        help="square DGEMM dimension (Wapp = 2*N^3 flops)",
    )
    group.add_argument(
        "--app-work", type=float, metavar="MFLOP",
        help="explicit Wapp in MFlop (overrides --dgemm)",
    )


def _pool_from_args(
    args: argparse.Namespace, prefix: str = "node"
) -> NodePool:
    if args.powers is not None:
        powers = [float(p) for p in args.powers.split(",") if p.strip()]
        if not powers:
            raise ReproError("--powers must list at least one node power")
        pool = NodePool.heterogeneous(powers, prefix=prefix)
    elif args.random is not None:
        if args.random <= 0:
            raise ReproError(
                f"pool size must be positive, got --random {args.random}"
            )
        pool = NodePool.uniform_random(
            args.random, low=args.low, high=args.high, seed=args.seed,
            prefix=prefix,
        )
    elif args.nodes is not None:
        if args.nodes <= 0:
            raise ReproError(
                f"pool size must be positive, got --nodes {args.nodes}"
            )
        pool = NodePool.homogeneous(args.nodes, args.power, prefix=prefix)
    else:
        raise ReproError(
            "specify a pool with --nodes, --powers or --random"
        )
    if args.heterogenize is not None:
        pool = heterogenize(
            pool, loaded_fraction=args.heterogenize, seed=args.seed
        )
    return pool


def _app_work_from_args(args: argparse.Namespace) -> float:
    if args.app_work is not None:
        return args.app_work
    if args.dgemm is not None:
        return dgemm_mflop(args.dgemm)
    raise ReproError("specify a workload with --dgemm or --app-work")


def _options_from_args(
    args: argparse.Namespace, attribute: str = "opt", flag: str = "--opt"
) -> dict[str, str] | None:
    """Parse repeatable ``key=value`` flags (``--opt``, ``--policy-opt``)."""
    items = getattr(args, attribute, None)
    if not items:
        return None
    options: dict[str, str] = {}
    for item in items:
        key, separator, value = item.partition("=")
        if not separator or not key:
            raise ReproError(
                f"{flag} expects key=value, got {item!r}"
            )
        options[key.strip().replace("-", "_")] = value.strip()
    return options


# ---------------------------------------------------------------------- #
# subcommands


def _cmd_plan(args: argparse.Namespace) -> int:
    pool = _pool_from_args(args)
    app_work = _app_work_from_args(args)
    session = PlanningSession()
    deployment = session.plan(
        pool=pool,
        app_work=app_work,
        demand=args.demand,
        method=args.method,
        options=_options_from_args(args),
        seed=args.seed,
    )
    plan = DeploymentPlan(
        hierarchy=deployment.hierarchy,
        params=deployment.params,
        app_work=app_work,
        method=deployment.method,
        metadata={"pool": pool.describe()},
    )
    print(plan.describe())
    if args.output:
        Path(args.output).write_text(plan_to_xml(plan))
        print(f"plan written to {args.output}")
    if args.show_tree:
        print(deployment.hierarchy.describe())
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    plan = plan_from_xml(Path(args.plan).read_text())
    from repro.core.throughput import hierarchy_throughput

    report = hierarchy_throughput(plan.hierarchy, plan.params, plan.app_work)
    print(plan.describe())
    print(
        f"rho = {format_rate(report.throughput)} req/s "
        f"({report.bottleneck}-bound; sched={format_rate(report.sched)}, "
        f"service={format_rate(report.service)}; "
        f"limiting node = {report.limiting_node})"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    plan = plan_from_xml(Path(args.plan).read_text())
    platform = GoDIET(seed=args.seed).launch(plan)
    ramp = ClientRamp(
        client_interval=args.client_interval,
        max_clients=args.max_clients,
        hold_duration=args.hold,
    )
    result = ramp.run(platform.system)
    print(plan.describe())
    print(
        f"measured max sustained throughput: "
        f"{format_rate(result.max_sustained)} req/s with "
        f"{result.clients_at_peak} clients "
        f"(predicted {format_rate(plan.predicted_throughput)} req/s)"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    pool = _pool_from_args(args)
    app_work = _app_work_from_args(args)
    session = PlanningSession()
    methods = tuple(
        m.strip() for m in args.methods.split(",") if m.strip()
    ) if args.methods else ("heuristic", "star", "balanced")
    ranked = session.rank(
        pool,
        app_work,
        methods=methods,
        measure=True,
        clients=args.clients,
        duration=args.duration,
        seed=args.seed,
    )
    print(
        ascii_table(
            headers=[
                "method", "nodes", "agents", "servers", "height",
                "predicted", "measured",
            ],
            rows=[
                [
                    entry.method, *entry.shape,
                    format_rate(entry.predicted),
                    format_rate(entry.measured or 0.0),
                ]
                for entry in ranked
            ],
            title=f"Deployment comparison on {pool.describe()}",
        )
    )
    return 0


def _cmd_improve(args: argparse.Namespace) -> int:
    from repro.extensions.redeploy import improve_deployment

    plan = plan_from_xml(Path(args.plan).read_text())
    has_pool_flags = (
        args.nodes is not None
        or args.powers is not None
        or args.random is not None
    )
    spares = (
        list(_pool_from_args(args, prefix=args.spare_prefix))
        if has_pool_flags
        else []
    )
    result = improve_deployment(
        plan.hierarchy,
        spares,
        plan.params,
        plan.app_work,
        max_iterations=args.max_iterations,
    )
    if result.actions:
        print(
            ascii_table(
                headers=["step", "move", "node", "target", "rho before",
                         "rho after"],
                rows=[
                    [
                        index + 1, action.move, action.node, action.target,
                        format_rate(action.throughput_before),
                        format_rate(action.throughput_after),
                    ]
                    for index, action in enumerate(result.actions)
                ],
                title=f"Improvement plan for {args.plan}",
            )
        )
    else:
        print("no improving move found; the deployment is already tight")
    print(
        f"throughput {format_rate(result.initial_throughput)} -> "
        f"{format_rate(result.final_throughput)} req/s "
        f"({result.improvement_factor:.2f}x), "
        f"{len(result.spares_left)} spare(s) left"
    )
    if args.output:
        improved = DeploymentPlan(
            hierarchy=result.hierarchy,
            params=plan.params,
            app_work=plan.app_work,
            method=f"{plan.method}+improve",
            metadata=dict(plan.metadata),
        )
        Path(args.output).write_text(plan_to_xml(improved))
        print(f"improved plan written to {args.output}")
    if args.show_tree:
        print(result.hierarchy.describe())
    return 0


def _sweep_policy_options(
    policies: tuple[str, ...], options: dict[str, str] | None
) -> dict[str, dict[str, str]] | None:
    """Distribute ``--policy-opt`` flags across the swept policies.

    Each option goes to every policy that accepts it (e.g.
    ``hysteresis=1`` tunes ``reactive`` without breaking ``hold``,
    which takes no options); an option no swept policy accepts is an
    error, not a silent drop.
    """
    from repro.control.policy import accepted_options

    if not options:
        return None
    per_policy: dict[str, dict[str, str]] = {}
    claimed: set[str] = set()
    for policy in policies:
        accepted = accepted_options(policy)
        chosen = {
            key: value for key, value in options.items() if key in accepted
        }
        claimed.update(chosen)
        if chosen:
            per_policy[policy] = chosen
    orphaned = sorted(set(options) - claimed)
    if orphaned:
        raise ReproError(
            f"--policy-opt {orphaned} not accepted by any swept policy "
            f"({', '.join(policies)})"
        )
    return per_policy or None


def _cmd_control(args: argparse.Namespace) -> int:
    from repro.analysis.report import render_timeline
    from repro.control.traces import from_spec

    pool = _pool_from_args(args)
    app_work = _app_work_from_args(args)
    policy_options = _options_from_args(
        args, attribute="policy_opt", flag="--policy-opt"
    )
    session = PlanningSession()
    if args.sweep:
        policies = tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        ) or (args.policy,)
        try:
            seeds = tuple(
                int(s) for s in args.seeds.split(",") if s.strip()
            ) or (args.seed,)
        except ValueError as exc:
            raise ReproError(
                f"--seeds expects comma-separated integers, "
                f"got {args.seeds!r}: {exc}"
            ) from exc
        cells = session.control_sweep(
            pool,
            app_work,
            traces=tuple(args.trace),
            policies=policies,
            seeds=seeds,
            policy_options=_sweep_policy_options(policies, policy_options),
            max_workers=args.workers,
            epochs=args.epochs,
            epoch_duration=args.epoch_duration,
            base_method=args.base_method,
            initial_fraction=args.initial_fraction,
            migration=args.migration,
            think_time=args.think_time,
            executor=args.executor,
            executor_workers=args.executor_workers,
            **({"faults": args.faults} if args.faults else {}),
            **({"detection": args.detection} if args.detection else {}),
        )
        print(
            ascii_table(
                headers=[
                    "trace", "policy", "seed", "served", "mean req/s",
                    "redeploys", "downtime s", "final nodes",
                ],
                rows=[
                    [
                        cell.trace,
                        cell.policy,
                        cell.seed,
                        cell.timeline.total_served,
                        f"{cell.timeline.mean_served_rate:.1f}",
                        cell.timeline.redeploys,
                        f"{cell.timeline.migration_downtime:.2f}",
                        cell.timeline.final_shape[0],
                    ]
                    for cell in cells
                ],
                title=(
                    f"Control sweep ({len(cells)} cells, "
                    f"{args.migration} migration) on {pool.describe()}"
                ),
            )
        )
        return 0
    if len(args.trace) != 1:
        raise ReproError(
            "multiple --trace flags require --sweep; "
            "a single run takes exactly one trace"
        )
    timeline = session.control_run(
        pool,
        app_work,
        trace=from_spec(args.trace[0]),
        policy=args.policy,
        epochs=args.epochs,
        epoch_duration=args.epoch_duration,
        base_method=args.base_method,
        initial_fraction=args.initial_fraction,
        policy_options=policy_options,
        migration=args.migration,
        think_time=args.think_time,
        seed=args.seed,
        faults=args.faults,
        executor=args.executor,
        executor_workers=args.executor_workers,
        **({"detection": args.detection} if args.detection else {}),
    )
    print(render_timeline(timeline))
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import json

    from repro.control.traces import from_spec
    from repro.obs import Obs

    pool = _pool_from_args(args)
    app_work = _app_work_from_args(args)
    obs = Obs()
    session = PlanningSession()
    timeline = session.control_run(
        pool,
        app_work,
        trace=from_spec(args.trace[0] if isinstance(args.trace, list)
                        else args.trace),
        policy=args.policy,
        epochs=args.epochs,
        epoch_duration=args.epoch_duration,
        migration=args.migration,
        seed=args.seed,
        obs=obs,
        executor=args.executor,
        executor_workers=args.executor_workers,
        **({"faults": args.faults} if args.faults else {}),
        **({"detection": args.detection} if args.detection else {}),
    )
    output = Path(args.output)
    output.write_text(obs.tracer.to_chrome(), encoding="utf-8")
    lines = []
    if args.metrics_output:
        for record in timeline.records:
            payload = {"epoch": record.index, "t": record.start}
            payload.update(record.metrics.as_dict())
            lines.append(
                json.dumps(payload, sort_keys=True, separators=(",", ":"))
            )
        Path(args.metrics_output).write_text(
            "\n".join(lines) + "\n", encoding="utf-8"
        )
    spans = len(obs.tracer.spans())
    events = len(obs.tracer.events())
    print(
        f"wrote {output} ({spans} spans, {events} events, "
        f"{len(obs.tracer)} records) — load it at chrome://tracing "
        "or https://ui.perfetto.dev"
    )
    if args.metrics_output:
        print(
            f"wrote {args.metrics_output} "
            f"({len(lines)} per-epoch metric snapshots)"
        )
    print(timeline.describe())
    return 0


def _cmd_planners(args: argparse.Namespace) -> int:
    rows = []
    for planner in REGISTRY:
        fields = dataclasses.fields(planner.options_type)
        options = ", ".join(
            f"{f.name}={f.default!r}"
            if f.default is not dataclasses.MISSING
            else f.name
            for f in fields
        ) or "-"
        rows.append(
            [
                planner.name,
                ", ".join(sorted(planner.capabilities)),
                planner.options_type.__name__,
                options,
            ]
        )
    print(
        ascii_table(
            headers=["planner", "capabilities", "options type", "options"],
            rows=rows,
            title="Registered planners (repro-deploy plan --method NAME "
            "--opt key=value)",
        )
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    result = calibrate(
        DEFAULT_PARAMS,
        capture_repetitions=args.repetitions,
        seed=args.seed,
    )
    print(render_table3(result, reference=DEFAULT_PARAMS))
    return 0


# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """Construct the ``repro-deploy`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro-deploy",
        description=(
            "Automatic middleware deployment planning on heterogeneous "
            "platforms (Caron, Chouhan, Desprez 2008) — reproduction CLI"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_plan = sub.add_parser("plan", help="plan a deployment for a pool")
    _add_pool_args(p_plan)
    _add_workload_args(p_plan)
    p_plan.add_argument("--demand", type=float, help="client demand (req/s)")
    p_plan.add_argument(
        "--method", choices=REGISTRY.available(), default="heuristic",
        help="planner name (see `repro-deploy planners`)",
    )
    p_plan.add_argument(
        "--opt", action="append", metavar="KEY=VALUE",
        help="planner option (repeatable); validated against the "
        "planner's typed options",
    )
    p_plan.add_argument("--output", type=str, help="write plan XML here")
    p_plan.add_argument(
        "--show-tree", action="store_true", help="print the hierarchy"
    )
    p_plan.set_defaults(func=_cmd_plan)

    p_predict = sub.add_parser("predict", help="model throughput of a plan")
    p_predict.add_argument("plan", type=str, help="plan XML file")
    p_predict.set_defaults(func=_cmd_predict)

    p_sim = sub.add_parser("simulate", help="measure a plan in the DES")
    p_sim.add_argument("plan", type=str, help="plan XML file")
    p_sim.add_argument("--client-interval", type=float, default=0.2)
    p_sim.add_argument("--max-clients", type=int, default=400)
    p_sim.add_argument("--hold", type=float, default=15.0)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_cmp = sub.add_parser(
        "compare", help="rank planning methods on one pool"
    )
    _add_pool_args(p_cmp)
    _add_workload_args(p_cmp)
    p_cmp.add_argument(
        "--methods", type=str,
        help="comma-separated planner names "
        "(default heuristic,star,balanced)",
    )
    p_cmp.add_argument("--clients", type=int, default=100)
    p_cmp.add_argument("--duration", type=float, default=15.0)
    p_cmp.set_defaults(func=_cmd_compare)

    p_improve = sub.add_parser(
        "improve",
        help="iteratively remove bottlenecks from a deployed plan",
    )
    p_improve.add_argument("plan", type=str, help="plan XML file")
    _add_pool_args(p_improve)
    p_improve.add_argument(
        "--spare-prefix", type=str, default="spare",
        help="name prefix for the spare pool (avoids collisions with "
        "deployed node names; default 'spare')",
    )
    p_improve.add_argument(
        "--max-iterations", type=int, default=100,
        help="improvement step budget (default 100)",
    )
    p_improve.add_argument(
        "--output", type=str, help="write the improved plan XML here"
    )
    p_improve.add_argument(
        "--show-tree", action="store_true", help="print the improved tree"
    )
    p_improve.set_defaults(func=_cmd_improve)

    p_control = sub.add_parser(
        "control", help="run the online autoscaling control loop"
    )
    _add_pool_args(p_control)
    _add_workload_args(p_control)
    p_control.add_argument(
        "--trace", type=str, required=True, action="append",
        help="workload trace spec, e.g. 'flash:base=5,peak=60,at=30', "
        "'diurnal:base=5,peak=40,period=120' or a fixture name like "
        "'wikipedia_flash' (types: constant, ramp, diurnal, burst, "
        "flash, piecewise, fixture); repeatable with --sweep",
    )
    p_control.add_argument(
        "--policy", choices=available_policies(), default="reactive",
        help="autoscaling policy (default reactive)",
    )
    p_control.add_argument(
        "--policy-opt", action="append", metavar="KEY=VALUE",
        help="policy option (repeatable), e.g. hysteresis=1",
    )
    p_control.add_argument(
        "--migration", choices=MIGRATION_MODES, default="live",
        help="redeploy mechanism: live subtree migration (default), "
        "concurrent wave-parallel drains, or stop-the-world restart",
    )
    p_control.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="inline",
        help="act-stage executor: inline direct apply (default), "
        "local in-process daemons over the wire protocol, or pool "
        "per-region daemon processes — the timeline is bit-identical "
        "across all three",
    )
    p_control.add_argument(
        "--executor-workers", type=int, default=None, metavar="N",
        help="process count for --executor pool (default: pool default)",
    )
    p_control.add_argument(
        "--sweep", action="store_true",
        help="run the (trace x policy x seed) grid over a process pool "
        "and print one summary row per cell",
    )
    p_control.add_argument(
        "--policies", type=str, default="",
        help="comma-separated policy names for --sweep "
        "(default: the --policy value)",
    )
    p_control.add_argument(
        "--seeds", type=str, default="",
        help="comma-separated seeds for --sweep (default: the --seed "
        "value)",
    )
    p_control.add_argument(
        "--workers", type=int, default=None,
        help="process-pool size for --sweep (default: CPU count)",
    )
    p_control.add_argument(
        "--epochs", type=int, default=30,
        help="number of control epochs (default 30)",
    )
    p_control.add_argument(
        "--epoch-duration", type=float, default=5.0,
        help="simulated seconds per epoch (default 5)",
    )
    p_control.add_argument(
        "--base-method", choices=REGISTRY.available(), default="heuristic",
        help="planner for the initial deployment and replans",
    )
    p_control.add_argument(
        "--initial-fraction", type=float, default=0.5,
        help="fraction of the pool deployed initially (default 0.5)",
    )
    p_control.add_argument(
        "--think-time", type=float, default=0.0,
        help="client think time between requests (default 0)",
    )
    p_control.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="fault schedule injected into the run, e.g. "
        "'crash:target=busiest-child,at=45' or "
        "'degrade:target=node-3,at=20,factor=0.25;"
        "heal:target=node-3,at=60' (kinds: crash, degrade, partition, "
        "heal, storm, subtree-storm; targets: node names or "
        "busiest-child / busiest-server)",
    )
    p_control.add_argument(
        "--detection", type=str, default=None, metavar="SPEC",
        help="switch from oracle health to timeout-modelled failure "
        "detection, e.g. 'timeout=0.5,retries=1,backoff=2,threshold=3,"
        "grace=2,reserve=0.2' — faults land silently, agents watch "
        "their children with retry ladders, and the controller only "
        "acts on suspicions the grace window confirms (reserve= holds "
        "that fraction of the pool back from scale-ups for repairs)",
    )
    p_control.set_defaults(func=_cmd_control)

    p_trace = sub.add_parser(
        "trace",
        help="run one traced control loop and export a Chrome trace",
    )
    _add_pool_args(p_trace)
    _add_workload_args(p_trace)
    p_trace.add_argument(
        "--trace", type=str, required=True,
        help="workload trace spec (same grammar as 'control --trace')",
    )
    p_trace.add_argument(
        "--policy", choices=available_policies(), default="reactive",
        help="autoscaling policy (default reactive)",
    )
    p_trace.add_argument(
        "--migration", choices=MIGRATION_MODES, default="live",
        help="redeploy mechanism (default live)",
    )
    p_trace.add_argument(
        "--executor", choices=EXECUTOR_KINDS, default="inline",
        help="act-stage executor (same choices as 'control "
        "--executor'); local/pool add per-region command/ack spans "
        "to the exported trace",
    )
    p_trace.add_argument(
        "--executor-workers", type=int, default=None, metavar="N",
        help="process count for --executor pool (default: pool default)",
    )
    p_trace.add_argument(
        "--epochs", type=int, default=30,
        help="number of control epochs (default 30)",
    )
    p_trace.add_argument(
        "--epoch-duration", type=float, default=5.0,
        help="simulated seconds per epoch (default 5)",
    )
    p_trace.add_argument(
        "--faults", type=str, default=None, metavar="SPEC",
        help="fault schedule spec (same grammar as 'control --faults')",
    )
    p_trace.add_argument(
        "--detection", type=str, default=None, metavar="SPEC",
        help="timeout-modelled detection spec (same grammar as "
        "'control --detection')",
    )
    p_trace.add_argument(
        "--output", type=str, default="trace.json", metavar="FILE",
        help="Chrome trace-event JSON output (default trace.json; "
        "open in chrome://tracing or ui.perfetto.dev)",
    )
    p_trace.add_argument(
        "--metrics-output", type=str, default=None, metavar="FILE",
        help="also write one JSON line of frozen metrics per epoch",
    )
    p_trace.set_defaults(func=_cmd_trace)

    p_list = sub.add_parser(
        "planners", help="list registered planners and their options"
    )
    p_list.set_defaults(func=_cmd_planners)

    p_cal = sub.add_parser("calibrate", help="run the Table 3 campaign")
    p_cal.add_argument("--repetitions", type=int, default=100)
    p_cal.add_argument("--seed", type=int, default=0)
    p_cal.set_defaults(func=_cmd_calibrate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point: parse arguments, dispatch, map ReproError to exit 2."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
