#!/usr/bin/env python3
"""End-to-end benchmark of the planner and the DES-backed control plane.

Run from the repository root::

    python3 benchmarks/e2e/run.py                       # all four workloads
    python3 benchmarks/e2e/run.py --workload flash_restart --seed 4
    python3 benchmarks/e2e/run.py --workload plan_sweep --trace 1

Each workload runs in fresh processes, one at a time, on one core.  The
first ``SETUPS - 1`` processes only set up (imports, inputs, objects,
warm-up) so that ``setup_s`` is a median of several process starts; the
last one sets up and then runs timed units for ``--seconds``.  With
``--trace 1`` it spends the first part of that time untraced, then runs
units with every layer's entry points wrapped (``layers.py``), then one
unit under cProfile.

Every reported time is host-normalized (``hostspeed.py``): a reference
kernel is timed between ops, and each op's time is scaled to a host
running that kernel in ``REF_MS``.  The raw medians are printed beside.

The command prints every metric with its unit, writes
``results/<workload>-seed<S>-<stamp>.json`` (plus a Chrome trace when
tracing), and ends with one JSON line: the end-to-end metrics of
``BENCHMARK.json`` (``--trace 0``) or its per-layer metrics
(``--trace 1``).  It exits 1 if a correctness check failed: digests that
differ between units, between traced and untraced units, or between
processes (``results/digests.json``); lost conversations; a repeated
plan request answered by another deployment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORKLOADS = ("plan_sweep", "flash_restart", "black_friday_faults", "fluid_million")
#: Processes that set a workload up; the median of their times is setup_s.
SETUPS = 3
#: Fewest untraced units a run measures, so digests compare across units.
MIN_UNITS = 2
#: With --trace 1: share of --seconds spent untraced, then traced.
UNTRACED_SHARE, TRACED_SHARE = 0.3, 0.3
#: Hard limit on one workload's wall time, seconds.
TIME_LIMIT = 170.0
#: Host-speed probes on each side of a workload process's set-up.
SETUP_PROBES = 5

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "throughput_rps": "req/s",
    "failed_frac": "fraction",
    "host.ref_ms": "ms",
}


def _clock() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0
    )
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, one set-up process"
    )
    parser.add_argument("--out", type=Path, default=HERE / "results")
    # Internal: how the parent process talks to its workload processes.
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--stem", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------- #
# workload process


def _run_units(workload, until: float, minimum: int, run_unit) -> list:
    """Run units until ``until`` has passed and at least ``minimum`` ran.

    Each unit starts from a collected heap, so the garbage one unit leaves
    is not collected inside the next one's timing.
    """
    results = []
    while len(results) < minimum or time.perf_counter() < until:
        gc.collect()
        results.append(run_unit(workload))
    return results


def _measure(args) -> dict:
    import resource

    from hostspeed import REF_MS, probe

    # Set-up time is normalized by the host speed probed on both sides
    # of it, excluding the probes themselves.
    host: list[float] = []
    for _ in range(SETUP_PROBES):
        probe(host)
    sys.path.insert(0, str(SRC))
    from workloads import make_workload

    workload = make_workload(args.workload, args.seed, args.smoke)
    workload.warm()
    raw_setup = _clock() - args.spawned_at - sum(host) / 1e3
    for _ in range(SETUP_PROBES):
        probe(host)
    setup = raw_setup * REF_MS / statistics.median(host)
    if args.role == "setup":
        return {"setup_s": setup, "raw_setup_s": raw_setup}

    start = time.perf_counter()
    share = UNTRACED_SHARE if args.trace else 1.0
    units = _run_units(
        workload, start + share * args.seconds, MIN_UNITS, lambda w: w.run_unit()
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out = {
        "setup_s": setup,
        "raw_setup_s": raw_setup,
        "peak_rss_mb": peak_rss_mb,
        "unit_walls": [unit.normalized_wall for unit in units],
        "raw_walls": [unit.wall for unit in units],
        "ops": [op for unit in units for op in unit.normalized_ops],
        "host_ms": [p for unit in units for p in unit.probes],
        "throughput": units[0].throughput,
        "attempted": sum(unit.attempted for unit in units),
        "failed": sum(unit.failed for unit in units),
    }
    if args.trace:
        from layers import LAYER_METRICS, Tracer, profile_shares

        with Tracer() as tracer:
            traced = _run_units(
                workload,
                start + (UNTRACED_SHARE + TRACED_SHARE) * args.seconds,
                1, tracer.run_unit,
            )
        tracer.write_chrome(f"{args.stem}.trace.json")
        profiled, shares = profile_shares(workload)

        def normalized(name, value, unit):
            timed = LAYER_METRICS[name][0] in ("s", "ns")
            return value * unit.factor if timed else value

        layers = {
            name: statistics.median_low(
                normalized(name, metrics[name], unit) for unit, metrics in traced
            )
            for name in traced[0][1]
        }
        layers.update(shares)
        layers["trace.overhead"] = (
            statistics.median(unit.normalized_wall for unit, _ in traced)
            / statistics.median(out["unit_walls"])
            - 1.0
        )
        layers["host.ref_ms"] = statistics.median(
            p for unit, _ in traced for p in unit.probes
        )
        out["layers"] = {
            name: [value, LAYER_METRICS[name][0]] for name, value in layers.items()
        }
        out["span_check"] = [
            {"wall": unit.wall, "top_s": top,
             "self_s": metrics["control.loop.self_s"],
             "sim_run_s": metrics["sim.run_s"]}
            for (unit, metrics), top in zip(traced, tracer.tops)
        ]
        units += [unit for unit, _ in traced] + [profiled]
    out["digests"] = sorted({unit.digest for unit in units})
    out["errors"] = sorted({e for unit in units for e in unit.errors})
    return out


# ---------------------------------------------------------------------- #
# parent process


def _command(args, workload: str) -> list[str]:
    """This script's command line for ``workload`` with ``args``' settings."""
    return [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", str(args.trace),
        "--out", str(args.out),
    ] + (["--smoke"] if args.smoke else [])


def _spawn(args, role: str, stem: Path, deadline: float) -> dict:
    command = _command(args, args.workload) + ["--role", role, "--stem", str(stem)]
    completed = subprocess.run(
        command + ["--spawned-at", repr(_clock())],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if completed.returncode != 0:
        raise RuntimeError(f"{role} process exited with {completed.returncode}")
    return json.loads(completed.stdout.strip().splitlines()[-1])


def _source_hash() -> str:
    """Digest of the code a timeline depends on: the package and this benchmark."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _check_across_processes(args, digest: str) -> str | None:
    """Compare ``digest`` with earlier runs of the same code and inputs."""
    path = args.out / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = "/".join(
        [args.workload, f"seed{args.seed}", "smoke" if args.smoke else "full",
         _source_hash()]
    )
    previous = known.setdefault(key, digest)
    path.write_text(json.dumps(known, indent=1, sort_keys=True))
    if previous != digest:
        return f"digest {digest[:12]} differs from an earlier process's {previous[:12]}"
    return None


def _e2e(children: list[dict]) -> dict:
    """End-to-end metrics: name -> (value, note)."""
    child = children[-1]
    setups = [c["setup_s"] for c in children]
    raw_setup = statistics.median(c["raw_setup_s"] for c in children)
    walls = child["unit_walls"]
    ops_ms = [op * 1e3 for op in child["ops"]]
    q1, median, q3 = quartiles(walls)
    p90 = statistics.quantiles(ops_ms, n=10)[-1] if len(ops_ms) > 1 else ops_ms[0]
    h1, host, h3 = quartiles(child["host_ms"])
    attempted, failed = child["attempted"], child["failed"]
    return {
        "setup_s": (statistics.median(setups),
                    f"median of {len(setups)} process starts, raw {raw_setup:.4f}"),
        "wall_s": (median, f"q1 {q1:.4f}  q3 {q3:.4f}  n={len(walls)} units, "
                           f"raw {statistics.median(child['raw_walls']):.4f}"),
        "op_ms.p50": (statistics.median(ops_ms), f"n={len(ops_ms)} ops"),
        "op_ms.p90": (p90, f"n={len(ops_ms)} ops, {sum(x > p90 for x in ops_ms)} beyond"),
        "peak_rss_mb": (child["peak_rss_mb"], ""),
        "throughput_rps": (child["throughput"], ""),
        "failed_frac": (failed / attempted if attempted else 0.0,
                        f"attempted={attempted} failed={failed}"),
        "host.ref_ms": (host, f"iqr {h3 - h1:.3f} ms, n={len(child['host_ms'])} probes"),
    }


def run_workload(args) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%d-%H%M%S")
    stem = args.out / (
        f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}"
        f"-{stamp}-{os.getpid()}"
    )
    deadline = time.monotonic() + TIME_LIMIT
    roles = ["setup"] * ((1 if args.smoke else SETUPS) - 1) + ["measure"]
    children = [_spawn(args, role, stem, deadline) for role in roles]
    child = children[-1]

    errors = list(child["errors"])
    if len(child["digests"]) != 1:
        errors.append(f"units disagree: digests {child['digests']}")
    else:
        mismatch = _check_across_processes(args, child["digests"][0])
        if mismatch:
            errors.append(mismatch)
    e2e = _e2e(children)
    layers = child.get("layers", {})

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'untraced'}  digest {child['digests'][0][:16]}")
    for name, (value, note) in e2e.items():
        print(f"  {name:<36} {value:>14.6g} {E2E_UNITS[name]:<9} {note}")
    for name, (value, unit) in layers.items():
        print(f"  {name:<36} {value:>14.6g} {unit:<9}")
    for error in errors:
        print(f"  FAILED: {error}")

    metrics = {name: {"value": v, "unit": E2E_UNITS[name]} for name, (v, _) in e2e.items()}
    metrics.update(
        {name: {"value": v, "unit": unit} for name, (v, unit) in layers.items()}
    )
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "correct": not errors,
        "errors": errors,
        "digest": child["digests"][0],
        "metrics": metrics,
        "setups": [[c["setup_s"], c["raw_setup_s"]] for c in children],
        "unit_walls": child["unit_walls"],
        "raw_walls": child["raw_walls"],
        "host_ms": child["host_ms"],
        "span_check": child.get("span_check", []),
    }
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    chosen = spec["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not errors,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in chosen},
    }))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload in turn, each by its own invocation of this script."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in WORKLOADS:
        completed = subprocess.run(_command(args, workload), stdout=subprocess.PIPE,
                                   text=True, timeout=TIME_LIMIT + 10)
        lines = completed.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        summary = json.loads(lines[-1])
        correct &= summary["correct"] and completed.returncode == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        metrics.update({f"{workload}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no package source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.role:
        print(json.dumps(_measure(args)))
        return 0
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
