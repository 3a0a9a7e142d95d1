#!/usr/bin/env python3
"""Compare two sets of end-to-end results, one row per workload x metric.

    python3 benchmarks/e2e/compare.py --base results-before --change results-after

Each side is a list of result files or directories of them, as written by
``run.py --out DIR`` with ``--trace 0``, at least two runs per workload.
A verdict follows the benchmark's rules:

* ``better``: the change wins at least 9 of 10 pairs (runs paired by seed,
  else in order; ties count for neither) and the medians differ by more
  than the base's interquartile range, or every change run beats every
  base run;
* ``unresolved``: either side's spread (IQR / median) exceeds the bound,
  or, for a time, the two sides' ``host.ref_ms`` medians differ by more
  than 5 %, so host speed, not the code, may explain the gap;
* ``worse``: the change's median is worse than the base's by more than
  the bound;
* ``same`` otherwise.

A metric equal on every pair of same-seed runs reads ``identical per
seed``: ``throughput_rps`` and ``failed_frac`` are deterministic, so a
speed-only change must keep them so.  ``failed_frac`` has no bound: any
rise is flagged.  The ``host.ref_ms`` row shows the host-speed gap.
Exits 1 when a row is ``worse`` or flagged.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from run import quartiles

ROOT = Path(__file__).resolve().parents[2]
HOST_TOLERANCE = 0.05
WIN_SHARE = 0.9
TIME_UNITS = frozenset({"s", "ms"})


def load(paths) -> dict:
    """workload -> list of untraced result records, ordered by file name."""
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = defaultdict(list)
    for file in files:
        record = json.loads(file.read_text())
        if isinstance(record, dict) and record.get("trace") == 0:
            runs[record["workload"]].append(record)
    return runs


def seed_pairs(base: list, change: list) -> list[tuple[dict, dict]]:
    """Runs of the two sides paired by seed (each run used once)."""
    by_seed = defaultdict(list)
    for record in change:
        by_seed[record["seed"]].append(record)
    return [(b, by_seed[b["seed"]].pop(0)) for b in base if by_seed[b["seed"]]]


def verdict(base, change, better: str, bound: float, paired, host_gap: float) -> str:
    """The verdict on one metric; ``host_gap`` is 0 for non-time metrics."""
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    if all(sign * (c - b) < 0 for c in change for b in base):
        return "better"
    if host_gap > HOST_TOLERANCE or max((b3 - b1) / bm, (c3 - c1) / cm) > bound:
        return "unresolved"
    if sign * (cm - bm) / bm > bound:
        return "worse"
    wins = sum(sign * (c - b) < 0 for b, c in paired)
    if wins >= WIN_SHARE * len(paired) and abs(cm - bm) > b3 - b1:
        return "better"
    return "same"


def compare(base_runs: dict, change_runs: dict, metrics: list) -> list[dict]:
    rows = []
    for workload in sorted(set(base_runs) & set(change_runs)):
        base, change = base_runs[workload], change_runs[workload]
        if min(len(base), len(change)) < 2:
            print(f"{workload}: needs >= 2 runs per side, skipped", file=sys.stderr)
            continue
        host = [
            statistics.median(r["metrics"]["host.ref_ms"]["value"] for r in side)
            for side in (base, change)
        ]
        host_gap = abs(host[1] - host[0]) / host[0]
        by_seed = seed_pairs(base, change)
        paired = by_seed or list(zip(base, change))
        for spec in metrics:
            name = spec["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in change]
            values = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                      for x, y in paired]
            if name == "host.ref_ms":
                result = f"host gap {host_gap:.1%}"
            elif by_seed and all(x == y for x, y in values):
                result = "identical per seed"
            elif name == "failed_frac":
                rose = statistics.median(c) > statistics.median(b)
                result = "FLAG: rose" if rose else "same"
            elif "bound" not in spec:
                result = "differs per seed"
            else:
                timed = spec["unit"] in TIME_UNITS
                result = verdict(b, c, spec["better"], spec["bound"], values,
                                 host_gap if timed else 0.0)
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "base": quartiles(b),
                         "change": quartiles(c), "bound": spec.get("bound"),
                         "verdict": result})
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"] + [
        {"name": "throughput_rps", "unit": "req/s"},
        {"name": "failed_frac", "unit": "fraction"},
        {"name": "host.ref_ms", "unit": "ms"},
    ]
    rows = compare(load(args.base), load(args.change), metrics)
    print(f"{'workload':<20} {'metric':<15} {'unit':<8} "
          f"{'base median [q1, q3]':<32} {'change median [q1, q3]':<32} "
          f"{'delta':>7} {'bound':>6}  verdict")
    for row in rows:
        (b1, bm, b3), (c1, cm, c3) = row["base"], row["change"]
        delta = (cm - bm) / bm if bm else 0.0
        bound = "-" if row["bound"] is None else f"{row['bound']:.2f}"
        print(f"{row['workload']:<20} {row['metric']:<15} {row['unit']:<8} "
              f"{f'{bm:.5g} [{b1:.5g}, {b3:.5g}]':<32} "
              f"{f'{cm:.5g} [{c1:.5g}, {c3:.5g}]':<32} "
              f"{delta:>+7.1%} {bound:>6}  {row['verdict']}")
    bad = [r for r in rows if r["verdict"] == "worse" or r["verdict"].startswith("FLAG")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
