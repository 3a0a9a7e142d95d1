#!/usr/bin/env python
"""Warn-only comparison of two BENCH_planning.json files.

Usage::

    python benchmarks/bench_diff.py BASELINE.json CURRENT.json
    python benchmarks/bench_diff.py --threshold 0.3 base.json current.json

Loads two ``repro-bench/1`` files, matches measurement cells by
``(name, params)``, and prints the relative change per common cell.
Cells present in only one of the files (a cell added, renamed or
deleted since the baseline) are named in a section of their own.
``seconds`` and ``fraction`` cells are lower-is-better, every other
metric (``events_per_s``, ``tasks_per_s``, ``ratio``) higher-is-better.
Cells whose regression exceeds ``--threshold`` (default 25 %) are
flagged with ``!!``.  Quick and full runs use different problem sizes —
when the two files disagree on the ``quick`` flag, cells rarely overlap
and the script says so instead of comparing apples to oranges.  Likewise
when they disagree on ``host_ref_ms``: host-normalized values and raw
ones (files written before normalization carry no ``host_ref_ms``) are
not comparable, and the script says so before comparing anyway.

Control-plane cells additionally carry the controller's own adaptation
cost in ``extra.overhead_fraction``; the ROADMAP budgets that at ~5 % of
wall time.  The current file's ``control_loop`` / ``live_migration`` /
``concurrent_migration`` / ``distributed_epoch`` cells are checked
against ``--overhead-budget`` (default 0.05) and flagged — warn-only by
default, like everything here.

This is the CI ``bench-smoke`` job's trend check.  By default it
**always exits 0**: the benchmark JSON exists to make performance
drifts attributable, not to gate merges (see benchmarks/README.md), and
CI noise would make a hard gate flaky anyway.  ``--strict`` turns
exactly one class of finding into a nonzero exit — control-plane cells
over the adaptation-overhead budget, an *absolute* check that does not
depend on a noisy baseline — for local pre-merge runs and downstream
consumers that want a gate; the trend comparison stays warn-only even
then, and so do unreadable/mismatched inputs (no budget can be checked
without a current file to check it in).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Metrics where larger is worse; for rates and ratios, smaller is.
_LOWER_IS_BETTER = ("seconds", "fraction")


def _cells(payload: dict) -> dict[tuple, dict]:
    cells = {}
    for result in payload.get("results", []):
        key = (
            result.get("name", "?"),
            tuple(sorted(result.get("params", {}).items())),
        )
        cells[key] = result
    return cells


def _format_key(key: tuple) -> str:
    name, params = key
    rendered = ",".join(f"{k}={v}" for k, v in params)
    return f"{name}[{rendered}]" if rendered else name


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("current", type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative regression that earns a '!!' flag (default 0.25)",
    )
    parser.add_argument(
        "--overhead-budget",
        type=float,
        default=0.05,
        help="controller adaptation overhead_fraction that earns a "
        "'!!' flag on control-plane cells (default 0.05, the "
        "ROADMAP's ~5%% budget)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when a control-plane cell busts the overhead "
        "budget (the trend comparison stays warn-only); default is "
        "warn-only everywhere, which is what CI uses",
    )
    args = parser.parse_args(argv)
    # Warn-only contract on inputs: whatever is wrong with them, report
    # and exit 0 — even --strict only gates on a *measured* budget
    # breach, never on a comparison that could not run.
    try:
        return _compare(args)
    except Exception as exc:  # noqa: BLE001 - warn-only by design
        print(f"bench-diff: comparison failed ({exc!r}); skipping")
        return 0


def _compare(args: argparse.Namespace) -> int:
    try:
        baseline = json.loads(args.baseline.read_text())
        current = json.loads(args.current.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"bench-diff: cannot load inputs ({exc}); skipping")
        return 0

    for payload, path in ((baseline, args.baseline), (current, args.current)):
        if payload.get("schema") != "repro-bench/1":
            print(
                f"bench-diff: {path} has schema "
                f"{payload.get('schema')!r}, expected repro-bench/1; skipping"
            )
            return 0

    if baseline.get("quick") != current.get("quick"):
        print(
            "bench-diff: baseline and current differ in the `quick` flag "
            f"(baseline quick={baseline.get('quick')}, "
            f"current quick={current.get('quick')}); sizes are not "
            "comparable, reporting overlapping cells only"
        )
    if baseline.get("host_ref_ms") != current.get("host_ref_ms"):
        print(
            "bench-diff: baseline and current differ in host normalization "
            f"(baseline host_ref_ms={baseline.get('host_ref_ms')}, "
            f"current host_ref_ms={current.get('host_ref_ms')}); values "
            "are not comparable, reporting them anyway"
        )

    base_cells = _cells(baseline)
    cur_cells = _cells(current)
    common = sorted(set(base_cells) & set(cur_cells))
    if not common:
        print("bench-diff: no common measurement cells; nothing to compare")
        _report_unmatched(base_cells, cur_cells, args)
        return _budget_exit(current, args)

    print(
        f"bench-diff: {len(common)} common cell(s), "
        f"threshold {args.threshold:.0%} "
        "(warn-only; this never fails the build)"
    )
    flagged = 0
    for key in common:
        base, cur = base_cells[key], cur_cells[key]
        metric = base.get("metric", "?")
        before, after = base.get("value"), cur.get("value")
        if (
            not isinstance(before, (int, float))
            or not isinstance(after, (int, float))
            or before == 0
        ):
            print(
                f"     {_format_key(key)}: skipped "
                f"(baseline={before!r}, current={after!r})"
            )
            continue
        change = (after - before) / before
        regression = change if metric in _LOWER_IS_BETTER else -change
        flag = "!!" if regression > args.threshold else "  "
        if flag == "!!":
            flagged += 1
        print(
            f"  {flag} {_format_key(key)}: {before:g} -> {after:g} "
            f"{metric} ({change:+.1%})"
        )
    if flagged:
        print(
            f"bench-diff: {flagged} cell(s) regressed beyond "
            f"{args.threshold:.0%} — worth a look (not failing the build)"
        )
    _report_unmatched(base_cells, cur_cells, args)
    return _budget_exit(current, args)


def _report_unmatched(
    base_cells: dict, cur_cells: dict, args: argparse.Namespace
) -> None:
    """Name the cells only one file has; they cannot be compared."""
    for side, path, keys in (
        ("baseline", args.baseline, set(base_cells) - set(cur_cells)),
        ("current", args.current, set(cur_cells) - set(base_cells)),
    ):
        if keys:
            print(
                f"bench-diff: {len(keys)} cell(s) only in the {side} "
                f"({path}); not compared:"
            )
            for key in sorted(keys):
                print(f"     {_format_key(key)}")


#: Measurement families whose `extra.overhead_fraction` is controller
#: adaptation cost, subject to the ROADMAP's ~5 % budget.  Every control
#: cell publishes overhead_fraction, but `fluid_scale` is deliberately
#: absent: the hybrid model collapses simulation wall time while the
#: controller's per-epoch bookkeeping stays constant, so its overhead
#: *fraction* rises by construction — the cell gates on absolute wall
#: time against the discrete `control_loop` reference instead (asserted
#: in-suite).  The `fault_recovery` / `fault_detection` fractions are
#: likewise published for reading only.
_CONTROL_CELLS = (
    "control_loop",
    "live_migration",
    "concurrent_migration",
    "distributed_epoch",
)


def _budget_exit(current: dict, args: argparse.Namespace) -> int:
    """Run the budget check and turn it into the process exit code.

    The single place the ``--strict`` gating rule lives: breaches fail
    the run only under ``--strict``; everything else exits 0.
    """
    over = _check_overhead_budget(
        current, args.overhead_budget, strict=args.strict
    )
    return 1 if args.strict and over else 0


def _check_overhead_budget(
    current: dict, budget: float, strict: bool = False
) -> int:
    """Flag control-plane cells whose adaptation overhead busts the budget.

    Checked on the *current* run only — the budget is absolute, not a
    trend, so it needs no baseline cell to compare against.  Returns
    the number of cells over budget (what ``--strict`` gates on).
    """
    over = []
    for key, result in _cells(current).items():
        if key[0] not in _CONTROL_CELLS:
            continue
        fraction = result.get("extra", {}).get("overhead_fraction")
        if isinstance(fraction, (int, float)) and fraction > budget:
            over.append((key, fraction))
    verdict = "failing the build" if strict else "warn-only"
    for key, fraction in over:
        print(
            f"  !! {_format_key(key)}: adaptation overhead "
            f"{fraction:.1%} of wall time exceeds the ~{budget:.0%} "
            f"budget ({verdict})"
        )
    if over:
        print(
            f"bench-diff: {len(over)} control-plane cell(s) over the "
            f"adaptation-overhead budget — "
            + (
                "failing the build (--strict)"
                if strict
                else "worth a look (not failing the build)"
            )
        )
    return len(over)


if __name__ == "__main__":
    sys.exit(main())
