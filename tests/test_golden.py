"""Golden control timelines: the determinism contract across commits.

Same seed ⇒ bit-identical :class:`~repro.control.ControlTimeline` holds
within one run by construction; this module holds it *across commits*.
``tests/golden/control_timelines.json`` pins three digests per cell of a
small corpus, and the tests recompute every one:

* ``full`` — sha256 of ``repr(timeline) + repr(timeline.records)``, the
  digest the end-to-end benchmark checks;
* ``compaction_blind`` — the same sha256 with the
  ``engine_heap_compactions`` counter removed from every record's
  metrics.  That counter records how the engine keeps its heap, not
  what fires, so a change to heap bookkeeping alone moves ``full`` and
  leaves this one fixed;
* ``engine_blind`` — ``compaction_blind`` with the ``engine_events``
  counter removed too.  That counter records how many callbacks the
  engine fired to reach the timeline, so a change that merges or
  elides events without changing what any of them does moves the
  other two digests and leaves this one fixed.

A refactor that claims "same behaviour" passes unchanged; a change that
alters timelines on purpose regenerates the file and says why in
CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py --write

The corpus, at quick sizes (16 nodes, 18 two-second epochs, a
time-compressed ``black_friday`` shape with a surge, a trough and a
second wave, so live plans drain several regions at once):

* every migration mode — ``live``, ``concurrent`` and ``restart``;
* each with no faults, an oracle crash, a silent crash under
  timeout-modelled ``detection=`` with a ``reserve=``, and a hybrid
  ``population=``/``cohort=`` trace;
* seeds 0 and 1;
* plus ``live`` and ``concurrent`` with ``drain_seconds=0`` (every drain
  capped out at once) on the no-fault and oracle-crash scenarios;
* plus ``live`` and ``concurrent`` on two fault branches the four
  scenarios above never reach, seeds 0 and 1 each: ``evict`` (a
  degraded server under detection, drained and replaced by the policy's
  ``evict_after``/``evict_fraction`` rule) and ``partition`` (an
  oracle-health partition and its heal, which recompute capacity over a
  dark subtree; ``restart`` rebuilds the platform and forgets the
  partition, so the heal would not land there).

Every cell above runs the ``reactive`` policy.  Five ``live``, seed-0
cells pin the other built-in policies' decisions: ``predictive`` and
``predictive_ewma`` on the ``crash`` and ``evict`` scenarios (their
shared repair and eviction gates, plus their own improve and replan
rules), and ``oracle`` with no faults.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.control import (
    ControlLoop,
    HybridTrace,
    MigrationCostModel,
    piecewise,
)
from repro.platforms.pool import NodePool
from repro.units import dgemm_mflop

GOLDEN = Path(__file__).resolve().parent / "golden" / "control_timelines.json"

#: ``black_friday`` at twice the speed: doors-open surge, peak, trough
#: (the multi-region scale-down), evening wave, wind-down.
STEPS = (
    (0.0, 6), (10.0, 24), (20.0, 36), (30.0, 18), (40.0, 32), (52.0, 14),
    (64.0, 5),
)
MODES = ("live", "concurrent", "restart")
SCENARIOS = ("none", "crash", "silent", "hybrid")
SEEDS = (0, 1)
CRASH = "crash:target=busiest-child,at=14"
DETECTION = "timeout=0.5,retries=0,threshold=3,reserve=0.2"
DEGRADE = "degrade:target=busiest-server,at=10,factor=0.03"
#: The heal names its target: by then ``busiest-child`` is a lit sibling.
PARTITION = "partition:target=busiest-child,at=14;heal:target=node-00,at=24"
#: Options per policy; ``oracle`` has no cooldown, repair or eviction.
POLICY_OPTIONS = {
    "reactive": {"hysteresis": 1, "cooldown": 1, "repair": True},
    "predictive": {"cooldown": 1, "repair": True},
    "predictive_ewma": {"cooldown": 1, "repair": True},
    "oracle": {},
}
#: The non-reactive policies' cells, all ``live`` at seed 0.
POLICY_CELLS = (
    ("predictive", "crash"),
    ("predictive", "evict"),
    ("predictive_ewma", "crash"),
    ("predictive_ewma", "evict"),
    ("oracle", "none"),
)


def corpus() -> dict[str, dict]:
    """Cell id -> ``(mode, scenario, seed, drain_seconds[, policy])``."""
    cells = {}
    for mode in MODES:
        for scenario in SCENARIOS:
            for seed in SEEDS:
                cells[f"{mode}/{scenario}/seed{seed}"] = dict(
                    mode=mode, scenario=scenario, seed=seed, drain=None
                )
    # The silent and hybrid scenarios only ever migrate drain-free
    # growth regions, so only these two see the drain cap.
    for mode in ("live", "concurrent"):
        for scenario in ("none", "crash"):
            for seed in SEEDS:
                cells[f"{mode}/{scenario}/seed{seed}/drain0"] = dict(
                    mode=mode, scenario=scenario, seed=seed, drain=0.0
                )
    for mode in ("live", "concurrent"):
        for scenario in ("evict", "partition"):
            for seed in SEEDS:
                cells[f"{mode}/{scenario}/seed{seed}"] = dict(
                    mode=mode, scenario=scenario, seed=seed, drain=None
                )
    for policy, scenario in POLICY_CELLS:
        cells[f"live/{scenario}/seed0/{policy}"] = dict(
            mode="live", scenario=scenario, seed=0, drain=None,
            policy=policy,
        )
    return cells


def run_cell(
    mode: str,
    scenario: str,
    seed: int,
    drain: float | None,
    policy: str = "reactive",
):
    """One corpus cell's timeline."""
    trace = piecewise(STEPS)
    options: dict = {}
    policy_options = dict(POLICY_OPTIONS[policy])
    if scenario in ("crash", "silent"):
        options["faults"] = CRASH
    if scenario in ("silent", "evict"):
        options["detection"] = DETECTION
    if scenario == "evict":
        options["faults"] = DEGRADE
        policy_options.update(evict_after=2, evict_fraction=0.5)
    if scenario == "partition":
        options["faults"] = PARTITION
    if scenario == "hybrid":
        trace = HybridTrace(trace, population=10, cohort=4)
    loop = ControlLoop(
        NodePool.uniform_random(16, low=80, high=400, seed=7),
        dgemm_mflop(310),
        trace,
        policy=policy,
        policy_options=policy_options,
        epochs=18,
        epoch_duration=2.0,
        initial_fraction=0.4,
        migration=mode,
        seed=seed,
        **options,
    )
    if drain is not None:
        # The loop prices migrations with its own cost model; the drain0
        # cells swap in one whose drains are capped.
        loop.cost_model = MigrationCostModel(drain_seconds=drain)
    return loop.run()


#: The metric that records heap bookkeeping rather than firing.
HEAP_BOOKKEEPING = "engine_heap_compactions"
#: The metric that counts engine callbacks rather than what they did.
ENGINE_EVENTS = "engine_events"


def _sha256(timeline, records) -> str:
    return hashlib.sha256((repr(timeline) + repr(records)).encode()).hexdigest()


def timeline_digest(timeline) -> str:
    """sha256 of ``repr(timeline) + repr(timeline.records)``."""
    return _sha256(timeline, timeline.records)


def _digest_without(timeline, dropped: frozenset[str]) -> str:
    """:func:`timeline_digest` with the ``dropped`` counters removed."""
    records = tuple(
        record
        if record.metrics is None
        else replace(
            record,
            metrics=replace(
                record.metrics,
                counters=tuple(
                    counter
                    for counter in record.metrics.counters
                    if counter[0] not in dropped
                ),
            ),
        )
        for record in timeline.records
    )
    return _sha256(timeline, records)


def compaction_blind_digest(timeline) -> str:
    """:func:`timeline_digest` without ``engine_heap_compactions``."""
    return _digest_without(timeline, frozenset((HEAP_BOOKKEEPING,)))


def engine_blind_digest(timeline) -> str:
    """:func:`compaction_blind_digest` without ``engine_events`` too."""
    return _digest_without(timeline, frozenset((HEAP_BOOKKEEPING, ENGINE_EVENTS)))


def load_golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN.read_text())["cells"]


CORPUS = corpus()


def test_golden_file_covers_the_corpus():
    assert sorted(load_golden()) == sorted(CORPUS)


@pytest.mark.parametrize("cell", list(CORPUS))
def test_timeline_matches_golden(cell):
    timeline = run_cell(**CORPUS[cell])
    assert timeline.lost_conversations == 0
    golden = load_golden()[cell]
    hint = (
        "if intended, regenerate with `python tests/test_golden.py "
        "--write` and explain in CHANGES.md"
    )
    assert engine_blind_digest(timeline) == golden["engine_blind"], (
        f"{cell}: timeline changed; {hint}"
    )
    assert compaction_blind_digest(timeline) == golden["compaction_blind"], (
        f"{cell}: only engine_events changed; {hint}"
    )
    assert timeline_digest(timeline) == golden["full"], (
        f"{cell}: only engine_heap_compactions changed; {hint}"
    )


def write_golden() -> None:
    """Recompute every digest and rewrite the golden file."""
    cells = {}
    for cell, spec in CORPUS.items():
        timeline = run_cell(**spec)
        cells[cell] = {
            "full": timeline_digest(timeline),
            "compaction_blind": compaction_blind_digest(timeline),
            "engine_blind": engine_blind_digest(timeline),
        }
        print(
            f"{cell}: {cells[cell]['full'][:16]} "
            f"{cells[cell]['compaction_blind'][:16]} "
            f"{cells[cell]['engine_blind'][:16]}",
            flush=True,
        )
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                "digest": {
                    "full": "sha256(repr(timeline) + repr(timeline.records))",
                    "compaction_blind": (
                        "the same, with engine_heap_compactions removed "
                        "from every record's metrics counters"
                    ),
                    "engine_blind": (
                        "the same, with engine_events removed too"
                    ),
                },
                "cells": cells,
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    write_golden()
