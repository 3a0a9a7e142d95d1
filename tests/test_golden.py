"""Golden control timelines: the determinism contract across commits.

Same seed ⇒ bit-identical :class:`~repro.control.ControlTimeline` holds
within one run by construction; this module holds it *across commits*.
``tests/golden/control_timelines.json`` pins one digest per cell of a
small corpus — sha256 of ``repr(timeline) + repr(timeline.records)``,
the digest the end-to-end benchmark checks — and the tests recompute
every one.  A refactor that claims "same behaviour" passes unchanged; a
change that alters timelines on purpose regenerates the file and says
why in CHANGES.md::

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
* hybrid cells under both kernel backends (``kernels._USE_NUMPY``),
  which must agree bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.control import ControlLoop, MigrationCostModel, hybrid, piecewise
from repro.core import kernels
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


def corpus() -> dict[str, dict]:
    """Cell id -> ``(mode, scenario, seed, drain_seconds)`` spec."""
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
    return cells


def run_cell(mode: str, scenario: str, seed: int, drain: float | None):
    """One corpus cell's timeline."""
    trace = piecewise(STEPS)
    options: dict = {}
    if scenario in ("crash", "silent"):
        options["faults"] = CRASH
    if scenario == "silent":
        options["detection"] = DETECTION
    if scenario == "hybrid":
        trace = hybrid(trace, population=10, cohort=4)
    if drain is not None:
        options["cost_model"] = MigrationCostModel(drain_seconds=drain)
    return ControlLoop(
        NodePool.uniform_random(16, low=80, high=400, seed=7),
        dgemm_mflop(310),
        trace,
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1, "repair": True},
        epochs=18,
        epoch_duration=2.0,
        initial_fraction=0.4,
        migration=mode,
        seed=seed,
        **options,
    ).run()


def timeline_digest(timeline) -> str:
    """sha256 of ``repr(timeline) + repr(timeline.records)``."""
    text = repr(timeline) + repr(timeline.records)
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())["cells"]


CORPUS = corpus()
BACKENDS = ("numpy", "python")


def _params():
    for cell, spec in CORPUS.items():
        if spec["scenario"] == "hybrid":
            for backend in BACKENDS:
                yield pytest.param(cell, backend, id=f"{cell}[{backend}]")
        else:
            yield pytest.param(cell, None, id=cell)


def test_golden_file_covers_the_corpus():
    assert sorted(load_golden()) == sorted(CORPUS)


@pytest.mark.parametrize("cell, backend", list(_params()))
def test_timeline_matches_golden(cell, backend, monkeypatch):
    if backend == "numpy" and not kernels.HAVE_NUMPY:
        pytest.skip("NumPy not installed")
    if backend is not None:
        monkeypatch.setattr(kernels, "_USE_NUMPY", backend == "numpy")
    timeline = run_cell(**CORPUS[cell])
    assert timeline.lost_conversations == 0
    assert timeline_digest(timeline) == load_golden()[cell], (
        f"{cell}: timeline changed; if intended, regenerate with "
        "`python tests/test_golden.py --write` and explain in CHANGES.md"
    )


def write_golden() -> None:
    """Recompute every digest and rewrite the golden file."""
    cells = {}
    for cell, spec in CORPUS.items():
        cells[cell] = timeline_digest(run_cell(**spec))
        print(f"{cell}: {cells[cell][:16]}", flush=True)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {
                "digest": "sha256(repr(timeline) + repr(timeline.records))",
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
