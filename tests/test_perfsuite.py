"""`benchmarks/perfsuite.py`: the cell harness and one quick control family.

The suite itself runs outside the tier-1 tests (a full run takes
minutes).  These checks keep its harness honest — the fastest call's
own result is kept, and normalized by the host probes taken around that
same call — and run the quick ``control_loop`` family end to end.
"""

import importlib.util
import time
from pathlib import Path

import pytest

_PERFSUITE = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "perfsuite.py"
)
_spec = importlib.util.spec_from_file_location("perfsuite", _PERFSUITE)
perfsuite = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perfsuite)


def test_timed_keeps_the_fastest_calls_result_and_probes(monkeypatch):
    # One probe before and one after each call: (2, 4) ms around the
    # slow first call, (3, 5) around the fast second, (7, 9) around the
    # slow third.
    readings = iter([2.0, 4.0, 3.0, 5.0, 7.0, 9.0])

    def fake_probe(samples):
        samples.append(next(readings))
        return samples[-1]

    monkeypatch.setattr(perfsuite.hostspeed, "probe", fake_probe)
    delays = iter([0.05, 0.0, 0.05])
    calls = []

    def call():
        calls.append(None)
        time.sleep(next(delays))
        return f"call {len(calls)}"

    timing = perfsuite.timed(3, call)
    assert len(calls) == 3
    assert timing.result == "call 2"
    assert timing.probe_ms == 4.0
    assert timing.raw < 0.05
    assert timing.seconds == pytest.approx(
        timing.raw * perfsuite.hostspeed.REF_MS / 4.0
    )


def test_quick_control_cells(capsys):
    cells = perfsuite.bench_control(quick=True)
    assert [c["params"] for c in cells] == [
        {"policy": "hold", "pool": 12, "epochs": 8},
        {"policy": "reactive", "pool": 12, "epochs": 8},
    ]
    for entry in cells:
        assert set(entry) == {"name", "params", "metric", "value", "extra"}
        assert entry["name"] == "control_loop"
        assert entry["metric"] == "seconds"
        extra = entry["extra"]
        assert extra["raw_seconds"] > 0
        assert extra["host_probe_ms"] > 0
        assert entry["value"] == pytest.approx(
            extra["raw_seconds"]
            * perfsuite.hostspeed.REF_MS
            / extra["host_probe_ms"],
            rel=1e-3,
        )
        # The overhead fraction divides raw by raw, from the same run.
        assert extra["overhead_fraction"] == pytest.approx(
            extra["overhead_seconds"] / extra["raw_seconds"], abs=1e-4
        )
        for field in ("served", "redeploys", "mean_served_rate", "engine_events"):
            assert field in extra
        assert extra["epochs_per_s"] > 0
    # The scenario the control-cell defaults build (pool seed 7, loop
    # seed 3, 40 % initial deployment) serves what it always has.
    assert [c["extra"]["served"] for c in cells] == [801, 1195]
    assert [c["extra"]["redeploys"] for c in cells] == [0, 1]
    assert capsys.readouterr().out.count("control_loop") == 2
