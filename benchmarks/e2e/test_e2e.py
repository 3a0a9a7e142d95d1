"""Self-test of the end-to-end benchmark: every workload at smoke size.

Runs ``run.py --smoke`` over all four workloads twice, untraced and
traced, in fresh processes, and checks what the benchmark promises:
every metric of ``BENCHMARK.json`` printed with its unit, digests equal
across units, processes and tracing, spans that account for the unit's
wall time, and each workload stressing the layer it claims.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=150,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """stdout and result records of an untraced and a traced smoke set."""
    out = tmp_path_factory.mktemp("e2e")
    runs = {
        trace: _run("--smoke", "--seconds", "0", "--trace", str(trace),
                    "--out", str(out))
        for trace in (0, 1)
    }
    records = {}
    for path in out.glob("*-seed0-*.json"):
        if not path.name.endswith(".trace.json"):
            record = json.loads(path.read_text())
            records[record["workload"], record["trace"]] = record
    return runs, records, out


def test_runs_pass_and_end_with_the_result_line(smoke):
    runs, _, _ = smoke
    for trace, proc in runs.items():
        assert proc.returncode == 0, proc.stdout + proc.stderr
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["attempted"] >= 1 and last["failed"] == 0
        chosen = SPEC["per_layer" if trace else "end_to_end"]
        assert set(last["metrics"]) == {
            f"{w}.{m['name']}" for w in WORKLOADS for m in chosen
        }


def test_every_metric_is_printed_with_its_unit(smoke):
    runs, _, _ = smoke
    blocks = runs[1].stdout.split("workload ")[1:]
    assert [block.split()[0] for block in blocks] == WORKLOADS
    for block in blocks:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            line = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\b"
            assert re.search(line, block, re.M), (block.split()[0], metric)


def test_digests_agree_across_units_processes_and_tracing(smoke):
    _, records, out = smoke
    for workload in WORKLOADS:
        untraced, traced = records[workload, 0], records[workload, 1]
        assert untraced["correct"] and traced["correct"]
        assert untraced["digest"] == traced["digest"]
    # Both sets recorded each workload's digest under the same key.
    assert len(json.loads((out / "digests.json").read_text())) == len(WORKLOADS)
    assert list(out.glob("*.trace.json"))


def test_spans_and_loop_self_time_sum_to_the_unit(smoke):
    _, records, _ = smoke
    for workload in WORKLOADS:
        for unit in records[workload, 1]["span_check"]:
            assert unit["self_s"] >= 0.0
            assert unit["top_s"] + unit["self_s"] == pytest.approx(unit["wall"])


def test_each_workload_stresses_its_layer(smoke):
    _, records, _ = smoke

    def layer(workload, name):
        return records[workload, 1]["metrics"][name]["value"]

    for unit in records["flash_restart", 1]["span_check"]:
        assert unit["sim_run_s"] >= 0.9 * unit["wall"]
    assert layer("plan_sweep", "sim.run_s") == 0.0
    assert layer("plan_sweep", "sim.engine.events") == 0
    assert layer("plan_sweep", "api.cache_hit_ratio") > 0.0
    assert layer("black_friday_faults", "middleware.detection.confirmed") == 1
    assert layer("fluid_million", "sim.fluid.advance_calls") > 0


def test_fails_without_the_package_source(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, SPEC["command"][1], "--workload", WORKLOADS[0]],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_verdicts():
    loader = importlib.util.spec_from_file_location("e2e_compare", HERE / "compare.py")
    compare = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(compare)
    base = [10.0, 10.1, 10.2, 9.9, 10.0, 10.1, 9.8, 10.2, 10.0, 10.1]
    faster = [v * 0.8 for v in base]
    pairs = list(zip(base, faster))
    assert compare.verdict(base, faster, "lower", 0.1, pairs, 0.0) == "better"
    assert compare.verdict(faster, base, "lower", 0.1, pairs, 0.0) == "worse"
    assert compare.verdict(base, base, "lower", 0.1, list(zip(base, base)), 0.0) == "same"
    assert compare.verdict(base, base, "lower", 0.1, list(zip(base, base)), 0.2) == "unresolved"
