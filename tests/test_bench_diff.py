"""`benchmarks/bench_diff.py`: warn-only trend check, --strict budget gate.

The contract: the default invocation never fails the build, whatever it
finds (trend regressions, budget breaches, unreadable inputs); with
``--strict`` exactly one finding class — a control-plane cell over the
adaptation-overhead budget — earns a nonzero exit, and everything else
(including inputs that cannot be compared at all) still exits 0.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH_DIFF = (
    Path(__file__).resolve().parent.parent / "benchmarks" / "bench_diff.py"
)
_spec = importlib.util.spec_from_file_location("bench_diff", _BENCH_DIFF)
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)


def payload(results, quick=False, **top):
    return {
        "schema": "repro-bench/1",
        "suite": "planning",
        "quick": quick,
        "results": results,
        **top,
    }


def cell(name, value, overhead=None, params=None, metric="seconds"):
    entry = {
        "name": name,
        "params": params or {"pool": 16},
        "metric": metric,
        "value": value,
        "extra": {},
    }
    if overhead is not None:
        entry["extra"]["overhead_fraction"] = overhead
    return entry


@pytest.fixture
def write(tmp_path):
    def _write(name, data):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return str(path)

    return _write


class TestWarnOnlyDefault:
    def test_clean_comparison_exits_zero(self, write, capsys):
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write("cur.json", payload([cell("control_loop", 1.05, 0.01)]))
        assert bench_diff.main([base, cur]) == 0
        assert "1 common cell(s)" in capsys.readouterr().out

    def test_budget_breach_warns_but_exits_zero(self, write, capsys):
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write("cur.json", payload([cell("control_loop", 1.0, 0.40)]))
        assert bench_diff.main([base, cur]) == 0
        out = capsys.readouterr().out
        assert "adaptation overhead" in out
        assert "not failing the build" in out

    def test_trend_regression_warns_but_exits_zero(self, write, capsys):
        base = write("base.json", payload([cell("heuristic_plan", 1.0)]))
        cur = write("cur.json", payload([cell("heuristic_plan", 2.0)]))
        assert bench_diff.main([base, cur]) == 0
        assert "!!" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "before, after, flagged",
        [(0.0025, 0.009, True), (0.009, 0.0025, False)],
    )
    def test_fraction_cells_are_lower_is_better(
        self, write, capsys, before, after, flagged
    ):
        # obs_overhead reports its disabled-tracing cost as a fraction:
        # growing it is the regression, shrinking it the improvement.
        base = write(
            "base.json",
            payload([cell("obs_overhead", before, metric="fraction")]),
        )
        cur = write(
            "cur.json",
            payload([cell("obs_overhead", after, metric="fraction")]),
        )
        assert bench_diff.main([base, cur]) == 0
        assert ("!! obs_overhead" in capsys.readouterr().out) is flagged

    def test_rates_stay_higher_is_better(self, write, capsys):
        base = write(
            "base.json",
            payload([cell("engine_churn", 2.0, metric="events_per_s")]),
        )
        cur = write(
            "cur.json",
            payload([cell("engine_churn", 1.0, metric="events_per_s")]),
        )
        assert bench_diff.main([base, cur]) == 0
        assert "!! engine_churn" in capsys.readouterr().out

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_mixed_normalization_is_noted_not_failed(
        self, write, capsys, strict
    ):
        # A file written before host normalization carries no
        # host_ref_ms; comparing it with a normalized one is reported as
        # not comparable, and still never fails the build.
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write(
            "cur.json",
            payload([cell("control_loop", 0.6, 0.01)], host_ref_ms=1.0),
        )
        assert bench_diff.main(strict + [base, cur]) == 0
        out = capsys.readouterr().out
        assert "host normalization" in out
        assert "not comparable" in out

    def test_equal_normalization_is_not_noted(self, write, capsys):
        base = write(
            "base.json",
            payload([cell("control_loop", 1.0, 0.01)], host_ref_ms=1.0),
        )
        cur = write(
            "cur.json",
            payload([cell("control_loop", 1.0, 0.01)], host_ref_ms=1.0),
        )
        assert bench_diff.main([base, cur]) == 0
        assert "host normalization" not in capsys.readouterr().out

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_one_sided_cells_are_named_not_dropped(
        self, write, capsys, strict
    ):
        # A deleted cell and a new one: neither can be compared, both
        # are listed, and the exit code is unchanged.
        shared = cell("control_loop", 1.0, 0.01)
        gone = cell("kernel_supported_children", 1.0, params={"nodes": 4096})
        new = cell("engine_churn", 2.0, metric="events_per_s")
        base = write("base.json", payload([shared, gone]))
        cur = write("cur.json", payload([shared, new]))
        assert bench_diff.main(strict + [base, cur]) == 0
        out = capsys.readouterr().out
        assert "1 common cell(s)" in out
        assert f"only in the baseline ({base})" in out
        assert "     kernel_supported_children[nodes=4096]" in out
        assert f"only in the current ({cur})" in out
        assert "     engine_churn[pool=16]" in out


class TestStrictMode:
    def test_budget_breach_fails_the_build(self, write, capsys):
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write("cur.json", payload([cell("control_loop", 1.0, 0.40)]))
        assert bench_diff.main(["--strict", base, cur]) == 1
        assert "failing the build (--strict)" in capsys.readouterr().out

    def test_concurrent_migration_cells_are_budgeted_too(self, write):
        base = write("base.json", payload([]))
        cur = write(
            "cur.json", payload([cell("concurrent_migration", 1.0, 0.40)])
        )
        assert bench_diff.main(["--strict", base, cur]) == 1

    def test_within_budget_exits_zero(self, write):
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write("cur.json", payload([cell("control_loop", 3.0, 0.02)]))
        # A big trend regression alone must NOT fail even under --strict.
        assert bench_diff.main(["--strict", base, cur]) == 0

    def test_custom_budget_applies(self, write):
        base = write("base.json", payload([cell("control_loop", 1.0, 0.01)]))
        cur = write("cur.json", payload([cell("control_loop", 1.0, 0.04)]))
        assert bench_diff.main(["--strict", base, cur]) == 0
        assert (
            bench_diff.main(
                ["--strict", "--overhead-budget", "0.03", base, cur]
            )
            == 1
        )

    def test_unreadable_inputs_still_exit_zero(self, write, tmp_path):
        missing = str(tmp_path / "nope.json")
        cur = write("cur.json", payload([cell("control_loop", 1.0, 0.40)]))
        assert bench_diff.main(["--strict", missing, cur]) == 0

    def test_non_control_cells_never_gate(self, write):
        base = write("base.json", payload([cell("engine_churn", 1.0, 0.90)]))
        cur = write("cur.json", payload([cell("engine_churn", 1.0, 0.90)]))
        assert bench_diff.main(["--strict", base, cur]) == 0
