"""Analysis harness: experiments, comparisons, reports."""

import numpy as np
import pytest

from repro.analysis.compare import compare_deployments, predicted_vs_measured
from repro.analysis.experiments import measure_load_curve, run_fixed_load
from repro.analysis.report import ascii_chart, ascii_table, format_rate
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import ParameterError, SimulationError
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.workloads.loadgen import ClientRamp


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", 265.0)
    for i in range(n_servers):
        h.add_server(f"s{i}", 265.0, "agent")
    return h


class TestRunFixedLoad:
    def test_saturated_load_matches_model(self, p):
        h = star(2)
        result = run_fixed_load(h, p, 16.0, clients=40, duration=15.0)
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.throughput == pytest.approx(predicted, rel=0.05)

    def test_light_load_below_model(self, p):
        h = star(2)
        result = run_fixed_load(h, p, 16.0, clients=1, duration=10.0)
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.throughput < predicted * 0.8

    def test_reports_latency_and_bottleneck(self, p):
        result = run_fixed_load(star(1), p, 16.0, clients=10, duration=10.0)
        assert result.mean_latency > 0
        assert result.mean_scheduling_latency >= 0
        assert result.bottleneck_node == "s0"
        assert 0 < result.bottleneck_utilization <= 1.0

    def test_validation(self, p):
        with pytest.raises(SimulationError):
            run_fixed_load(star(1), p, 16.0, clients=0)
        with pytest.raises(SimulationError):
            run_fixed_load(star(1), p, 16.0, clients=1, duration=0.0)


class TestLoadCurve:
    def test_curve_rises_then_saturates(self, p):
        h = star(2)
        curve = measure_load_curve(
            h, p, 16.0, client_counts=[1, 2, 5, 10, 20, 40], duration=10.0
        )
        assert curve.rates[0] < curve.rates[-1]
        # Last two levels within a few percent of each other: saturated.
        assert curve.rates[-1] == pytest.approx(curve.rates[-2], rel=0.1)

    def test_peak_metadata(self, p):
        curve = measure_load_curve(
            star(1), p, 16.0, client_counts=[1, 5, 20], duration=8.0,
            label="one server",
        )
        assert curve.label == "one server"
        assert curve.peak_rate == max(curve.rates)

    def test_empty_counts_rejected(self, p):
        with pytest.raises(SimulationError):
            measure_load_curve(star(1), p, 16.0, client_counts=[])


class TestMaxSustained:
    def test_ramp_finds_model_throughput(self, p):
        h = star(2)
        ramp = ClientRamp(
            client_interval=0.2, max_clients=60, window=0.2, hold_duration=5.0
        )
        result = ramp.run(MiddlewareSystem(Simulator(), h, p, 16.0, seed=0))
        predicted = hierarchy_throughput(h, p, 16.0).throughput
        assert result.max_sustained == pytest.approx(predicted, rel=0.05)


class TestCompare:
    def test_predicted_vs_measured_row(self, p):
        row = predicted_vs_measured(
            star(2), p, 16.0, clients=40, duration=10.0, label="2 SeDs"
        )
        assert row.label == "2 SeDs"
        assert row.accuracy == pytest.approx(1.0, rel=0.08)
        assert row.servers == 2

    def test_compare_orders_by_measured(self, p):
        rows = compare_deployments(
            {"one": star(1), "three": star(3)},
            p, 16.0, clients=40, duration=10.0,
        )
        assert rows[0].label == "three"
        assert rows[0].measured > rows[1].measured

    def test_compare_empty_rejected(self, p):
        with pytest.raises(ParameterError):
            compare_deployments({}, p, 16.0, clients=1)


class TestReport:
    def test_ascii_table_alignment(self):
        text = ascii_table(
            ["name", "value"], [["alpha", 1], ["b", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1  # all rows same width

    def test_ascii_chart_contains_markers_and_legend(self):
        text = ascii_chart(
            {"a": ([1, 2, 3], [1.0, 2.0, 3.0]), "b": ([1, 2, 3], [3.0, 2.0, 1.0])},
            title="curves",
        )
        assert "curves" in text
        assert "* = a" in text
        assert "o = b" in text

    def test_ascii_chart_empty(self):
        assert ascii_chart({"a": ([], [])}) == "(no data)"

    def test_format_rate_ranges(self):
        assert format_rate(1234.5) == "1234"  # no decimals at scale
        assert format_rate(45.67) == "45.7"
        assert format_rate(2.345) == "2.35"
