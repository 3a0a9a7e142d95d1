"""Steady-state throughput model (Eqs. 11-16)."""

import pytest

from repro.core import comm_model, comp_model, throughput
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.errors import ParameterError


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int, power: float = 265.0) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", power)
    for i in range(n_servers):
        h.add_server(f"s{i}", power, "agent")
    return h


class TestAgentSchedThroughput:
    def test_inverse_of_total_time(self, p):
        rate = throughput.agent_sched_throughput(p, 265.0, 3)
        total = comp_model.agent_comp_time(p, 265.0, 3) + comm_model.agent_comm_time(
            p, 3
        )
        assert rate == pytest.approx(1.0 / total)

    def test_strictly_decreasing_in_degree(self, p):
        rates = [throughput.agent_sched_throughput(p, 265.0, d) for d in range(1, 30)]
        assert all(a > b for a, b in zip(rates, rates[1:]))

    def test_increasing_in_power(self, p):
        assert throughput.agent_sched_throughput(
            p, 300.0, 5
        ) > throughput.agent_sched_throughput(p, 100.0, 5)

    def test_rejects_zero_degree(self, p):
        with pytest.raises(ParameterError):
            throughput.agent_sched_throughput(p, 265.0, 0)


class TestServerSchedThroughput:
    def test_inverse_of_prediction_time(self, p):
        rate = throughput.server_sched_throughput(p, 265.0)
        total = p.wpre / 265.0 + comm_model.server_comm_time(p)
        assert rate == pytest.approx(1.0 / total)

    def test_increasing_in_power(self, p):
        assert throughput.server_sched_throughput(
            p, 300.0
        ) > throughput.server_sched_throughput(p, 100.0)


class TestServiceThroughput:
    def test_single_server(self, p):
        rate = throughput.service_throughput(p, [265.0], [16.0])
        comm = p.service_sizes.round_trip / p.bandwidth
        comp = (16.0 + p.wpre) / 265.0
        assert rate == pytest.approx(1.0 / (comm + comp))

    def test_two_servers_nearly_double(self, p):
        one = throughput.service_throughput(p, [265.0], [16.0])
        two = throughput.service_throughput(p, [265.0] * 2, [16.0] * 2)
        assert two / one == pytest.approx(2.0, rel=1e-3)

    def test_monotone_in_server_count(self, p):
        rates = [
            throughput.service_throughput(p, [265.0] * k, [16.0] * k)
            for k in range(1, 20)
        ]
        assert all(a < b for a, b in zip(rates, rates[1:]))


class TestHierarchyThroughput:
    def test_small_grain_is_scheduling_bound(self, p):
        # DGEMM 10x10: the agent limits (the paper's Figure 2 scenario).
        report = throughput.hierarchy_throughput(star(1), p, 2e-3)
        assert report.is_scheduling_bound
        assert report.limiting_node == "agent"

    def test_large_grain_is_service_bound(self, p):
        # DGEMM 200x200: the servers limit (Figure 4 scenario).
        report = throughput.hierarchy_throughput(star(1), p, 16.0)
        assert report.bottleneck == "service"

    def test_adding_server_hurts_when_agent_bound(self, p):
        one = throughput.hierarchy_throughput(star(1), p, 2e-3)
        two = throughput.hierarchy_throughput(star(2), p, 2e-3)
        assert two.throughput < one.throughput

    def test_adding_server_doubles_when_service_bound(self, p):
        one = throughput.hierarchy_throughput(star(1), p, 16.0)
        two = throughput.hierarchy_throughput(star(2), p, 16.0)
        assert two.throughput / one.throughput == pytest.approx(2.0, rel=0.02)

    def test_rho_is_min_of_phases(self, p):
        for wapp in (2e-3, 2.0, 16.0, 2000.0):
            report = throughput.hierarchy_throughput(star(3), p, wapp)
            assert report.throughput == pytest.approx(
                min(report.sched, report.service)
            )

    def test_node_rates_cover_all_nodes(self, p):
        h = star(4)
        report = throughput.hierarchy_throughput(h, p, 16.0)
        assert set(report.node_rates) == set(h.nodes)

    def test_per_server_app_work_mapping(self, p):
        h = star(2)
        scalar = throughput.hierarchy_throughput(h, p, 16.0)
        mapped = throughput.hierarchy_throughput(h, p, {"s0": 16.0, "s1": 16.0})
        assert mapped.throughput == pytest.approx(scalar.throughput)

    def test_missing_server_in_mapping_rejected(self, p):
        with pytest.raises(ParameterError):
            throughput.hierarchy_throughput(star(2), p, {"s0": 16.0})

    def test_limiting_node_is_weakest_agent(self, p):
        h = Hierarchy()
        h.set_root("fast", 500.0)
        h.add_agent("slow", 50.0, "fast")
        h.add_server("x", 500.0, "slow")
        h.add_server("y", 500.0, "slow")
        h.add_server("z", 500.0, "fast")
        report = throughput.hierarchy_throughput(h, p, 2e-3)
        assert report.limiting_node == "slow"


class TestResolveAppWork:
    def test_scalar_expansion(self, p):
        works = throughput.resolve_app_work_list(star(3).servers, 5.0)
        assert works == [5.0, 5.0, 5.0]

    def test_rejects_nonpositive_scalar(self, p):
        with pytest.raises(ParameterError):
            throughput.resolve_app_work_list(star(1).servers, 0.0)
