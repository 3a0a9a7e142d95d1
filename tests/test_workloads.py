"""Workloads: demand conversion, load ramp."""

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.errors import ParameterError, SimulationError
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.workloads.demand import ClientDemand
from repro.workloads.loadgen import ClientRamp


class TestClientDemand:
    def test_rate_passthrough(self):
        demand = ClientDemand(rate=100.0)
        assert demand.as_rate(ModelParams(), 16.0, 265.0) == 100.0

    def test_clients_converted_by_littles_law(self):
        p = ModelParams()
        demand = ClientDemand(clients=10)
        rate = demand.as_rate(p, 16.0, 265.0)
        latency = ClientDemand.min_latency(p, 16.0, 265.0)
        assert rate == pytest.approx(10.0 / latency)

    def test_min_latency_dominated_by_service(self):
        p = ModelParams()
        latency = ClientDemand.min_latency(p, 2000.0, 265.0)
        assert latency == pytest.approx(2000.0 / 265.0, rel=0.01)

    def test_exactly_one_spec_required(self):
        with pytest.raises(ParameterError):
            ClientDemand()
        with pytest.raises(ParameterError):
            ClientDemand(rate=1.0, clients=1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            ClientDemand(rate=-1.0)
        with pytest.raises(ParameterError):
            ClientDemand(clients=0)


def small_star() -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", 265.0)
    h.add_server("s0", 265.0, "agent")
    h.add_server("s1", 265.0, "agent")
    return h


class TestClientRamp:
    def test_ramp_reaches_plateau_and_holds(self):
        sim = Simulator()
        system = MiddlewareSystem(sim, small_star(), ModelParams(), 16.0)
        ramp = ClientRamp(
            client_interval=0.2,
            max_clients=60,
            window=0.2,
            hold_duration=5.0,
        )
        result = ramp.run(system)
        # Two 265-MFlop/s servers at 16 MFlop/request: ~33 req/s.
        assert result.max_sustained == pytest.approx(33.1, rel=0.05)
        assert result.clients_at_peak < 60  # plateau froze the ramp
        assert result.total_completed > 0

    def test_load_curve_is_rising_then_flat(self):
        sim = Simulator()
        system = MiddlewareSystem(sim, small_star(), ModelParams(), 16.0)
        ramp = ClientRamp(
            client_interval=0.2, max_clients=60, window=0.2, hold_duration=3.0
        )
        result = ramp.run(system)
        clients, rates = result.curve()
        assert len(clients) == len(rates)
        # Early rate well below the plateau.
        assert rates[0] < result.max_sustained * 0.7

    def test_max_clients_cap_respected(self):
        sim = Simulator()
        system = MiddlewareSystem(sim, small_star(), ModelParams(), 16.0)
        ramp = ClientRamp(
            client_interval=0.1, max_clients=5, window=0.1, hold_duration=2.0
        )
        result = ramp.run(system)
        assert result.clients_at_peak == 5

    def test_validation(self):
        with pytest.raises(SimulationError):
            ClientRamp(client_interval=0.0)
        with pytest.raises(SimulationError):
            ClientRamp(max_clients=0)
        with pytest.raises(SimulationError):
            ClientRamp(plateau_buckets=1)
        with pytest.raises(SimulationError):
            ClientRamp(hold_duration=0.0)
