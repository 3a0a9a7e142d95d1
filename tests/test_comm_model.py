"""Communication time models (Eqs. 1-4)."""

import pytest

from repro.core import comm_model
from repro.core.params import LevelSizes, ModelParams
from repro.errors import ParameterError


@pytest.fixture
def p() -> ModelParams:
    # Round numbers so the expected values are obvious.
    return ModelParams(
        agent_sizes=LevelSizes(sreq=10.0, srep=20.0),
        server_sizes=LevelSizes(sreq=1.0, srep=2.0),
        bandwidth=100.0,
    )


class TestAgentReceive:
    def test_eq1_structure(self, p):
        # (Sreq + d*Srep) / B with agent-level children.
        assert comm_model.agent_receive_time(p, 3) == pytest.approx(
            (10.0 + 3 * 20.0) / 100.0
        )

    def test_zero_children_is_parent_message_only(self, p):
        assert comm_model.agent_receive_time(p, 0) == pytest.approx(0.1)

    def test_rejects_negative_degree(self, p):
        with pytest.raises(ParameterError):
            comm_model.agent_receive_time(p, -1)


class TestAgentSend:
    def test_eq2_structure(self, p):
        # (d*Sreq + Srep) / B.
        assert comm_model.agent_send_time(p, 3) == pytest.approx(
            (3 * 10.0 + 20.0) / 100.0
        )


class TestServerTimes:
    def test_eq3_receive(self, p):
        assert comm_model.server_receive_time(p) == pytest.approx(0.01)

    def test_eq4_send(self, p):
        assert comm_model.server_send_time(p) == pytest.approx(0.02)

    def test_total(self, p):
        assert comm_model.server_comm_time(p) == pytest.approx(0.03)


class TestAgentTotal:
    def test_is_sum_of_directions(self, p):
        for degree in (1, 2, 7):
            assert comm_model.agent_comm_time(p, degree) == pytest.approx(
                comm_model.agent_receive_time(p, degree)
                + comm_model.agent_send_time(p, degree)
            )

    def test_monotone_in_degree(self, p):
        times = [comm_model.agent_comm_time(p, d) for d in range(1, 10)]
        assert times == sorted(times)

    def test_scales_inverse_with_bandwidth(self, p):
        fast = p.with_bandwidth(200.0)
        assert comm_model.agent_comm_time(fast, 3) == pytest.approx(
            comm_model.agent_comm_time(p, 3) / 2.0
        )
