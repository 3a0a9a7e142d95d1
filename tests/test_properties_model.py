"""Property-based tests on the throughput model (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.params import LevelSizes, ModelParams
from repro.core.throughput import (
    agent_sched_throughput,
    server_sched_throughput,
    service_throughput,
)
from test_comp_model import server_share

powers = st.floats(min_value=1.0, max_value=1e5, allow_nan=False)
works = st.floats(min_value=1e-6, max_value=1e5, allow_nan=False)
degrees = st.integers(min_value=1, max_value=500)
sizes = st.floats(min_value=1e-9, max_value=100.0, allow_nan=False)


@st.composite
def params_strategy(draw) -> ModelParams:
    return ModelParams(
        wreq=draw(st.floats(min_value=0.0, max_value=10.0)),
        wfix=draw(st.floats(min_value=0.0, max_value=1.0)),
        wsel=draw(st.floats(min_value=1e-9, max_value=1.0)),
        wpre=draw(st.floats(min_value=0.0, max_value=10.0)),
        agent_sizes=LevelSizes(sreq=draw(sizes), srep=draw(sizes)),
        server_sizes=LevelSizes(sreq=draw(sizes), srep=draw(sizes)),
        bandwidth=draw(st.floats(min_value=1.0, max_value=1e6)),
    )


class TestAgentRateProperties:
    @given(params_strategy(), powers, degrees)
    @settings(max_examples=80)
    def test_rate_positive_and_finite(self, p, w, d):
        rate = agent_sched_throughput(p, w, d)
        assert 0.0 < rate < float("inf")

    @given(params_strategy(), powers, degrees)
    @settings(max_examples=80)
    def test_rate_decreasing_in_degree(self, p, w, d):
        assert agent_sched_throughput(p, w, d) > agent_sched_throughput(
            p, w, d + 1
        )

    @given(params_strategy(), powers, degrees)
    @settings(max_examples=80)
    def test_rate_increasing_in_power(self, p, w, d):
        assert agent_sched_throughput(p, w * 2, d) >= agent_sched_throughput(
            p, w, d
        )

    @given(params_strategy(), powers, degrees)
    @settings(max_examples=50)
    def test_bandwidth_only_helps(self, p, w, d):
        faster = p.with_bandwidth(p.bandwidth * 2)
        assert agent_sched_throughput(faster, w, d) >= agent_sched_throughput(
            p, w, d
        )


class TestServiceProperties:
    @given(
        params_strategy(),
        st.lists(powers, min_size=1, max_size=20),
        works,
    )
    @settings(max_examples=80)
    def test_service_positive(self, p, server_powers, wapp):
        rate = service_throughput(p, server_powers, [wapp] * len(server_powers))
        assert rate > 0.0

    @given(
        params_strategy(),
        st.lists(powers, min_size=1, max_size=20),
        works,
        powers,
    )
    @settings(max_examples=80)
    def test_adding_fast_server_never_hurts_when_prediction_free(
        self, p, server_powers, wapp, extra
    ):
        # With Wpre = 0 the service rate must be monotone in the server set.
        p0 = p.replace(wpre=0.0)
        base = service_throughput(p0, server_powers, [wapp] * len(server_powers))
        grown = service_throughput(
            p0, server_powers + [extra], [wapp] * (len(server_powers) + 1)
        )
        assert grown >= base * (1 - 1e-12)

    @given(
        params_strategy(),
        st.lists(powers, min_size=1, max_size=20),
        works,
    )
    @settings(max_examples=80)
    def test_shares_sum_to_one_and_nonnegative(self, p, server_powers, wapp):
        shares = server_share(
            p, server_powers, [wapp] * len(server_powers)
        )
        assert abs(sum(shares) - 1.0) < 1e-9
        assert all(s >= 0.0 for s in shares)

    @given(params_strategy(), powers)
    @settings(max_examples=80)
    def test_server_sched_rate_positive(self, p, w):
        assert server_sched_throughput(p, w) > 0.0


class TestScalingProperties:
    @given(params_strategy(), powers, degrees, st.floats(min_value=1.1, max_value=10.0))
    @settings(max_examples=50)
    def test_uniform_speedup_scales_compute_bound_rate(self, p, w, d, factor):
        """If both power and bandwidth scale by k, every rate scales by k."""
        fast = p.with_bandwidth(p.bandwidth * factor)
        slow_rate = agent_sched_throughput(p, w, d)
        fast_rate = agent_sched_throughput(fast, w * factor, d)
        assert abs(fast_rate / slow_rate - factor) < 1e-6 * factor
