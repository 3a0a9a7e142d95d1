"""Computation time models (Eqs. 5-10).

:func:`server_share` is Eq. 8 written out as the tests' reference model:
the simulator's per-server request split is checked against it
(``test_model_vs_sim.py``), and its properties are pinned here and in
``test_properties_model.py``.
"""

from collections.abc import Sequence

import pytest

from repro.core import comp_model
from repro.core.params import ModelParams
from repro.errors import ParameterError


def server_share(
    params: ModelParams,
    powers: Sequence[float],
    app_works: Sequence[float],
) -> list[float]:
    """Eq. 8 — steady-state fraction ``N_i / N`` of requests served by each server.

    Derived from Eqs. 6–9: with ``T`` the common completion time per
    request batch, ``N_i = (T*w_i - Wpre_i*N) / Wapp_i``.  Dividing by ``N``
    and substituting Eq. 10's ``T/N`` gives the per-server share.  Shares
    are clipped at zero: a server too slow to finish its prediction work
    within the steady-state window serves nothing (the paper's model
    implicitly assumes all shares are positive).  The shares sum to 1
    after clipping and renormalization.
    """
    t_over_n = comp_model.server_comp_time(params, powers, app_works)
    shares = [
        max(0.0, (t_over_n * w - params.wpre) / wapp)
        for w, wapp in zip(powers, app_works)
    ]
    total = sum(shares)
    if total <= 0.0:
        # Degenerate: prediction work swamps every server; split evenly.
        return [1.0 / len(shares)] * len(shares)
    return [s / total for s in shares]


@pytest.fixture
def p() -> ModelParams:
    return ModelParams(wreq=1.0, wfix=0.5, wsel=0.25, wpre=2.0)


class TestAgentCompTime:
    def test_eq5_structure(self, p):
        # (Wreq + Wfix + Wsel*d) / w
        assert comp_model.agent_comp_time(p, power=10.0, degree=2) == (
            pytest.approx((1.0 + 0.5 + 0.5) / 10.0)
        )

    def test_linear_in_degree(self, p):
        t1 = comp_model.agent_comp_time(p, 10.0, 1)
        t2 = comp_model.agent_comp_time(p, 10.0, 2)
        t3 = comp_model.agent_comp_time(p, 10.0, 3)
        assert t2 - t1 == pytest.approx(t3 - t2)

    def test_inverse_in_power(self, p):
        assert comp_model.agent_comp_time(p, 20.0, 4) == pytest.approx(
            comp_model.agent_comp_time(p, 10.0, 4) / 2.0
        )

    def test_rejects_bad_inputs(self, p):
        with pytest.raises(ParameterError):
            comp_model.agent_comp_time(p, 0.0, 1)
        with pytest.raises(ParameterError):
            comp_model.agent_comp_time(p, 10.0, -1)


class TestServerCompTime:
    def test_single_server_closed_form(self, p):
        # (1 + Wpre/Wapp) / (w/Wapp) == (Wapp + Wpre) / w
        t = comp_model.server_comp_time(p, [10.0], [8.0])
        assert t == pytest.approx((8.0 + 2.0) / 10.0)

    def test_two_equal_servers_halve_time(self, p):
        one = comp_model.server_comp_time(p, [10.0], [8.0])
        two = comp_model.server_comp_time(p, [10.0, 10.0], [8.0, 8.0])
        # Prediction is duplicated on both servers, so speedup is slightly
        # below 2 but the service term halves.
        assert two < one
        assert two == pytest.approx((1 + 2 * 2.0 / 8.0) / (2 * 10.0 / 8.0))

    def test_adding_any_server_helps_until_prediction_dominates(self, p):
        # With Wpre << Wapp, adding even a slow server reduces the time.
        p2 = p.replace(wpre=1e-6)
        base = comp_model.server_comp_time(p2, [10.0], [8.0])
        more = comp_model.server_comp_time(p2, [10.0, 0.1], [8.0, 8.0])
        assert more < base

    def test_heterogeneous_app_works(self, p):
        t = comp_model.server_comp_time(p, [10.0, 5.0], [8.0, 4.0])
        expected = (1 + 2.0 / 8.0 + 2.0 / 4.0) / (10.0 / 8.0 + 5.0 / 4.0)
        assert t == pytest.approx(expected)

    def test_validation(self, p):
        with pytest.raises(ParameterError):
            comp_model.server_comp_time(p, [], [])
        with pytest.raises(ParameterError):
            comp_model.server_comp_time(p, [1.0], [1.0, 2.0])
        with pytest.raises(ParameterError):
            comp_model.server_comp_time(p, [-1.0], [1.0])
        with pytest.raises(ParameterError):
            comp_model.server_comp_time(p, [1.0], [0.0])


class TestServerShare:
    def test_shares_sum_to_one(self, p):
        shares = server_share(p, [10.0, 20.0, 30.0], [8.0] * 3)
        assert sum(shares) == pytest.approx(1.0)

    def test_equal_servers_equal_shares(self, p):
        shares = server_share(p, [10.0, 10.0], [8.0, 8.0])
        assert shares[0] == pytest.approx(shares[1])

    def test_faster_server_gets_more(self, p):
        shares = server_share(p, [10.0, 30.0], [8.0, 8.0])
        assert shares[1] > shares[0]

    def test_share_ratio_tracks_power_when_prediction_negligible(self, p):
        p2 = p.replace(wpre=1e-9)
        shares = server_share(p2, [10.0, 30.0], [8.0, 8.0])
        assert shares[1] / shares[0] == pytest.approx(3.0, rel=1e-6)

    def test_too_slow_server_clipped_to_zero(self, p):
        # A server far slower than the pool cannot even finish its
        # prediction work in the steady-state window.
        p2 = p.replace(wpre=5.0)
        shares = server_share(p2, [100.0, 0.5], [8.0, 8.0])
        assert shares[1] == 0.0
        assert shares[0] == pytest.approx(1.0)
