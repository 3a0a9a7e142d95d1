"""Computation time models — Equations 5–10 of the paper.

Two kinds of computation occur per request:

* **Agents** process the incoming request (``Wreq``) and merge/select among
  the replies of their ``d`` children (``Wrep(d) = Wfix + Wsel*d``) — Eq. 5.
* **Servers** produce a performance *prediction* for every request during
  the scheduling phase (``Wpre``) and execute the application (``Wapp``)
  for the fraction of requests dispatched to them — Eqs. 6–10.

Equation 10 is the heart of the service model: when the set ``S`` of servers
completes ``N`` requests in a window, each server i predicts all ``N`` and
serves ``N_i`` with ``sum_i N_i = N``; the steady-state split makes every
server finish simultaneously, yielding a per-request service time of::

    (1 + sum_i Wpre_i / Wapp_i) / (sum_i w_i / Wapp_i)

The sums run over the *servers* (the paper's sum bound "N" is a typo).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.params import ModelParams
from repro.errors import ParameterError

__all__ = [
    "agent_comp_time",
    "server_comp_time",
]


def agent_comp_time(params: ModelParams, power: float, degree: int) -> float:
    """Eq. 5 — seconds of computation an agent spends per request.

    Parameters
    ----------
    power:
        The agent node's computing power ``w`` in MFlop/s.
    degree:
        Number of children ``d`` of the agent.
    """
    if power <= 0.0:
        raise ParameterError(f"power must be > 0, got {power}")
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")
    return (params.wreq + params.wrep(degree)) / power


def _validate_servers(
    powers: Sequence[float], app_works: Sequence[float]
) -> None:
    if len(powers) == 0:
        raise ParameterError("server set must not be empty")
    if len(powers) != len(app_works):
        raise ParameterError(
            f"got {len(powers)} powers but {len(app_works)} app works"
        )
    for w in powers:
        if w <= 0.0:
            raise ParameterError(f"server power must be > 0, got {w}")
    for wapp in app_works:
        if wapp <= 0.0:
            raise ParameterError(f"Wapp must be > 0, got {wapp}")


def server_comp_time(
    params: ModelParams,
    powers: Sequence[float],
    app_works: Sequence[float],
) -> float:
    """Eq. 10 — aggregate seconds of server computation per completed request.

    Parameters
    ----------
    powers:
        Computing power ``w_i`` of each server (MFlop/s).
    app_works:
        Application work ``Wapp_i`` of each server (MFlop).  Per-server
        values allow heterogeneous service implementations; the paper's
        experiments use a single DGEMM size for all servers.
    """
    _validate_servers(powers, app_works)
    prediction_load = sum(params.wpre / wapp for wapp in app_works)
    service_rate = sum(w / wapp for w, wapp in zip(powers, app_works))
    return (1.0 + prediction_load) / service_rate
