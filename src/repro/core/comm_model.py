"""Communication time models — Equations 1–4 of the paper.

The communication model assumes **homogeneous links** of bandwidth ``B`` and
the single-port serial resource model M(r,s,w): a node sends and receives
messages one at a time, so per-request communication time is simply total
bits divided by bandwidth.

Agent traffic (Eqs. 1–2) mixes levels: the message exchanged with the
*parent* travels on an agent-level link while the messages exchanged with
each of the ``d`` children travel on child-level links.  In the paper all
of an agent's children are modelled with a single (Sreq, Srep) pair; here
that pair is the agent-level :class:`~repro.core.params.LevelSizes`,
whether the children are agents or servers — the conservative choice,
matching the paper's Table 3 usage.
"""

from __future__ import annotations

from repro.core.params import ModelParams
from repro.errors import ParameterError

__all__ = [
    "agent_receive_time",
    "agent_send_time",
    "server_receive_time",
    "server_send_time",
    "agent_comm_time",
    "server_comm_time",
]


def _check_degree(degree: int) -> None:
    if degree < 0:
        raise ParameterError(f"degree must be >= 0, got {degree}")


def agent_receive_time(params: ModelParams, degree: int) -> float:
    """Eq. 1 — seconds an agent spends receiving per request.

    One request of size ``Sreq`` arrives from the parent and ``degree``
    replies of size ``Srep`` arrive from the children.
    """
    _check_degree(degree)
    sizes = params.agent_sizes
    return (sizes.sreq + degree * sizes.srep) / params.bandwidth


def agent_send_time(params: ModelParams, degree: int) -> float:
    """Eq. 2 — seconds an agent spends sending per request.

    The request is forwarded to each of the ``degree`` children and one
    merged reply of size ``Srep`` is returned to the parent.
    """
    _check_degree(degree)
    sizes = params.agent_sizes
    return (degree * sizes.sreq + sizes.srep) / params.bandwidth


def server_receive_time(params: ModelParams) -> float:
    """Eq. 3 — seconds a server spends receiving one scheduling request."""
    return params.server_sizes.sreq / params.bandwidth


def server_send_time(params: ModelParams) -> float:
    """Eq. 4 — seconds a server spends sending one prediction reply."""
    return params.server_sizes.srep / params.bandwidth


def agent_comm_time(params: ModelParams, degree: int) -> float:
    """Total per-request communication seconds for an agent (Eq. 1 + Eq. 2)."""
    return agent_receive_time(params, degree) + agent_send_time(params, degree)


def server_comm_time(params: ModelParams) -> float:
    """Total per-request scheduling-phase communication seconds for a server."""
    return server_receive_time(params) + server_send_time(params)
