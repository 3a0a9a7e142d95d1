"""Interconnect model.

The paper's communication model assumes **homogeneous connectivity**: every
pair of deployed elements is joined by a link of identical bandwidth ``B``
(a reasonable approximation of one switched cluster, as the authors note,
and explicitly listed as the scope of this "primary work").

:class:`HomogeneousNetwork` is that model, with a per-message latency
term that defaults to zero, the paper's assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["HomogeneousNetwork"]


@dataclass(frozen=True)
class HomogeneousNetwork:
    """Uniform-bandwidth interconnect.

    Attributes
    ----------
    bandwidth:
        Link bandwidth ``B`` in Mb/s, identical for all links.
    latency:
        Fixed per-message latency in seconds (0 in the paper's model).
    """

    bandwidth: float = 1000.0
    latency: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth <= 0.0:
            raise ParameterError(f"bandwidth must be > 0, got {self.bandwidth}")
        if self.latency < 0.0:
            raise ParameterError(f"latency must be >= 0, got {self.latency}")
