"""Compute node model.

A node is the unit of resource assignment: the planner maps exactly one
middleware element (agent or server) onto each selected node.  The only
performance attribute the paper's model uses is the node's computing power
``w`` in MFlop/s, as measured by a Linpack-style mini-benchmark; we
additionally track the *base* (unloaded) power and the background load
fraction so the §5.3 heterogenization experiment can be reproduced
faithfully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import ParameterError

__all__ = ["Node"]


@dataclass(frozen=True, order=True)
class Node:
    """One compute node.

    Attributes
    ----------
    name:
        Unique identifier within a pool (e.g. ``"orsay-017"``).
    power:
        Effective computing power in MFlop/s — what the mini-benchmark
        measures and what the planner consumes.
    base_power:
        Unloaded computing power.  Defaults to ``power``.
    background_load:
        Fraction of the node stolen by background work, in ``[0, 1)``;
        ``power == base_power * (1 - background_load)`` up to measurement
        noise.
    """

    # Order by (power, name) so sorting a node list is deterministic even
    # with ties in power.
    power: float
    name: str = field(default="")
    base_power: float = field(default=0.0, compare=False)
    background_load: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.power < math.inf:
            raise ParameterError(
                f"node power must be finite and > 0, got {self.power}"
            )
        if not (0.0 <= self.background_load < 1.0):
            raise ParameterError(
                f"background_load must be in [0, 1), got {self.background_load}"
            )
        if self.base_power == 0.0:
            object.__setattr__(self, "base_power", self.power)
        if not 0.0 < self.base_power < math.inf:
            raise ParameterError(
                f"node base_power must be finite and > 0, got {self.base_power}"
            )

    def with_power(self, power: float) -> "Node":
        """Copy of this node with a different effective power."""
        return replace(self, power=power)

    def loaded(self, load_fraction: float) -> "Node":
        """Copy of this node running background work stealing ``load_fraction``.

        Mirrors the paper's §5.3 methodology: a background matrix product
        consumes a share of the CPU, and the *effective* power the
        mini-benchmark subsequently measures shrinks proportionally.
        """
        if not (0.0 <= load_fraction < 1.0):
            raise ParameterError(
                f"load_fraction must be in [0, 1), got {load_fraction}"
            )
        return replace(
            self,
            power=self.base_power * (1.0 - load_fraction),
            background_load=load_fraction,
        )
