"""Node capacity rating — the Linpack mini-benchmark step.

    "we measured the capacity of our test machines in MFlops using a
    mini-benchmark extracted from Linpack and this value is used to
    convert all measured times to estimates of the MFlops required."

On the simulated platform a node's true power is known, so the
mini-benchmark is a thin veneer over :mod:`repro.platforms.rating` —
kept as a distinct calibration step so campaigns read like the paper's
methodology, and so rating noise can be injected when studying the
planner's robustness to capacity mis-measurement.
"""

from __future__ import annotations

from repro.platforms.node import Node
from repro.platforms.rating import rate_node

__all__ = ["measure_mflops"]


def measure_mflops(
    node: Node,
    noise: float = 0.0,
    trials: int = 3,
    seed: int = 0,
) -> float:
    """Rated capacity of one node in MFlop/s (best of ``trials`` runs)."""
    return rate_node(node, noise=noise, trials=trials, seed=seed)
