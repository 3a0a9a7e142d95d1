"""Background-load heterogenization (§5.3 of the paper).

To obtain a heterogeneous platform from the homogeneous Orsay cluster, the
authors "changed the workload of the reserved nodes by launching different
size of matrix multiplication as the background program on some of the
nodes", then re-measured each node's capacity with a Linpack
mini-benchmark.

:class:`BackgroundWorkload` reproduces that methodology synthetically: a
seeded profile decides which nodes run background matrix products and how
big they are, each product steals a CPU share, and :func:`heterogenize`
returns the degraded pool.  The planner then sees exactly what it saw on
Grid'5000 — a list of re-rated node powers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.platforms.node import Node
from repro.platforms.pool import NodePool

__all__ = ["BackgroundWorkload", "heterogenize"]


@dataclass(frozen=True)
class BackgroundWorkload:
    """A background matrix-multiplication job pinned to a node.

    The CPU share stolen by a continuously re-launched DGEMM of dimension
    ``n`` grows with ``n`` and saturates below 1 (the OS scheduler still
    grants the foreground middleware a share).  We model the stolen share
    as ``max_share * n^3 / (n^3 + half_size^3)``, a smooth Hill curve whose
    midpoint ``half_size`` and ceiling ``max_share`` are calibration knobs.
    """

    matrix_size: int
    half_size: int = 400
    max_share: float = 0.9

    def __post_init__(self) -> None:
        if self.matrix_size < 0:
            raise ParameterError(
                f"matrix_size must be >= 0, got {self.matrix_size}"
            )
        if self.half_size <= 0:
            raise ParameterError(f"half_size must be > 0, got {self.half_size}")
        if not (0.0 <= self.max_share < 1.0):
            raise ParameterError(
                f"max_share must be in [0, 1), got {self.max_share}"
            )

    @property
    def stolen_share(self) -> float:
        """Fraction of the node's CPU consumed by this background job."""
        if self.matrix_size == 0:
            return 0.0
        cubed = float(self.matrix_size) ** 3
        half = float(self.half_size) ** 3
        return self.max_share * cubed / (cubed + half)

    def apply(self, node: Node) -> Node:
        """The node as re-rated while this background job runs."""
        return node.loaded(self.stolen_share)


#: Candidate background DGEMM dimensions; each loaded node draws one
#: uniformly.
BACKGROUND_MATRIX_SIZES = (100, 200, 400, 600, 800)


def heterogenize(
    pool: NodePool,
    loaded_fraction: float = 0.5,
    seed: int | np.random.Generator = 0,
) -> NodePool:
    """Degrade a (typically homogeneous) pool with background matrix products.

    Parameters
    ----------
    pool:
        The pool to heterogenize.
    loaded_fraction:
        Fraction of nodes that receive a background job (the rest keep
        their base power).  Each loaded node draws its job's size from
        :data:`BACKGROUND_MATRIX_SIZES`.
    seed:
        Seed or generator controlling which nodes are loaded and with what.

    Returns
    -------
    NodePool
        A new pool with the same node names and degraded effective powers.
    """
    if not (0.0 <= loaded_fraction <= 1.0):
        raise ParameterError(
            f"loaded_fraction must be in [0, 1], got {loaded_fraction}"
        )
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    n_loaded = int(round(loaded_fraction * len(pool)))
    loaded_indices = set(
        rng.choice(len(pool), size=n_loaded, replace=False).tolist()
    )
    nodes = []
    for index, node in enumerate(pool):
        if index in loaded_indices:
            size = int(rng.choice(list(BACKGROUND_MATRIX_SIZES)))
            nodes.append(BackgroundWorkload(matrix_size=size).apply(node))
        else:
            nodes.append(node)
    return NodePool(nodes)
