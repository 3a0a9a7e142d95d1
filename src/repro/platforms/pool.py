"""Node pools — the planner's resource inventory.

A :class:`NodePool` is an immutable, name-indexed collection of
:class:`~repro.platforms.node.Node` with convenience constructors for the
platform families used throughout the paper's evaluation:

* :meth:`NodePool.homogeneous` — identical nodes (the §5.2 Lyon cluster and
  the Table 4 comparison against the homogeneous-optimal planner of [10]);
* :meth:`NodePool.heterogeneous` — explicit per-node powers;
* :meth:`NodePool.uniform_random` / :meth:`NodePool.clustered` — synthetic
  heterogeneous pools for sweeps and property tests.

The §5.3 background-load heterogenization lives in
:mod:`repro.platforms.background` and produces a new pool from an existing
one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ParameterError
from repro.platforms.node import Node

__all__ = ["NodePool"]


class NodePool:
    """Immutable collection of uniquely-named compute nodes."""

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            dupes = sorted({x for x in names if names.count(x) > 1})
            raise ParameterError(f"duplicate node names in pool: {dupes}")
        self._nodes: tuple[Node, ...] = tuple(nodes)
        self._by_name = {n.name: n for n in nodes}

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def homogeneous(
        cls, count: int, power: float, prefix: str = "node"
    ) -> "NodePool":
        """``count`` identical nodes of ``power`` MFlop/s."""
        if count < 1:
            raise ParameterError(f"pool needs >= 1 node, got {count}")
        width = len(str(count - 1))
        return cls(
            Node(power=power, name=f"{prefix}-{i:0{width}d}") for i in range(count)
        )

    @classmethod
    def heterogeneous(
        cls, powers: Sequence[float], prefix: str = "node"
    ) -> "NodePool":
        """One node per entry of ``powers``."""
        if not powers:
            raise ParameterError("powers must not be empty")
        width = len(str(len(powers) - 1))
        return cls(
            Node(power=float(p), name=f"{prefix}-{i:0{width}d}")
            for i, p in enumerate(powers)
        )

    @classmethod
    def uniform_random(
        cls,
        count: int,
        low: float,
        high: float,
        seed: int | np.random.Generator = 0,
        prefix: str = "node",
    ) -> "NodePool":
        """Powers drawn uniformly from ``[low, high]`` (seeded, reproducible)."""
        if count < 1:
            raise ParameterError(f"pool needs >= 1 node, got {count}")
        if not (0.0 < low <= high):
            raise ParameterError(f"need 0 < low <= high, got ({low}, {high})")
        rng = (
            seed
            if isinstance(seed, np.random.Generator)
            else np.random.default_rng(seed)
        )
        powers = rng.uniform(low, high, size=count)
        return cls.heterogeneous(list(powers), prefix=prefix)

    @classmethod
    def clustered(
        cls,
        group_sizes: Sequence[int],
        group_powers: Sequence[float],
        prefix: str = "node",
    ) -> "NodePool":
        """A pool made of homogeneous groups (a federation of sub-clusters)."""
        if len(group_sizes) != len(group_powers):
            raise ParameterError(
                f"{len(group_sizes)} sizes but {len(group_powers)} powers"
            )
        powers: list[float] = []
        for size, power in zip(group_sizes, group_powers):
            if size < 1:
                raise ParameterError(f"group size must be >= 1, got {size}")
            powers.extend([power] * size)
        return cls.heterogeneous(powers, prefix=prefix)

    # ------------------------------------------------------------------ #
    # collection protocol

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._nodes)

    def __getitem__(self, key: int | str) -> Node:
        if isinstance(key, str):
            return self._by_name[key]
        return self._nodes[key]

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def names(self) -> list[str]:
        return [n.name for n in self._nodes]

    @property
    def powers(self) -> list[float]:
        return [n.power for n in self._nodes]

    # ------------------------------------------------------------------ #
    # derived pools & stats

    def sorted_by_power(self, descending: bool = True) -> "NodePool":
        """New pool ordered by effective power (ties broken by name)."""
        return NodePool(
            sorted(
                self._nodes,
                key=lambda n: (n.power, n.name),
                reverse=descending,
            )
        )

    def take(self, count: int) -> "NodePool":
        """The first ``count`` nodes of this pool."""
        if not (1 <= count <= len(self._nodes)):
            raise ParameterError(
                f"take({count}) out of range for pool of {len(self._nodes)}"
            )
        return NodePool(self._nodes[:count])

    def without(self, names: Iterable[str]) -> "NodePool":
        """This pool minus the given node names."""
        excluded = set(names)
        unknown = excluded - set(self._by_name)
        if unknown:
            raise ParameterError(f"unknown node names: {sorted(unknown)}")
        return NodePool(n for n in self._nodes if n.name not in excluded)

    @property
    def total_power(self) -> float:
        return float(sum(n.power for n in self._nodes))

    @property
    def is_homogeneous(self) -> bool:
        powers = self.powers
        return max(powers) - min(powers) < 1e-12 * max(powers)

    def heterogeneity(self) -> float:
        """Coefficient of variation of node powers (0 for homogeneous)."""
        powers = np.asarray(self.powers)
        mean = float(powers.mean())
        return float(powers.std() / mean) if mean > 0 else 0.0

    def describe(self) -> str:
        powers = np.asarray(self.powers)
        return (
            f"NodePool(n={len(self)}, power min={powers.min():.1f} "
            f"median={np.median(powers):.1f} max={powers.max():.1f} MFlop/s, "
            f"cv={self.heterogeneity():.3f})"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self.describe()
