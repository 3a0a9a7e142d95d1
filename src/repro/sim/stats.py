"""Measurement utilities for steady-state throughput experiments.

Measuring "maximum sustained throughput" is the delicate part of the
paper's methodology (§5.1): too little load under-drives the platform, too
much degrades it, and ramp-up transients must be excluded.  These helpers
mirror that protocol:

* :class:`IntervalCounter` — counts completions and reports the rate over
  an arbitrary time window (used to drop warm-up);
* :class:`WindowedRate` — per-second (or per-bucket) completion series,
  the raw material of the "requests/second vs. number of clients" curves
  in Figures 2, 4, 6 and 7.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from repro.errors import SimulationError

__all__ = ["IntervalCounter", "WindowedRate"]


class IntervalCounter:
    """Record completion timestamps; query rates over windows."""

    def __init__(self) -> None:
        self._times: list[float] = []

    def record(self, time: float) -> None:
        if self._times and time < self._times[-1]:
            raise SimulationError(
                f"completion time went backwards: {time} < {self._times[-1]}"
            )
        self._times.append(time)

    @property
    def count(self) -> int:
        return len(self._times)

    @property
    def times(self) -> list[float]:
        return list(self._times)

    def count_in(self, start: float, end: float) -> int:
        """Completions with ``start < t <= end``."""
        if end < start:
            raise SimulationError(f"bad window: ({start}, {end})")
        return bisect_right(self._times, end) - bisect_right(self._times, start)

    def rate(self, start: float, end: float) -> float:
        """Mean completion rate (per second) over ``(start, end]``."""
        if end <= start:
            raise SimulationError(f"bad window: ({start}, {end})")
        return self.count_in(start, end) / (end - start)


class WindowedRate:
    """Bucket completions into fixed-width windows for time series."""

    def __init__(self, width: float = 1.0):
        if width <= 0.0:
            raise SimulationError(f"window width must be > 0, got {width}")
        self.width = width
        self._counter = IntervalCounter()

    def record(self, time: float) -> None:
        self._counter.record(time)

    def series(self, start: float, end: float) -> tuple[np.ndarray, np.ndarray]:
        """(bucket centers, rates) for buckets fully inside ``[start, end]``."""
        if end <= start:
            raise SimulationError(f"bad window: ({start}, {end})")
        edges = np.arange(start, end + 1e-12, self.width)
        if len(edges) < 2:
            return np.array([]), np.array([])
        counts = np.array(
            [
                self._counter.count_in(lo, hi)
                for lo, hi in zip(edges[:-1], edges[1:])
            ],
            dtype=float,
        )
        centers = 0.5 * (edges[:-1] + edges[1:])
        return centers, counts / self.width
