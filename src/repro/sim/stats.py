"""Measurement utilities for steady-state throughput experiments.

Measuring "maximum sustained throughput" is the delicate part of the
paper's methodology (§5.1): too little load under-drives the platform, too
much degrades it, and ramp-up transients must be excluded.
:class:`IntervalCounter` serves that protocol: it counts completions and
reports the rate over an arbitrary time window, so a harness can drop
the warm-up.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import SimulationError

__all__ = ["IntervalCounter"]


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
