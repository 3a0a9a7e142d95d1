"""Metrics: counters, gauges, histograms and frozen snapshots.

A :class:`MetricsRegistry` holds named instruments the control plane
updates as it runs — served/dead-lettered/resubmitted conversations,
queue depths, engine heap compactions, :class:`HierarchyEvaluator
<repro.core.kernels.HierarchyEvaluator>` cache hit rates, detection
latencies.  At every epoch boundary the registry is frozen into a
:class:`MetricsSnapshot` that is attached to the epoch's
:class:`~repro.control.loop.EpochRecord`.

**Determinism contract.**  Every value that reaches a snapshot is a
pure function of simulation state (the registry is fed from engine and
middleware counters, never from wall clocks), so snapshots — and the
timelines that carry them — compare equal across repeated runs,
serial vs process-pool sweeps, and tracing enabled vs disabled.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "HistogramStats",
    "MetricsRegistry",
    "MetricsSnapshot",
]


class Counter:
    """A monotonically non-decreasing cumulative count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the running total."""
        self.value += amount

    def set_total(self, total: int | float) -> None:
        """Overwrite the running total (adopting an external counter)."""
        self.value = total


class Gauge:
    """A point-in-time value, overwritten at every observation."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        """Record the current value."""
        self.value = value


@dataclass(frozen=True)
class HistogramStats:
    """Frozen summary of one histogram: count/total/min/max (+ mean)."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observations (0 when empty)."""
        return self.total / self.count if self.count else 0.0


class Histogram:
    """A stream summary: observation count, sum, min and max.

    Enough to answer "how many, how much, how spread" for the low-rate
    streams the control plane cares about (detection latencies,
    migration downtimes) without the bucket bookkeeping a full
    histogram would cost on every observation.
    """

    __slots__ = ("count", "total", "_min", "_max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        """Fold one observation into the summary."""
        if self.count == 0:
            self._min = value
            self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self.count += 1
        self.total += value

    def stats(self) -> HistogramStats:
        """The frozen summary of everything observed so far."""
        return HistogramStats(
            count=self.count, total=self.total, min=self._min, max=self._max
        )


@dataclass(frozen=True)
class MetricsSnapshot:
    """One frozen, hashable view of a registry at an epoch boundary.

    Instrument values are stored as sorted ``(name, value)`` tuples so
    snapshots compare (and pickle) deterministically — they ride on
    :class:`~repro.control.loop.EpochRecord`, whose bit-identity across
    equal-seed runs the test suite asserts.
    """

    counters: tuple = ()
    gauges: tuple = ()
    histograms: tuple = ()

    def value(self, name: str, default=None):
        """Look ``name`` up among counters first, then gauges."""
        for key, value in self.counters:
            if key == name:
                return value
        for key, value in self.gauges:
            if key == name:
                return value
        return default

    def histogram(self, name: str) -> HistogramStats | None:
        """The frozen stats of histogram ``name`` (None if absent)."""
        for key, stats in self.histograms:
            if key == name:
                return stats
        return None

    def as_dict(self) -> dict:
        """Plain nested dict (for JSON export of per-epoch metrics)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: {
                    "count": stats.count,
                    "total": stats.total,
                    "min": stats.min,
                    "max": stats.max,
                }
                for name, stats in self.histograms
            },
        }


class MetricsRegistry:
    """Named instruments, created on first use, frozen on demand.

    ``counter``/``gauge``/``histogram`` get-or-create, so call sites
    never pre-declare; :meth:`snapshot` freezes everything into a
    :class:`MetricsSnapshot`; :meth:`reset` drops all instruments (a
    controller run's scope — :meth:`ControlLoop.run
    <repro.control.loop.ControlLoop.run>` resets, so a reused registry
    yields the same snapshots as a fresh one).
    """

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """The counter called ``name``, created on first use."""
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name``, created on first use."""
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name``, created on first use."""
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze every instrument into a sorted, hashable snapshot."""
        return MetricsSnapshot(
            counters=tuple(
                (name, counter.value)
                for name, counter in sorted(self._counters.items())
            ),
            gauges=tuple(
                (name, gauge.value)
                for name, gauge in sorted(self._gauges.items())
            ),
            histograms=tuple(
                (name, histogram.stats())
                for name, histogram in sorted(self._histograms.items())
            ),
        )

    def reset(self) -> None:
        """Drop every instrument (start of a controller run)."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
