"""Event-heap discrete-event simulation engine.

Deliberately minimal and fast: the heap holds ``(time, sequence, event)``
tuples, so ordering is a C-level tuple compare.  Sequence numbers are
unique, so the compare never reaches the :class:`Event`; they also make
simultaneous events fire in scheduling order, which keeps every run
bit-reproducible.  The engine knows nothing about resources or
middleware — those layers schedule callbacks on it.

Cancellation is lazy — :meth:`Event.cancel` just clears the callback — but
not unbounded: the simulator counts dead entries and compacts the heap once
they exceed half of it, so churn-heavy runs (retries, preemption storms,
timeout ladders) hold memory proportional to the *live* event count.
Compaction preserves the (time, sequence) total order, so firing order and
results are bit-identical with or without it.

One private loop fires events: it pops the heap top, skips cancelled
entries, stops at the horizon, checks that time never goes backwards and
fires.  :meth:`Simulator.run`, :meth:`Simulator.run_until`,
:meth:`Simulator.run_until_condition` and :meth:`Simulator.step` all share
it.  Their ``max_events`` budget follows one rule: a budget of N fires at
most N events, and raises only if a live event due within the horizon
remains after that.  ``run_until_condition`` adds a state-predicate stop
on top of the deadline — the primitive that lets a live migration drain a
subtree for exactly as long as it stays busy, with entities added and
removed mid-run and determinism intact.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback: the third element of a heap entry.

    The heap orders entries by ``(time, sequence)``; an event defines no
    ordering or equality of its own.  ``owner`` is the scheduling
    simulator, so cancellation can be counted for heap compaction
    (``None`` for events constructed outside a simulator).
    """

    __slots__ = ("time", "sequence", "callback", "owner")

    def __init__(
        self,
        time: float,
        sequence: int,
        callback: Callable[[], None] | None,
        owner: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.sequence = sequence
        self.callback = callback
        self.owner = owner

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event in place (lazy deletion from the heap)."""
        if self.callback is None:
            return
        self.callback = None
        if self.owner is not None:
            self.owner._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r})"
        )


def _always() -> bool:
    return True


class Simulator:
    """Deterministic discrete-event simulator.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> _ = sim.schedule(2.0, lambda: fired.append(sim.now))
    >>> _ = sim.schedule(1.0, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [1.0, 2.0]
    """

    #: Compaction triggers only above this heap size — tiny heaps are
    #: cheaper to drain lazily than to rebuild.
    COMPACT_MIN_SIZE = 512

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence: int = 0
        self._events_processed: int = 0
        self._cancelled_in_heap: int = 0
        self._compactions: int = 0

    # ------------------------------------------------------------------ #

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self.now + delay
        sequence = self._sequence = self._sequence + 1
        event = Event(time, sequence, callback, self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute simulation ``time``."""
        return self.schedule(time - self.now, callback)

    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far."""
        return self._events_processed

    @property
    def heap_compactions(self) -> int:
        """Number of times the event heap has been compacted."""
        return self._compactions

    def peek_time(self) -> float | None:
        """Time of the next live event, or None if the heap is drained."""
        heap = self._heap
        while heap and heap[0][2].callback is None:
            heapq.heappop(heap)
            self._cancelled_in_heap -= 1
        return heap[0][0] if heap else None

    # ------------------------------------------------------------------ #

    def _note_cancelled(self) -> None:
        """Bookkeeping hook for :meth:`Event.cancel`; may compact the heap.

        Compaction drops dead entries and re-heapifies, in place so the
        firing loop's reference to the heap stays valid.  Heap order is a
        total order here — sequence numbers are unique — so the surviving
        events pop in exactly the order they would have anyway: lazily and
        eagerly deleted runs are bit-identical.
        """
        self._cancelled_in_heap += 1
        heap = self._heap
        if (
            len(heap) >= self.COMPACT_MIN_SIZE
            and 2 * self._cancelled_in_heap > len(heap)
        ):
            heap[:] = [entry for entry in heap if entry[2].callback is not None]
            heapq.heapify(heap)
            self._cancelled_in_heap = 0
            self._compactions += 1

    # ------------------------------------------------------------------ #

    def _fire(
        self,
        horizon: float,
        condition: Callable[[], bool] | None = None,
        max_events: int | None = None,
    ) -> bool:
        """The firing loop: fire live events due by ``horizon`` in order.

        Returns ``True`` as soon as ``condition()`` holds after a firing,
        ``False`` once no live event due by ``horizon`` remains (the clock
        then rests at the last event fired).  Raises if ``max_events``
        events have fired and a live event due by ``horizon`` remains.
        """
        heap = self._heap
        heappop = heapq.heappop
        budget = -1 if max_events is None else max_events
        fired = 0
        while heap:
            time, _, event = heap[0]
            callback = event.callback
            if callback is None:
                heappop(heap)
                self._cancelled_in_heap -= 1
                continue
            if time > horizon:
                return False
            if fired == budget:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now:.6f}"
                )
            heappop(heap)
            if time < self.now:
                raise SimulationError(
                    f"time went backwards: {time} < {self.now}"
                )
            self.now = time
            event.callback = None
            self._events_processed += 1
            fired += 1
            callback()
            if condition is not None and condition():
                return True
        return False

    def step(self) -> bool:
        """Fire the next live event.  Returns False when none remain."""
        return self._fire(math.inf, _always)

    def run(self, max_events: int | None = None) -> None:
        """Run until the heap drains (at most ``max_events`` callbacks)."""
        self._fire(math.inf, None, max_events)

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Run events with ``event.time <= time``; clock ends at ``time``.

        Events scheduled beyond the horizon stay queued, so simulations can
        be advanced window by window.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot run to the past: {time} < now={self.now}"
            )
        self._fire(time, None, max_events)
        self.now = time

    def run_until_condition(
        self,
        deadline: float,
        condition: Callable[[], bool],
        max_events: int | None = None,
    ) -> bool:
        """Run events until ``condition()`` holds or ``deadline`` passes.

        The mid-run entity hook: live-migration drains use this to wait
        until a detached subtree has gone quiet without committing to a
        fixed-length outage window.  ``condition`` is evaluated against
        simulation state only (never wall clock), and events fire in
        exactly the order :meth:`run_until` would fire them, so adding
        the condition cannot perturb determinism — it can only stop the
        clock earlier.

        Returns ``True`` if the condition was met (the clock rests at
        the event that satisfied it, or at ``now`` if it held already);
        ``False`` if the deadline was reached first (the clock then
        rests exactly at ``deadline``, like :meth:`run_until`).
        """
        if deadline < self.now:
            raise SimulationError(
                f"cannot run to the past: {deadline} < now={self.now}"
            )
        if condition():
            return True
        if self._fire(deadline, condition, max_events):
            return True
        self.now = deadline
        return False
