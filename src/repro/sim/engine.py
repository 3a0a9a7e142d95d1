"""Event-heap discrete-event simulation engine.

Deliberately minimal and fast: the heap holds ``(time, sequence, event)``
tuples, so ordering is a C-level tuple compare.  Sequence numbers are
unique, so the compare reaches the :class:`Event` only when a key from
:meth:`Simulator.take` was used twice, and the event then raises; they
also make simultaneous events fire in scheduling order, which keeps
every run bit-reproducible.  The engine knows nothing about resources
or middleware — those layers schedule callbacks on it.

Cancellation is lazy — :meth:`Event.cancel` just clears the callback — but
not unbounded: the simulator counts dead entries and compacts the heap once
they exceed half of it, so churn-heavy runs (retries, preemption storms,
timeout ladders) hold memory proportional to the *live* event count.
Compaction preserves the (time, sequence) total order, so firing order and
results are bit-identical with or without it.

A pending event can also be *suspended* and later *resumed* at a new
time without cancel-and-reschedule — the serial resource model parks a
preempted completion this way, often several times per work item.  The
carrier rule keeps this to one heap entry per event:

* every pending event is carried by exactly one heap entry, and records
  that entry's time as :attr:`Event.carrier`;
* an entry whose sequence differs from its event's current sequence is
  a *carrier* — a key the event has since outgrown.  When a carrier
  reaches the heap top, a suspended event's carrier is dropped, and any
  other carrier is re-keyed to its event's ``(time, sequence)`` in place;
* :meth:`Simulator.suspend` invalidates the event's key and leaves the
  heap alone;
* :meth:`Simulator.resume` takes the next sequence number, exactly where
  a fresh :meth:`Simulator.schedule` would — or a key from
  :meth:`Simulator.take`, see below.  A carrier due no later than the
  new time is simply outgrown
  (re-keyed when it surfaces); a dropped carrier is replaced by a new
  entry; a carrier due *later* than the new time cannot be re-keyed
  upwards, so the old event is cancelled and a fresh event takes over.

A carrier's key is below its event's key, so it surfaces first, and
every event fires at the ``(time, sequence)`` a cancel-and-reschedule
would have given it: firing order and sequence numbering are unchanged,
only the heap's bookkeeping (:attr:`Simulator.pending`,
:attr:`Simulator.heap_compactions`) differs.

Two more hooks let a caller keep a sequence number and an event
object it would otherwise throw away:

* :meth:`Simulator.take` takes the whole ``(time, sequence)`` key that
  ``schedule(delay, ...)`` would give an event now — split hook
  included, see below — and puts nothing on the heap.
  :meth:`Simulator.arm` later schedules a callback under that key,
  through :meth:`~Simulator.schedule`, and ``resume(..., sequence=key)``
  resumes a suspended event under it; either way the event fires
  exactly where one scheduled at the take would have.  The time is the
  one computed at the take, never re-derived from a delay; the key must
  be ahead of the event now firing (or of the last number taken, after
  a run stopped at a horizon), and using it calls the split hook of its
  time again.  A key never used is a gap in the numbering that leaves
  the order of every other event alone.  The serial resource keys its
  deferred restart this way; the middleware watchdogs queue their
  deadlines this way and keep only the earliest of each queue on the
  heap.
* ``schedule(..., reuse=event)`` re-arms an event that is off the heap
  — fired, or cancelled after its entry was popped — instead of
  allocating a new one.  The event must belong to this simulator and
  its handle to the caller alone: whoever still holds it would now
  cancel the new incarnation.  Re-arming still goes through
  :meth:`~Simulator.schedule`, the one entry point that every new
  heap entry passes.

Three more let the serial resource run a chain of segments as one
event (see :mod:`repro.sim.resources`) and split it back exactly:

* :meth:`Simulator.watch` names the chain's boundary times: scheduling,
  resuming, taking or arming any event at one of them first calls the
  chain's split hook, before the event takes its sequence number;
* :meth:`Simulator.passed` tells whether a boundary keyed
  ``(time, sequence)`` would have fired by now: whether the key is at
  or behind the event now firing;
* :meth:`Simulator.rekey` moves the chain's pending event to an earlier
  boundary under its own sequence number.

One private loop fires events: it pops the heap top, skips cancelled
entries, drops or re-keys carriers, stops at the horizon, checks that
time never goes backwards and fires.  :meth:`Simulator.run`,
:meth:`Simulator.run_until` and :meth:`Simulator.run_until_condition`
share it.  Their ``max_events`` budget follows one rule: a budget of N
fires at most N events, and raises only if a live event due within the
horizon remains after that.  ``run_until_condition`` adds a
state-predicate stop on top of the deadline — the primitive that lets a
live migration drain a subtree for exactly as long as it stays busy,
with entities added and removed mid-run and determinism intact.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from itertools import compress

from repro.errors import SimulationError

__all__ = ["Event", "Simulator"]


class Event:
    """A scheduled callback: the third element of a heap entry.

    The heap orders entries by ``(time, sequence)``; an event defines no
    equality of its own, and its ordering only raises (see
    :meth:`__lt__`).  ``owner`` is the scheduling
    simulator, so cancellation can be counted for heap compaction
    (``None`` for events constructed outside a simulator).

    ``time`` and ``sequence`` are the event's current key: it fires when
    the heap reaches that key.  ``carrier`` is the time of the one heap
    entry that carries the event — equal to ``time`` unless the event
    was suspended or resumed since that entry was pushed — or ``None``
    once no entry carries it: the event fired, its dead entry was
    popped, or a surfacing carrier of a suspended event was dropped.  A
    suspended event's key is ``(inf, 0)``; no heap entry matches it.
    """

    __slots__ = ("time", "sequence", "callback", "owner", "carrier")

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
        self.carrier: float | None = time

    @property
    def cancelled(self) -> bool:
        return self.callback is None

    def cancel(self) -> None:
        """Cancel the event in place (lazy deletion from the heap).

        Its carrier, if it still has one, becomes a dead heap entry.
        """
        if self.callback is None:
            return
        self.callback = None
        if self.owner is not None and self.carrier is not None:
            self.owner._note_cancelled()

    def __lt__(self, other: "Event") -> bool:
        """Two heap entries share a ``(time, sequence)`` key: a key from
        :meth:`Simulator.take` was armed or resumed twice.  The heap
        compares events only then, so refusing here costs nothing."""
        raise SimulationError(
            f"key {(self.time, self.sequence)!r} used twice: a key from "
            "take() can be armed or resumed once"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, sequence={self.sequence!r}, "
            f"callback={self.callback!r})"
        )


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
        # The sequence number of the event firing at ``now``, or of the
        # last one taken when a run stopped at a horizon: keys at or
        # behind it are refused by :meth:`arm` and have passed for
        # :meth:`passed`.
        self._firing: int = 0
        # Watched boundary times of fused chains -> the split hook of
        # the chain that owns them.  See :meth:`watch`.
        self._watched: dict[float, Callable[[], None]] = {}
        self._watch_limit: int = self.COMPACT_MIN_SIZE

    # ------------------------------------------------------------------ #

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        reuse: Event | None = None,
        sequence: tuple[float, int] | None = None,
    ) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``reuse`` re-arms an event that no heap entry carries instead of
        allocating one; ``sequence`` fires it at a ``(time, sequence)``
        key from :meth:`take` instead, whose time then stands in for
        ``now + delay`` (see :meth:`arm`).
        """
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        if reuse is not None and (
            reuse.callback is not None
            or reuse.carrier is not None
            or reuse.owner is not self
        ):
            raise SimulationError(
                f"cannot reuse {reuse!r}: pending, still on the heap or "
                "owned by another simulator"
            )
        if sequence is None:
            time = self.now + delay
            if time in self._watched:
                self._watched[time]()
            sequence = self._sequence = self._sequence + 1
        else:
            time, sequence = self._claim(sequence)
        if reuse is None:
            event = Event(time, sequence, callback, self)
        else:
            reuse.time = reuse.carrier = time
            reuse.sequence = sequence
            reuse.callback = callback
            event = reuse
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def take(self, delay: float) -> tuple[float, int]:
        """Take the ``(time, sequence)`` key ``schedule(delay, ...)``
        would give an event now, split hook included, for a later
        :meth:`arm` or ``resume``; nothing goes on the heap."""
        if not delay >= 0.0:
            raise SimulationError(f"cannot schedule in the past: delay={delay}")
        time = self.now + delay
        if time in self._watched:
            self._watched[time]()
        sequence = self._sequence = self._sequence + 1
        return time, sequence

    def arm(self, key: tuple[float, int], callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at a key from :meth:`take`: it fires
        where an event scheduled at that take would have fired.  The key
        must be ahead of the event now firing."""
        return self.schedule(0.0, callback, sequence=key)

    def _claim(self, key: tuple[float, int]) -> tuple[float, int]:
        """A key from :meth:`take`, checked to be ahead of the event now
        firing, with its time's split hook called."""
        time, sequence = key
        now = self.now
        if not (
            (time > now or time == now and sequence > self._firing)
            and 0 < sequence <= self._sequence
        ):
            raise SimulationError(
                f"cannot arm key {key!r}: never taken, or at or behind "
                f"the event now firing (t={now})"
            )
        if time in self._watched:
            self._watched[time]()
        return key

    def suspend(self, event: Event) -> None:
        """Hold a pending ``event``: it keeps its callback but cannot fire
        until :meth:`resume`.  The heap is not touched."""
        if event.callback is None or event.sequence == 0:
            raise SimulationError(f"cannot suspend {event!r}: not pending")
        event.time = math.inf
        event.sequence = 0

    def resume(
        self,
        event: Event,
        delay: float,
        sequence: tuple[float, int] | None = None,
    ) -> Event:
        """Let a suspended ``event`` fire ``delay`` seconds from now, or
        at a ``sequence`` key from :meth:`take`.

        Fires exactly as ``schedule(delay, callback, sequence=sequence)``
        would — same time, same sequence number — but reuses the event's
        carrier when it is due no later (see the module docstring).
        Returns the event that will fire: ``event`` itself, or a fresh
        one when the carrier was due later, in which case ``event`` is
        cancelled.
        """
        if event.callback is None or event.sequence != 0:
            raise SimulationError(f"cannot resume {event!r}: not suspended")
        if sequence is None:
            time, sequence = self.take(delay)
        else:
            time, sequence = self._claim(sequence)
        carrier = event.carrier
        if carrier is not None and carrier <= time:
            event.time = time
            event.sequence = sequence
            return event
        if carrier is None:
            event.time = event.carrier = time
            event.sequence = sequence
        else:
            callback = event.callback
            event.cancel()
            event = Event(time, sequence, callback, self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    def watch(self, times, split: Callable[[], None]) -> None:
        """Call ``split()`` before any event is scheduled, resumed, taken
        or armed at one of ``times``: the boundary times of a fused chain
        (see the module docstring).

        A watch is not withdrawn, so ``split`` must do nothing once its
        chain has ended; watches on times the clock has passed, which
        nothing can be keyed at any more, are dropped in bulk.  A time
        another ``split`` watches calls that one first and changes
        hands, so no two pending chains ever share a time.
        """
        watched = self._watched
        if not watched.keys().isdisjoint(times):
            for time in times:
                other = watched.get(time, split)
                if other is not split:
                    other()
        watched.update(dict.fromkeys(times, split))
        if len(watched) > self._watch_limit:
            self._watched = watched = dict(
                compress(watched.items(), map(float(self.now).__le__, watched))
            )
            self._watch_limit = 2 * len(watched) + self.COMPACT_MIN_SIZE

    def passed(self, time: float, sequence: int) -> bool:
        """Whether a fused chain's boundary keyed ``(time, sequence)``
        would have fired by now: the clock is past ``time``, or at it
        with ``sequence`` at or behind the event now firing — behind
        every number taken, after a run stopped at a horizon.

        An event firing at a boundary time was keyed before the chain
        began: one keyed later would have split the chain.
        """
        now = self.now
        return time < now or (time == now and sequence <= self._firing)

    def rekey(
        self, event: Event, time: float, callback: Callable[[], None]
    ) -> Event:
        """Make pending ``event`` fire ``callback`` at ``time``, no later
        than it was due, under its own sequence number.

        Returns the event that will fire: ``event`` itself when ``time``
        is its own, else a fresh one (``event`` is cancelled).  The
        watch is not consulted: the key is the event's own, moved.
        """
        if event.callback is None or event.sequence == 0 or time > event.time:
            raise SimulationError(f"cannot rekey {event!r} to t={time}")
        if time == event.time:
            event.callback = callback
            return event
        sequence = event.sequence
        event.cancel()
        event = Event(time, sequence, callback, self)
        heapq.heappush(self._heap, (time, sequence, event))
        return event

    # ------------------------------------------------------------------ #

    @property
    def pending(self) -> int:
        """Number of heap entries: live events, dead entries and carriers."""
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Number of callbacks fired so far."""
        return self._events_processed

    @property
    def heap_compactions(self) -> int:
        """Number of times the event heap has been compacted."""
        return self._compactions

    # ------------------------------------------------------------------ #

    def _surface(self, event: Event) -> None:
        """The heap top carries ``event`` under an outgrown key: drop the
        carrier if the event is suspended, else re-key it in place."""
        if event.sequence:
            heapq.heapreplace(self._heap, (event.time, event.sequence, event))
            event.carrier = event.time
        else:
            heapq.heappop(self._heap)
            event.carrier = None

    def _note_cancelled(self) -> None:
        """Bookkeeping hook for :meth:`Event.cancel`; may compact the heap.

        Compaction drops dead entries and re-heapifies, in place so the
        firing loop's reference to the heap stays valid.  Heap order is a
        total order here — sequence numbers are unique — so the surviving
        events pop in exactly the order they would have anyway: lazily and
        eagerly deleted runs are bit-identical.  Carriers belong to live
        events, so they survive with their keys.
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

        Dead entries and carriers at the top are handled whatever their
        time, so a window may drop or re-key entries past its horizon.
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
            time, sequence, event = heap[0]
            callback = event.callback
            if callback is None:
                heappop(heap)
                event.carrier = None
                self._cancelled_in_heap -= 1
                continue
            if sequence != event.sequence:
                self._surface(event)
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
            self._firing = sequence
            event.callback = event.carrier = None
            self._events_processed += 1
            fired += 1
            callback()
            if condition is not None and condition():
                return True
        return False

    def run(self, max_events: int | None = None) -> None:
        """Run until the heap drains (at most ``max_events`` callbacks)."""
        self._fire(math.inf, None, max_events)

    def run_until(self, time: float, max_events: int | None = None) -> None:
        """Run events with ``event.time <= time``; clock ends at ``time``.

        Events scheduled beyond the horizon stay queued, so simulations can
        be advanced window by window.
        """
        if not time >= self.now:
            raise SimulationError(
                f"cannot run to the past: {time} < now={self.now}"
            )
        self._fire(time, None, max_events)
        self._stop_at(time)

    def _stop_at(self, horizon: float) -> None:
        """Rest the clock at ``horizon`` with every event due by it fired:
        every sequence number taken so far is behind it."""
        self.now = horizon
        self._firing = self._sequence

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
        if not deadline >= self.now:
            raise SimulationError(
                f"cannot run to the past: {deadline} < now={self.now}"
            )
        if condition():
            return True
        if self._fire(deadline, condition, max_events):
            return True
        self._stop_at(deadline)
        return False
