"""The M(r,s,w) single-port serial resource model.

The paper adopts the computation/communication capability model
``M(r, s, w)`` of [Chouhan, PhD 2006]: a node has *no internal
parallelism* — at any instant it either receives a message, sends a
message, or computes, through a single port, serially.

:class:`SerialResource` realizes that model on the event engine with two
priority classes:

* priority 0 — scheduling-phase work (request forwarding, predictions,
  reply merging);
* priority 1 — service-phase work (application execution and its
  transfers).

Priority-0 work *preempts* priority-1 work: a DIET SeD answers scheduling
predictions from its communication thread within microseconds even while
an application call is running, and the OS scheduler briefly time-slices
the worker to allow it.  Preemption is work-conserving — the interrupted
item resumes with its remaining duration — so the node's total capacity
accounting, which is all the paper's throughput model relies on, is
unchanged.  Only latency behaviour (and therefore the load-balancing
feedback loop) becomes realistic.

Preemption *parks* the interrupted item's completion event: the engine
suspends it in place (:meth:`~repro.sim.engine.Simulator.suspend`) and
resumes it when the item restarts, rather than cancelling it and
scheduling a new one.

A completion also *defers* the restart of queued priority-1 work.
Middleware callback chains submit their next priority-0 step from the
completion callback, at the very instant the service item would
restart, so restarting it first would only preempt it again with zero
elapsed time.  When only priority-1 work is queued, the completion
reserves the sequence number the restart would take
(:meth:`~repro.sim.engine.Simulator.reserve`) and runs its callback
with the resource idle and the item still at the front of the low
queue:

* a priority-0 submit inside the callback forfeits the reservation and
  starts at once — the zero-elapsed preemption the restart would have
  suffered, counted in :attr:`SerialResource.preemptions` all the same;
* a priority-1 submit, :meth:`SerialResource.set_rate` or
  :meth:`SerialResource.halt` inside the callback first starts the
  deferred item under the reserved number, which is the state an
  immediate restart would have left;
* otherwise the item starts under the reserved number once the
  callback returns.

No reservation outlives the completion callback that made it, and the
observers (:attr:`SerialResource.is_busy`,
:attr:`SerialResource.queue_length`, :attr:`SerialResource.backlog`)
count the deferred item as in progress.  Idle work starts directly,
and a fired completion event is re-armed for the next item rather
than replaced.  Events fire at exactly the times and in exactly the
order cancel-and-reschedule gives them.

Per-kind busy-time accounting feeds utilization reports, which is how
experiment harnesses identify the bottleneck node — the simulated
analogue of the paper's mathematical bottleneck analysis.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from itertools import islice

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["SerialResource"]

_KINDS = ("send", "recv", "compute")


class SerialResource:
    """A priority-preemptive serial execution resource.

    Parameters
    ----------
    sim:
        The event engine.
    name:
        Identifier used in traces and error messages.
    """

    __slots__ = (
        "sim",
        "name",
        "_queue",
        "_low_queue",
        "_busy",
        "_current",
        "_completion",
        "_parked",
        "_spare",
        "_deferred",
        "_on_complete",
        "busy_time",
        "tasks_done",
        "preemptions",
        "_busy_since",
        "_kind_time",
        "_rate",
        "_halted",
    )

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        # Items: (remaining_duration, kind, on_done) — durations are
        # *nominal* (rate-1) seconds; the rate applies when work starts.
        self._queue: deque[tuple[float, str, Callable[[], None] | None]] = deque()
        self._low_queue: deque[
            tuple[float, str, Callable[[], None] | None]
        ] = deque()
        self._busy = False
        self._current: tuple[float, str, Callable[[], None] | None, int] | None = None
        self._completion: Event | None = None
        # The suspended completion of the preempted item at the front of
        # the low queue.  At most one item is ever preempted and waiting:
        # it sits at the front, so the next low-priority start is its own.
        self._parked: Event | None = None
        # A fired completion event, re-armed for the next item started.
        self._spare: Event | None = None
        # The sequence number reserved for a deferred restart while a
        # completion callback runs; 0 otherwise.
        self._deferred = 0
        self._on_complete = self._complete
        self.busy_time = 0.0
        self.tasks_done = 0
        self.preemptions = 0
        self._busy_since = 0.0
        self._kind_time = {kind: 0.0 for kind in _KINDS}
        # Speed multiplier (fault injection's straggler model): wall
        # duration = nominal / rate.  1.0 is the nominal, bit-exact path.
        self._rate = 1.0
        # A halted resource (crashed node) silently drops all work.
        self._halted = False

    # ------------------------------------------------------------------ #

    def submit(
        self,
        duration: float,
        kind: str,
        on_done: Callable[[], None] | None = None,
        priority: int = 0,
    ) -> None:
        """Queue a work item of ``duration`` seconds.

        ``kind`` must be one of ``send``, ``recv``, ``compute`` (the three
        exclusive activities of the M(r,s,w) model).  ``on_done`` fires
        when the item completes.  Priority-0 items preempt a priority-1
        item in progress (work-conserving).
        """
        if not duration >= 0.0:
            raise SimulationError(
                f"{self.name}: task duration must be >= 0, got {duration}"
            )
        if kind not in _KINDS:
            raise SimulationError(
                f"{self.name}: unknown task kind {kind!r}; expected {_KINDS}"
            )
        if priority != 0 and priority != 1:
            raise SimulationError(
                f"{self.name}: priority must be 0 or 1, got {priority}"
            )
        if self._halted:
            # A crashed node is a black hole: valid work vanishes,
            # callbacks never fire.  Failure surfacing is the
            # middleware's job (dead-letter + resubmit), not the
            # resource's.
            return
        if self._busy:
            if priority:
                self._low_queue.append((duration, kind, on_done))
                return
            if self._current[3] == 0:
                self._queue.append((duration, kind, on_done))
                return
            self._preempt()
        elif self._deferred:
            if priority:
                self._restart(self._deferred)
                self._low_queue.append((duration, kind, on_done))
                return
            self._forfeit()
        # The resource is idle and its queues are empty, a preempted or
        # deferred item aside: start at once.
        self._busy = True
        self._busy_since = self.sim.now
        # Queued durations are nominal; _current holds *wall* duration.
        # At rate 1.0 the division is bit-exact identity.
        wall = duration / self._rate
        self._current = (wall, kind, on_done, priority)
        self._completion = self.sim.schedule(
            wall, self._on_complete, self._spare
        )
        self._spare = None

    # ------------------------------------------------------------------ #

    @property
    def is_busy(self) -> bool:
        return self._busy or self._deferred != 0

    @property
    def rate(self) -> float:
        """Current speed multiplier (1.0 = nominal)."""
        return self._rate

    @property
    def is_halted(self) -> bool:
        return self._halted

    def set_rate(self, rate: float) -> None:
        """Change the speed multiplier mid-run (straggler injection).

        The in-progress item (if any) is re-timed work-conservingly: its
        elapsed wall time is banked into the busy accounting, the
        remaining nominal work is rescheduled at the new rate.  Queued
        items hold nominal durations, so they pick up the new rate when
        they start.  ``set_rate(1.0)`` on an idle, never-degraded
        resource is a bit-exact no-op.
        """
        if not rate > 0.0:
            raise SimulationError(
                f"{self.name}: rate must be > 0, got {rate} "
                "(use halt() to stop the resource)"
            )
        if self._halted:
            raise SimulationError(f"{self.name}: cannot re-rate a halted resource")
        if rate == self._rate:
            return
        if self._deferred:
            self._restart(self._deferred)
        if self._busy:
            assert self._current is not None and self._completion is not None
            wall, kind, on_done, priority = self._current
            elapsed = self.sim.now - self._busy_since
            remaining_wall = max(0.0, wall - elapsed)
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            new_wall = remaining_wall * self._rate / rate
            self._busy_since = self.sim.now
            self._current = (new_wall, kind, on_done, priority)
            self._completion = self.sim.schedule(
                new_wall, self._on_complete, self._spare
            )
            self._spare = None
        self._rate = rate

    def halt(self) -> int:
        """Stop the resource permanently (crash injection).

        The in-progress item's elapsed time is banked (the node really
        did burn those cycles), its completion is cancelled, and every
        queued item is dropped — a preempted item with its parked
        completion too; subsequent valid :meth:`submit` calls are
        silently ignored.  Returns the number of work items discarded.
        """
        if self._halted:
            return 0
        if self._deferred:
            self._restart(self._deferred)
        dropped = len(self._queue) + len(self._low_queue)
        if self._busy:
            assert self._current is not None and self._completion is not None
            _, kind, _, _ = self._current
            elapsed = self.sim.now - self._busy_since
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            dropped += 1
        if self._parked is not None:
            self._parked.cancel()
            self._parked = None
        self._queue.clear()
        self._low_queue.clear()
        self._busy = False
        self._current = None
        self._completion = None
        self._halted = True
        return dropped

    @property
    def queue_length(self) -> int:
        """Work items waiting (excluding the one in progress)."""
        return len(self._queue) + len(self._low_queue) - (self._deferred != 0)

    @property
    def backlog(self) -> float:
        """Total queued work in seconds (excluding the one in progress)."""
        waiting = islice(self._low_queue, self._deferred != 0, None)
        return sum(item[0] for item in self._queue) + sum(
            item[0] for item in waiting
        )

    def busy_seconds(self, horizon: float | None = None) -> float:
        """Cumulative busy seconds, including the in-progress item's elapsed
        part (up to ``horizon`` or now).

        ``horizon`` clamps only the in-progress item — completed work is
        always counted in full, so this is an as-of-now accounting, not a
        rewind: past horizons are meaningful only back to the start of
        the current item.  Windowed observers (the control plane's
        monitor) should snapshot at both window edges and diff, which is
        exactly what per-window utilization needs and the cumulative
        :meth:`utilization` cannot provide.
        """
        end = self.sim.now if horizon is None else horizon
        busy = self.busy_time
        if self._busy:
            busy += max(0.0, min(end, self.sim.now) - self._busy_since)
        return busy

    def utilization(self, horizon: float | None = None) -> float:
        """Fraction of time busy since t=0 (up to ``horizon`` or now)."""
        end = self.sim.now if horizon is None else horizon
        if end <= 0.0:
            return 0.0
        return min(1.0, self.busy_seconds(end) / end)

    def kind_time(self, kind: str) -> float:
        """Cumulative busy seconds spent on one task kind."""
        if kind not in _KINDS:
            raise SimulationError(f"unknown task kind {kind!r}")
        return self._kind_time[kind]

    # ------------------------------------------------------------------ #

    def _restart(self, sequence: int | None = None) -> None:
        """Start the front of the low queue, resuming its parked
        completion if it was preempted; under ``sequence`` if given
        (a deferred restart's reservation)."""
        self._deferred = 0
        duration, kind, on_done = self._low_queue.popleft()
        self._busy = True
        self._busy_since = self.sim.now
        wall = duration / self._rate
        self._current = (wall, kind, on_done, 1)
        parked = self._parked
        if parked is None:
            self._completion = self.sim.schedule(
                wall, self._on_complete, self._spare, sequence
            )
            self._spare = None
        else:
            self._parked = None
            self._completion = self.sim.resume(parked, wall, sequence)

    def _forfeit(self) -> None:
        """Give up a deferred restart for priority-0 work: the zero-elapsed
        preemption the restart would have met.  The item keeps its place
        and its parked completion, if any."""
        self._deferred = 0
        self.preemptions += 1
        rate = self._rate
        if rate != 1.0:
            # The requeue of a started item: nominal -> wall -> nominal.
            duration, kind, on_done = self._low_queue[0]
            self._low_queue[0] = (max(0.0, duration / rate) * rate, kind, on_done)

    def _preempt(self) -> None:
        """Pause the in-progress priority-1 item: requeue its remainder
        and park its suspended completion until it restarts."""
        assert self._current is not None and self._completion is not None
        duration, kind, on_done, _ = self._current
        elapsed = self.sim.now - self._busy_since
        remaining = duration - elapsed
        self.sim.suspend(self._completion)
        self._parked = self._completion
        self.busy_time += elapsed
        self._kind_time[kind] += elapsed
        self.preemptions += 1
        # Front of the low queue: the item resumes before later service
        # work.  Requeued as nominal work (wall remainder * rate), so a
        # later rate change re-times it correctly; exact identity at 1.0.
        self._low_queue.appendleft(
            (max(0.0, remaining) * self._rate, kind, on_done)
        )
        self._busy = False
        self._current = None
        self._completion = None

    def _complete(self) -> None:
        duration, kind, on_done, _ = self._current
        self.busy_time += duration
        self._kind_time[kind] += duration
        self.tasks_done += 1
        if self._queue:
            # Start the next priority-0 item, re-arming the fired event.
            next_duration, next_kind, next_done = self._queue.popleft()
            self._busy_since = self.sim.now
            wall = next_duration / self._rate
            self._current = (wall, next_kind, next_done, 0)
            self._completion = self.sim.schedule(
                wall, self._on_complete, self._completion
            )
            if on_done is not None:
                on_done()
            return
        # The engine has fired this event: it is free to re-arm.
        self._spare = self._completion
        self._busy = False
        self._current = None
        self._completion = None
        if self._low_queue:
            if on_done is None:
                self._restart()
                return
            # Defer the restart past on_done (see the module docstring).
            self._deferred = self.sim.reserve()
            try:
                on_done()
            finally:
                if self._deferred:
                    self._restart(self._deferred)
            return
        if on_done is not None:
            on_done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.is_busy else "idle"
        return (
            f"SerialResource({self.name!r}, {state}, "
            f"queued={self.queue_length}, done={self.tasks_done})"
        )
