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
takes the ``(time, sequence)`` key the restart's completion would get
(:meth:`~repro.sim.engine.Simulator.take`) and runs its callback with
the resource idle and the item still at the front of the low queue:

* a priority-0 submit inside the callback forfeits the key and starts
  at once — the zero-elapsed preemption the restart would have
  suffered, counted in :attr:`SerialResource.preemptions` all the same;
* a priority-1 submit, :meth:`SerialResource.set_rate` or
  :meth:`SerialResource.halt` inside the callback first starts the
  deferred item at the key, which is the state an immediate restart
  would have left;
* otherwise the item starts at the key once the callback returns.

The key's time is final when it is taken: everything that could change
the item's wall duration restarts it first.  No key outlives the
completion callback that took it, a forfeited one is never used, and
the observers (:attr:`SerialResource.is_busy`,
:attr:`SerialResource.queue_length`, :attr:`SerialResource.backlog`)
count the deferred item as in progress.  Idle work starts directly,
and a fired completion event is re-armed for the next item rather
than replaced.  Events fire at exactly the times and in exactly the
order cancel-and-reschedule gives them.

**Fused scheduling chains.**  A server answers a scheduling request
with three priority-0 items in a row — receive it, compute the
prediction, send the reply — each submitted from the completion
callback of the one before (:meth:`SerialResource.submit_steps`).
:meth:`SerialResource.submit_chain` runs the same chain as *one*
completion event, due at the send's end, when it can start at once: no
priority-0 work runs (so none is queued), whether the resource is idle
or a priority-1 item runs, which the chain preempts as its recv would.
That event does, in order, what the three completions would have done:
it banks each segment's busy and kind time, counts the tasks, runs the
recv's and compute's callbacks, counts the two forfeited restarts of a
waiting priority-1 item (with its nominal -> wall -> nominal round
trips off rate 1.0) and then completes the send like any item.

Anything that could see the chain's middle first splits it back into
ordinary per-segment events (:meth:`SerialResource.unfuse`), at the
boundary an unfused run is at: the passed segments are banked and the
one in progress gets an ordinary completion.  The triggers:

* a :meth:`~SerialResource.submit` of either priority, or another chain;
* :meth:`~SerialResource.set_rate` and :meth:`~SerialResource.halt`;
* reading :meth:`~SerialResource.kind_time`,
  :attr:`~SerialResource.tasks_done`,
  :attr:`~SerialResource.preemptions` or
  :attr:`~SerialResource.busy_time`, or
  :attr:`~SerialResource.backlog` off rate 1.0 with an item waiting;
  :meth:`~SerialResource.busy_seconds` is answered with the additions an
  unfused run has made instead, in the same order;
* the server's own readers: ``receive_service``, before it commits new
  work to the estimate the prediction reports, and
  ``predictions_done``;
* any event scheduled, resumed, taken or armed at exactly one of a
  pending chain's three boundary times
  (:meth:`~repro.sim.engine.Simulator.watch`).

The last keeps firing order exact by construction.  The fused event
takes the recv segment's own sequence number, and a split re-keys the
segment in progress to its end under that number
(:meth:`~repro.sim.engine.Simulator.rekey`).  An event at a boundary
time keyed before the chain began fires before the boundary either
way; one keyed later splits the chain before it takes its number.  So
nothing keyed at a boundary time ever sits between the chain's number
and the one an unfused run would have given the segment, and the
recv's number orders every segment as that one would.

Per-kind busy-time accounting feeds utilization reports, which is how
experiment harnesses identify the bottleneck node — the simulated
analogue of the paper's mathematical bottleneck analysis.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Callable
from itertools import islice

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator

__all__ = ["SerialResource"]

_KINDS = ("send", "recv", "compute")
#: A declared chain's segments, in order.
_CHAIN_KINDS = ("recv", "compute", "send")

#: ``_current`` while a fused chain runs: a priority-0 item.  Every
#: reader of the in-progress item splits the chain first.
_FUSED = (0.0, "recv", None, 0)


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
        "_chain",
        "_chain_times",
        "_on_chain",
        "_unfuse",
        "_busy_time",
        "_tasks_done",
        "_preemptions",
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
        # The engine key taken for a deferred restart while a completion
        # callback runs; None otherwise.
        self._deferred: tuple[float, int] | None = None
        self._on_complete = self._complete
        # The fused chain in progress — ``(recv, compute, send,
        # on_received, on_computed, on_sent)`` and its three segments'
        # end times — or None; ``_completion`` is then its one event.
        self._chain: tuple | None = None
        self._chain_times: tuple[float, float, float] = (0.0, 0.0, 0.0)
        self._on_chain = self._complete_chain
        self._unfuse = self.unfuse
        self._busy_time = 0.0
        self._tasks_done = 0
        self._preemptions = 0
        self._busy_since = 0.0
        self._kind_time = {kind: 0.0 for kind in _KINDS}
        # Speed multiplier (fault injection's straggler model): wall
        # duration = nominal / rate.  1.0 is the nominal, bit-exact path.
        self._rate = 1.0
        # A halted resource (crashed node) silently drops all work.
        self._halted = False

    # ------------------------------------------------------------------ #

    def _check(self, duration: float, kind: str, priority: int) -> None:
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
        if not duration >= 0.0 or kind not in _KINDS or (
            priority != 0 and priority != 1
        ):
            self._check(duration, kind, priority)
        if self._halted:
            # A crashed node is a black hole: valid work vanishes,
            # callbacks never fire.  Failure surfacing is the
            # middleware's job (dead-letter + resubmit), not the
            # resource's.
            return
        if self._busy:
            if self._chain is not None:
                self.unfuse()
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

    def submit_steps(
        self,
        recv: float,
        compute: float,
        send: float,
        on_received: Callable[[], None] | None,
        on_computed: Callable[[], None] | None,
        on_sent: Callable[[], None] | None,
    ) -> None:
        """Receive a message, compute, send a reply: three priority-0
        items, each submitted as the one before completes, right after
        its callback (``on_received``, ``on_computed``, ``on_sent``)."""
        self.submit(*self._segment(
            (recv, compute, send, on_received, on_computed, on_sent), 0
        ))

    def submit_chain(
        self,
        recv: float,
        compute: float,
        send: float,
        on_received: Callable[[], None] | None,
        on_computed: Callable[[], None] | None,
        on_sent: Callable[[], None] | None,
    ) -> None:
        """Run :meth:`submit_steps`'s chain, as one fused completion event
        when it can start at once (see the module docstring).

        A fused chain runs ``on_received`` and ``on_computed`` at its
        end, so they must only update state whose readers split the
        chain first.
        """
        if not (recv >= 0.0 and compute >= 0.0 and send >= 0.0):
            for duration in (recv, compute, send):
                self._check(duration, "send", 0)
        if self._halted:
            return
        busy = self._busy
        sim = self.sim
        rate = self._rate
        now = sim.now
        received = now + recv / rate
        computed = received + compute / rate
        end = computed + send / rate
        delay = end - now
        if (busy and self._current[3] == 0) or now + delay != end:
            # Priority-0 work runs (a fused chain included), so the chain
            # queues; or its one event cannot land on its end exactly.
            self.submit_steps(
                recv, compute, send, on_received, on_computed, on_sent
            )
            return
        if busy:
            self._preempt()
        elif self._deferred:
            self._forfeit()
        self._busy = True
        self._busy_since = now
        self._current = _FUSED
        self._completion = sim.schedule(delay, self._on_chain, self._spare)
        self._spare = None
        self._chain = (recv, compute, send, on_received, on_computed, on_sent)
        self._chain_times = times = (received, computed, end)
        sim.watch(times, self._unfuse)

    def unfuse(self) -> int:
        """Split the fused chain in progress, if any, into ordinary
        per-segment events, at the boundary an unfused run is at now.

        Returns the number of segment boundaries already passed.
        """
        chain = self._chain
        if chain is None:
            return 0
        times = self._chain_times
        event = self._completion
        passed = self._passed(event.sequence)
        self._chain = None
        if passed:
            self._pass(chain, passed)
            self._busy_since = times[passed - 1]
        duration, kind, on_done = self._segment(chain, passed)
        self._current = (duration / self._rate, kind, on_done, 0)
        self._completion = self.sim.rekey(event, times[passed], self._on_complete)
        return passed

    # ------------------------------------------------------------------ #

    @property
    def is_busy(self) -> bool:
        return self._busy or self._deferred is not None

    @property
    def rate(self) -> float:
        """Current speed multiplier (1.0 = nominal)."""
        return self._rate

    @property
    def is_halted(self) -> bool:
        return self._halted

    @property
    def busy_time(self) -> float:
        """Busy seconds of finished work, preempted parts included."""
        self.unfuse()
        return self._busy_time

    @property
    def tasks_done(self) -> int:
        """Work items completed."""
        self.unfuse()
        return self._tasks_done

    @property
    def preemptions(self) -> int:
        """Priority-1 items interrupted by priority-0 work."""
        self.unfuse()
        return self._preemptions

    def set_rate(self, rate: float) -> None:
        """Change the speed multiplier mid-run (straggler injection).

        The in-progress item (if any) is re-timed work-conservingly: its
        elapsed wall time is banked into the busy accounting, the
        remaining nominal work is rescheduled at the new rate.  Queued
        items hold nominal durations, so they pick up the new rate when
        they start.  ``set_rate(1.0)`` on an idle, never-degraded
        resource is a bit-exact no-op.
        """
        if not 0.0 < rate < math.inf:
            raise SimulationError(
                f"{self.name}: rate must be finite and > 0, got {rate} "
                "(use halt() to stop the resource)"
            )
        if self._halted:
            raise SimulationError(f"{self.name}: cannot re-rate a halted resource")
        if rate == self._rate:
            return
        self.unfuse()
        if self._deferred:
            self._restart(self._deferred)
        if self._busy:
            assert self._current is not None and self._completion is not None
            wall, kind, on_done, priority = self._current
            elapsed = self.sim.now - self._busy_since
            remaining_wall = max(0.0, wall - elapsed)
            self._busy_time += elapsed
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
        self.unfuse()
        if self._deferred:
            self._restart(self._deferred)
        dropped = len(self._queue) + len(self._low_queue)
        if self._busy:
            assert self._current is not None and self._completion is not None
            _, kind, _, _ = self._current
            elapsed = self.sim.now - self._busy_since
            self._busy_time += elapsed
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
        return (
            len(self._queue) + len(self._low_queue)
            - (self._deferred is not None)
        )

    @property
    def backlog(self) -> float:
        """Total queued work in seconds (excluding the one in progress)."""
        if self._chain is not None and self._rate != 1.0 and self._low_queue:
            # Each passed boundary re-times the preempted item.
            self.unfuse()
        waiting = islice(self._low_queue, self._deferred is not None, None)
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
        busy = self._busy_time
        if self._busy:
            since = self._busy_since
            chain = self._chain
            if chain is not None:
                # A fused chain answers with the additions an unfused
                # run has made by now, in the same order.
                passed = self._passed(self._completion.sequence)
                if passed:
                    busy += chain[0] / self._rate
                    if passed == 2:
                        busy += chain[1] / self._rate
                    since = self._chain_times[passed - 1]
            busy += max(0.0, min(end, self.sim.now) - since)
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
        self.unfuse()
        return self._kind_time[kind]

    # ------------------------------------------------------------------ #

    def _restart(self, key: tuple[float, int] | None = None) -> None:
        """Start the front of the low queue, resuming its parked
        completion if it was preempted; at ``key`` if given (a deferred
        restart's key from :meth:`~repro.sim.engine.Simulator.take`)."""
        self._deferred = None
        duration, kind, on_done = self._low_queue.popleft()
        self._busy = True
        self._busy_since = self.sim.now
        wall = duration / self._rate
        self._current = (wall, kind, on_done, 1)
        parked = self._parked
        if parked is None:
            self._completion = self.sim.schedule(
                wall, self._on_complete, self._spare, key
            )
            self._spare = None
        else:
            self._parked = None
            self._completion = self.sim.resume(parked, wall, key)

    def _forfeit(self) -> None:
        """Give up a deferred restart for priority-0 work: the zero-elapsed
        preemption the restart would have met.  The item keeps its place
        and its parked completion, if any."""
        self._deferred = None
        self._preemptions += 1
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
        self._busy_time += elapsed
        self._kind_time[kind] += elapsed
        self._preemptions += 1
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
        self._busy_time += duration
        self._kind_time[kind] += duration
        self._tasks_done += 1
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
            self._deferred = self.sim.take(self._low_queue[0][0] / self._rate)
            try:
                on_done()
            finally:
                if self._deferred:
                    self._restart(self._deferred)
            return
        if on_done is not None:
            on_done()

    # ------------------------------------------------------------------ #
    # fused chains

    def _segment(
        self, chain: tuple, index: int
    ) -> tuple[float, str, Callable[[], None] | None]:
        """Segment ``index`` (0 recv, 1 compute, 2 send) of a declared
        chain as a priority-0 item ``(duration, kind, on_done)``.  Before
        the send, ``on_done`` runs the segment's callback, then submits
        the next segment."""
        duration, kind = chain[index], _CHAIN_KINDS[index]
        callback = chain[index + 3]
        if index == 2:
            return duration, kind, callback
        following = self._segment(chain, index + 1)

        def on_done() -> None:
            if callback is not None:
                callback()
            self.submit(*following)

        return duration, kind, on_done

    def _passed(self, sequence: int) -> int:
        """How many of the fused chain's two inner boundaries an unfused
        run has passed by now; the chain's event holds ``sequence``."""
        received, computed, _ = self._chain_times
        passed = self.sim.passed
        if not passed(received, sequence):
            return 0
        return 2 if passed(computed, sequence) else 1

    def _pass(self, chain: tuple, count: int) -> None:
        """Do what the first ``count`` (1 or 2) segment completions of
        the fused chain do in an unfused run: bank each segment and run
        its callback; each also forfeits the restart of a waiting
        priority-1 item to the next segment (see :meth:`_forfeit`)."""
        recv, compute, _, on_received, on_computed, _ = chain
        rate = self._rate
        kind_time = self._kind_time
        wall = recv / rate
        self._busy_time += wall
        kind_time["recv"] += wall
        if on_received is not None:
            on_received()
        if count == 2:
            wall = compute / rate
            self._busy_time += wall
            kind_time["compute"] += wall
            if on_computed is not None:
                on_computed()
        self._tasks_done += count
        low_queue = self._low_queue
        if low_queue:
            self._preemptions += count
            if rate != 1.0:
                duration, kind, on_done = low_queue[0]
                for _ in range(count):
                    duration = max(0.0, duration / rate) * rate
                low_queue[0] = (duration, kind, on_done)

    def _complete_chain(self) -> None:
        """The fused chain's event: both inner boundaries, then the send
        segment's ordinary completion."""
        chain = self._chain
        self._chain = None
        self._pass(chain, 2)
        self._current = (chain[2] / self._rate, "send", chain[5], 0)
        self._complete()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.is_busy else "idle"
        return (
            f"SerialResource({self.name!r}, {state}, "
            f"queued={self.queue_length}, done={self._tasks_done})"
        )
