"""Property-based tests on the simulation substrate (hypothesis).

The load-bearing invariants of the DES:

* the engine fires events in (time, schedule-order) — never backwards;
* under any interleaving of scheduling, cancellation, suspension,
  resumption, keys taken now and used later, re-arming of fired events
  and run windows,
  the firing order and the engine's counters match a reference model
  that keeps its queue as a plain list and takes its minimum;
* a serial resource conserves work exactly across any interleaving of
  priorities and preemptions (total busy time == total submitted
  durations once drained, regardless of arrival pattern);
* a resource never runs two things at once (busy time <= elapsed time);
* a resource that parks preempted completions, defers restarts past
  completion callbacks and re-arms fired events behaves exactly like the
  cancel-and-reschedule algorithm it replaced — every engine event fires
  at the same time in the same order, whatever the callbacks do;
* a declared recv -> compute -> send chain, fused into one event or
  split back at any trigger, is indistinguishable from the same chain
  run one event per segment: only the engine's event count differs, by
  exactly the boundaries the fusion elided.
"""

import math
import random
from collections import deque

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

# (arrival_delay, duration, priority) triples.
task_lists = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=3.0),
        st.integers(min_value=0, max_value=1),
    ),
    min_size=1,
    max_size=40,
)
#: A paused priority-1 completion must not fire at its original time: an
#: engine that left a suspended event's sequence valid would fire it at
#: t=1.0, with ``busy_time`` 2.0 at ``now`` 1.0.
PAUSED_COMPLETION_AT_ITS_OLD_TIME = [(0.0, 1.0, 1), (0.0, 1.0, 0)]


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1,
                    max_size=50))
    @settings(max_examples=60)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired: list[float] = []
        for delay in delays:
            sim.schedule(delay, lambda: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2,
                    max_size=30))
    @settings(max_examples=40)
    def test_equal_times_fire_in_schedule_order(self, delays):
        sim = Simulator()
        order: list[int] = []
        common = 1.0
        for index, _ in enumerate(delays):
            sim.schedule(common, lambda i=index: order.append(i))
        sim.run()
        assert order == list(range(len(delays)))


DELAYS = (0.0, 0.25, 0.5, 1.0, 1.0, 3.0)
delays = st.sampled_from(DELAYS)
#: Indices into the events scheduled so far, taken modulo their count.
picks = st.integers(min_value=0, max_value=10**6)
# One top-level step of an engine program.  A scheduled event carries
# its callback's actions: child delays to schedule, picks to cancel, and
# (pick, delay) toggles that suspend a pending event or resume a
# suspended one.
program_steps = st.one_of(
    st.tuples(
        st.just("schedule"),
        delays,
        st.lists(delays, max_size=3),
        st.lists(picks, max_size=2),
        st.lists(st.tuples(picks, delays), max_size=2),
    ),
    st.tuples(st.just("cancel"), picks),
    st.tuples(st.just("suspend"), picks),
    st.tuples(st.just("resume"), picks, delays),
    # (seed, suspended tenths): suspend a seeded share of pending events.
    st.tuples(
        st.just("park"),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=10),
    ),
    # (seed): resume every suspended event at a seeded delay.
    st.tuples(st.just("unpark"), st.integers(min_value=0, max_value=2**32 - 1)),
    # Take a (time, sequence) key now; a later step schedules or resumes
    # an event at it.
    st.tuples(st.just("take"), delays),
    st.tuples(st.just("schedule_taken"), picks),
    st.tuples(st.just("resume_taken"), picks, picks),
    # Re-arm a fired event for a new callback.
    st.tuples(st.just("reuse"), picks, delays),
    # (count, seed, cancelled tenths): a seeded storm of events.
    st.tuples(
        st.just("burst"),
        st.integers(min_value=0, max_value=800),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=0, max_value=10),
    ),
    st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 4.0))),
    st.tuples(
        st.just("run_until_condition"),
        st.sampled_from((0.0, 1.0, 4.0)),
        st.integers(min_value=0, max_value=30),
    ),
)
programs = st.lists(program_steps, max_size=25)
#: Programs always run, each crossing the real ``COMPACT_MIN_SIZE``.
#: Compaction between run windows, with double cancels:
COMPACTS_BETWEEN_WINDOWS = [
    ("schedule", 0.5, [1.0, 0.0], [0, 3]),
    ("burst", 700, 11, 8),
    ("run_until_condition", 1.0, 5),
    ("cancel", 2),
    ("cancel", 2),
    ("burst", 600, 12, 9),
    ("run_until", 0.5),
]
#: Compaction from a cancel inside a fired callback:
COMPACTS_WHILE_FIRING = [("burst", 800, 4, 5), ("run_until", 0.5)]
#: No compaction, but only because the window popped dead entries
#: before the second storm's cancels were counted:
POPPED_DEAD_ENTRIES_STOP_COUNTING = [
    ("burst", 700, 1, 4),
    ("run_until", 0.5),
    ("burst", 400, 2, 4),
]
#: Dead entries reach exactly half the heap, which does not compact:
HALF_DEAD_DOES_NOT_COMPACT = [("burst", 600, 4, 5)]
#: The carrier (t=1) is due before the resumed time (t=3): no push.
RESUME_AFTER_CARRIER = [
    ("schedule", 1.0, [], []),
    ("suspend", 0),
    ("resume", 0, 3.0),
]
#: The carrier (t=3) is due after the resumed time (t=1): a fresh entry.
RESUME_BEFORE_CARRIER = [
    ("schedule", 3.0, [], []),
    ("suspend", 0),
    ("resume", 0, 1.0),
]
#: The carrier surfaces while its event is suspended and is dropped; the
#: later resume pushes a new entry.
CARRIER_DROPPED_THEN_RESUMED = [
    ("schedule", 0.5, [], []),
    ("suspend", 0),
    ("run_until", 1.0),
    ("resume", 0, 0.5),
]
#: Cancelling a suspended event kills its carrier; once the carrier is
#: dropped, a cancel leaves no dead entry behind.  (The second suspend
#: picks the only pending event left, event 1.)
SUSPEND_THEN_CANCEL = [
    ("schedule", 1.0, [], []),
    ("schedule", 0.5, [], []),
    ("suspend", 0),
    ("cancel", 0),
    ("suspend", 0),
    ("run_until", 1.0),
    ("cancel", 1),
]
#: An event scheduled at a taken key fires before an equal-time event
#: scheduled after the take, and a fired event is re-armed.
TAKEN_AND_REUSED = [
    ("schedule", 0.5, [], []),
    ("take", 1.0),
    ("schedule", 1.0, [], []),
    ("schedule_taken", 0),
    ("run_until", 1.0),
    ("reuse", 0, 0.0),
    ("schedule", 0.0, [], []),
]
#: A suspended event resumes at the second of two keys taken before an
#: equal-time event; the first key is never used.
RESUMED_AT_A_TAKEN_KEY = [
    ("schedule", 3.0, [], []),
    ("suspend", 0),
    ("take", 1.0),
    ("take", 1.0),
    ("schedule", 1.0, [], []),
    ("resume_taken", 0, 1),
]
#: A key ahead of the clock outlives a run window, and its event still
#: fires before an equal-time event scheduled after the window.
KEY_OUTLIVES_A_WINDOW = [
    ("take", 4.0),
    ("schedule", 1.0, [], []),
    ("run_until", 1.0),
    ("schedule", 3.0, [], []),
    ("schedule_taken", 0),
]
#: Half the storm's survivors are suspended, then a fully cancelled storm
#: compacts the heap above ``COMPACT_MIN_SIZE``: the suspended events'
#: carriers survive it and are resumed afterwards.
CARRIERS_SURVIVE_COMPACTION = [
    ("burst", 700, 5, 0),
    ("park", 6, 5),
    ("burst", 800, 7, 10),
    ("unpark", 8),
]


class ReferenceEngine:
    """The engine's contract, written the slow and obvious way.

    The queue is a plain list; the next entry is its ``(time, sequence)``
    minimum.  Cancelled entries stay queued until they reach the front or
    a compaction drops them, under the engine's documented rule.  Each
    event's current key lives in a dict, ``(inf, 0)`` while suspended; a
    queued entry whose sequence differs from it is a carrier, dropped or
    re-keyed when it reaches the front.  Event handles are the sequence
    number the event was created with.  A taken key is just a time and
    a sequence number taken early; re-arming a fired event is a fresh
    schedule.
    """

    def __init__(self):
        self.now = 0.0
        self.queue: list[tuple[float, int, int]] = []  # (time, seq, handle)
        self.key: dict[int, tuple[float, int]] = {}
        self.cancelled: set[int] = set()
        self.done: set[int] = set()
        self.sequence = 0
        self.events_processed = 0
        self.heap_compactions = 0
        self.cancelled_in_queue = 0
        self.actions: dict[int, object] = {}

    @property
    def pending(self) -> int:
        return len(self.queue)

    def _push(self, time, action, key=None):
        if key is None:
            self.sequence += 1
            sequence = self.sequence
        else:
            time, sequence = key
        handle = sequence
        self.queue.append((time, handle, handle))
        self.key[handle] = (time, handle)
        self.actions[handle] = action
        return handle

    def _carrier(self, handle):
        """The queued entry carrying ``handle``, or None."""
        return next((e for e in self.queue if e[2] == handle), None)

    def schedule(self, delay, eid, action, reuse=None, key=None):
        return self._push(self.now + delay, action, key)

    def take(self, delay):
        self.sequence += 1
        return self.now + delay, self.sequence

    def cancel(self, handle):
        if handle in self.cancelled or handle in self.done:
            return
        self.cancelled.add(handle)
        if self._carrier(handle) is None:
            return
        self.cancelled_in_queue += 1
        size = len(self.queue)
        if size >= Simulator.COMPACT_MIN_SIZE and 2 * self.cancelled_in_queue > size:
            self.queue = [e for e in self.queue if e[2] not in self.cancelled]
            self.cancelled_in_queue = 0
            self.heap_compactions += 1

    def suspend(self, handle):
        self.key[handle] = (math.inf, 0)

    def resume(self, handle, delay, key=None):
        time, sequence = key or (self.now + delay, None)
        carrier = self._carrier(handle)
        if carrier is not None and carrier[0] > time:
            self.cancel(handle)
            return self._push(time, self.actions[handle], key)
        if sequence is None:
            self.sequence += 1
            sequence = self.sequence
        self.key[handle] = (time, sequence)
        if carrier is None:
            self.queue.append((time, sequence, handle))
        return handle

    def _fire(self, horizon, condition):
        while self.queue:
            head = min(self.queue)
            time, sequence, handle = head
            if handle in self.cancelled:
                self.queue.remove(head)
                self.cancelled_in_queue -= 1
                continue
            key = self.key[handle]
            if sequence != key[1]:
                self.queue.remove(head)
                if key[1] != 0:
                    self.queue.append((*key, handle))
                continue
            if time > horizon:
                return False
            self.queue.remove(head)
            self.now = time
            self.done.add(handle)
            self.events_processed += 1
            self.actions[handle]()
            if condition is not None and condition():
                return True
        return False

    def run(self):
        self._fire(float("inf"), None)

    def run_until(self, time):
        self._fire(time, None)
        self.now = time

    def run_until_condition(self, deadline, condition):
        if condition():
            return True
        if self._fire(deadline, condition):
            return True
        self.now = deadline
        return False


class EngineAdapter:
    """The same interface over :class:`Simulator`."""

    def __init__(self):
        self.sim = Simulator()

    def __getattr__(self, name):
        return getattr(self.sim, name)

    @property
    def cancelled_in_queue(self):
        return self.sim._cancelled_in_heap

    def schedule(self, delay, eid, action, reuse=None, key=None):
        return self.sim.schedule(delay, action, reuse, key)

    def cancel(self, handle):
        handle.cancel()


def play(engine, program):
    """Run ``program`` on ``engine``; returns fired (time, eid) pairs and
    the observable state after every top-level step.

    Suspend and resume picks choose among the events that are pending
    and not suspended, or suspended, respectively (no-ops if none are);
    reuse picks choose among fired events not yet re-armed.  Steps that
    use a taken key pick among the open ones (no-ops if none is); each
    key is used at most once, and a run window closes the keys the clock
    has reached.
    """
    fired: list[tuple[float, int]] = []
    handles: list = []
    settled: set[int] = set()  # fired or cancelled
    suspended: set[int] = set()
    reusable: set[int] = set()  # fired, handle not re-armed
    taken: list = []  # open keys

    def schedule(delay, children=(), cancels=(), toggles=(), reuse=None,
                 key=None):
        eid = len(handles)

        def action():
            fired.append((engine.now, eid))
            settled.add(eid)
            reusable.add(eid)
            for child in children:
                schedule(child)
            for pick in cancels:
                cancel(pick)
            for pick, delay in toggles:
                index = pick % len(handles)
                if index in suspended:
                    resume(index, delay)
                elif index not in settled:
                    suspend(index)

        handles.append(engine.schedule(delay, eid, action, reuse, key))

    def cancel(pick):
        index = pick % len(handles)
        if handles[index] is None:  # re-armed under a new index
            return
        engine.cancel(handles[index])
        settled.add(index)
        suspended.discard(index)

    def suspend(index):
        engine.suspend(handles[index])
        suspended.add(index)

    def resume(index, delay, key=None):
        handles[index] = engine.resume(handles[index], delay, key)
        suspended.remove(index)

    def pick_from(indices, pick):
        indices = sorted(indices)
        return indices[pick % len(indices)] if indices else None

    def close_reached_keys():
        taken[:] = [key for key in taken if key[0] > engine.now]

    def observed(outcome=None):
        return (
            outcome,
            engine.now,
            len(fired),
            engine.events_processed,
            engine.heap_compactions,
            engine.pending,
            engine.cancelled_in_queue,
        )

    trace = []
    for step in program:
        kind, *args = step
        outcome = None
        if kind == "schedule":
            schedule(*args)
        elif kind == "take":
            taken.append(engine.take(args[0]))
        elif kind == "schedule_taken":
            if taken:
                schedule(0.0, key=taken.pop(args[0] % len(taken)))
        elif kind == "resume_taken":
            index = pick_from(suspended, args[0])
            if index is not None and taken:
                resume(index, 0.0, taken.pop(args[1] % len(taken)))
        elif kind == "reuse":
            index = pick_from(reusable, args[0])
            if index is not None:
                reusable.remove(index)
                handle, handles[index] = handles[index], None
                schedule(args[1], reuse=handle)
        elif kind == "cancel":
            if handles:
                cancel(args[0])
        elif kind == "suspend":
            live = set(range(len(handles))) - settled - suspended
            index = pick_from(live, args[0])
            if index is not None:
                suspend(index)
        elif kind == "resume":
            index = pick_from(suspended, args[0])
            if index is not None:
                resume(index, args[1])
        elif kind == "park":
            seed, tenths = args
            rng = random.Random(seed)
            for index in range(len(handles)):
                if index not in settled and index not in suspended:
                    if rng.random() * 10 < tenths:
                        suspend(index)
        elif kind == "unpark":
            rng = random.Random(args[0])
            for index in sorted(suspended):
                resume(index, rng.choice(DELAYS))
        elif kind == "burst":
            count, seed, tenths = args
            rng = random.Random(seed)
            for _ in range(count):
                # A fifth of the storm cancels a random event when fired.
                picked = [rng.randrange(10**6)] if rng.random() < 0.2 else []
                schedule(rng.choice(DELAYS), (), picked)
                if rng.random() * 10 < tenths:
                    cancel(len(handles) - 1)
        elif kind == "run_until":
            engine.run_until(engine.now + args[0])
            close_reached_keys()
        else:
            span, quota = args
            start = len(fired)
            outcome = engine.run_until_condition(
                engine.now + span, lambda: len(fired) - start >= quota
            )
            close_reached_keys()
        trace.append(observed(outcome))
    engine.run()
    trace.append(observed())
    return fired, trace


def reschedules(program) -> bool:
    """Whether ``program`` may suspend or resume an event, or fire one
    at a taken key."""
    return any(
        step[0]
        in ("suspend", "resume", "park", "unpark", "schedule_taken",
            "resume_taken")
        or (step[0] == "schedule" and len(step) > 4 and step[4])
        for step in program
    )


class TestEngineMatchesReference:
    @given(programs)
    @example(COMPACTS_BETWEEN_WINDOWS)
    @example(COMPACTS_WHILE_FIRING)
    @example(POPPED_DEAD_ENTRIES_STOP_COUNTING)
    @example(HALF_DEAD_DOES_NOT_COMPACT)
    @example(RESUME_AFTER_CARRIER)
    @example(RESUME_BEFORE_CARRIER)
    @example(CARRIER_DROPPED_THEN_RESUMED)
    @example(SUSPEND_THEN_CANCEL)
    @example(CARRIERS_SURVIVE_COMPACTION)
    @example(TAKEN_AND_REUSED)
    @example(RESUMED_AT_A_TAKEN_KEY)
    @example(KEY_OUTLIVES_A_WINDOW)
    @settings(max_examples=60, deadline=None)
    def test_firing_order_and_counters_match_reference(self, program):
        fired, trace = play(EngineAdapter(), program)
        expected_fired, expected_trace = play(ReferenceEngine(), program)
        assert fired == expected_fired
        assert trace == expected_trace
        # Time never goes backwards, and nothing fires twice.
        assert [time for time, _ in fired] == sorted(time for time, _ in fired)
        assert len({eid for _, eid in fired}) == len(fired)
        if not reschedules(program):
            # Without suspend/resume, fired (time, schedule index) keys
            # rise strictly: the sort on (time, sequence) is the order.
            assert fired == sorted(set(fired))

    def test_pinned_programs_reach_their_cases(self):
        compactions = [
            [step[4] for step in play(EngineAdapter(), program)[1]]
            for program in (
                COMPACTS_BETWEEN_WINDOWS,
                COMPACTS_WHILE_FIRING,
                POPPED_DEAD_ENTRIES_STOP_COUNTING,
                HALF_DEAD_DOES_NOT_COMPACT,
            )
        ]
        between, firing, popped, half = compactions
        assert between[1] > 0
        assert firing[0] == 0 and firing[1] > 0
        assert popped[-1] == 0
        assert half[-1] == 0

    def test_pinned_carrier_programs_reach_their_cases(self):
        def pending(trace):
            return [step[5] for step in trace]

        fired, trace = play(EngineAdapter(), RESUME_AFTER_CARRIER)
        assert pending(trace) == [1, 1, 1, 0]
        assert fired == [(3.0, 0)]

        fired, trace = play(EngineAdapter(), RESUME_BEFORE_CARRIER)
        assert pending(trace) == [1, 1, 2, 0]
        assert trace[2][6] == 1  # the outgrown carrier is a dead entry
        assert fired == [(1.0, 0)]

        fired, trace = play(EngineAdapter(), CARRIER_DROPPED_THEN_RESUMED)
        assert pending(trace) == [1, 1, 0, 1, 0]
        assert fired == [(1.5, 0)]

        fired, trace = play(EngineAdapter(), SUSPEND_THEN_CANCEL)
        dead = [step[6] for step in trace]
        assert dead[3] == 1  # the cancelled event still had its carrier
        assert pending(trace)[5] == 0 and dead[5] == 0
        assert dead[6] == 0  # ...this one had lost it
        assert fired == []

        fired, trace = play(EngineAdapter(), CARRIERS_SURVIVE_COMPACTION)
        after_storm = trace[2]
        assert after_storm[4] > 0
        # Every entry of the first storm survived, suspended or not.
        assert after_storm[5] - after_storm[6] == 700

    def test_pinned_reservation_programs_reach_their_cases(self):
        fired, _ = play(EngineAdapter(), TAKEN_AND_REUSED)
        # Event 2 was scheduled after event 1 but at the earlier key;
        # event 3 re-armed event 0 and fires before event 4.
        assert fired == [(0.5, 0), (1.0, 2), (1.0, 1), (1.0, 3), (1.0, 4)]

        fired, trace = play(EngineAdapter(), RESUMED_AT_A_TAKEN_KEY)
        # At the second key (3), before event 1 (4); the carrier was
        # due later, so a fresh entry carries it.
        assert fired == [(1.0, 0), (1.0, 1)]
        assert trace[5][5] == 3

        fired, _ = play(EngineAdapter(), KEY_OUTLIVES_A_WINDOW)
        # Event 2 fires at the key (4.0, 1), before event 1 (4.0, 3).
        assert fired == [(1.0, 0), (4.0, 2), (4.0, 1)]


class TestResourceProperties:
    @given(task_lists)
    @example(PAUSED_COMPLETION_AT_ITS_OLD_TIME)
    @settings(max_examples=80, deadline=None)
    def test_work_conservation(self, tasks):
        """Total busy time equals total submitted work, for any arrival
        pattern, priority mix, and number of preemptions."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        done = []
        for arrival, duration, priority in tasks:
            sim.schedule(
                arrival,
                lambda d=duration, p=priority: resource.submit(
                    d, "compute", lambda: done.append(d), priority=p
                ),
            )
        sim.run()
        assert len(done) == len(tasks)
        total = sum(duration for _, duration, _ in tasks)
        assert abs(resource.busy_time - total) < 1e-9 * max(1.0, total)
        assert resource.tasks_done == len(tasks)

    @given(task_lists)
    @example(PAUSED_COMPLETION_AT_ITS_OLD_TIME)
    @settings(max_examples=60, deadline=None)
    def test_no_time_travel_and_no_overcommit(self, tasks):
        sim = Simulator()
        resource = SerialResource(sim, "node")
        for arrival, duration, priority in tasks:
            sim.schedule(
                arrival,
                lambda d=duration, p=priority: resource.submit(
                    d, "compute", priority=p
                ),
            )
        sim.run()
        # A serial resource can never have been busy longer than the
        # clock has advanced.
        assert resource.busy_time <= sim.now + 1e-9

    @given(task_lists)
    @settings(max_examples=60, deadline=None)
    def test_every_task_completes_exactly_once(self, tasks):
        """No interleaving of priorities/preemptions loses or duplicates a
        completion callback."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        completions: list[int] = []

        for index, (arrival, duration, priority) in enumerate(tasks):
            sim.schedule(
                arrival,
                lambda i=index, d=duration, p=priority: resource.submit(
                    d, "compute", lambda: completions.append(i), priority=p
                ),
            )
        sim.run()
        assert sorted(completions) == list(range(len(tasks)))

    @given(task_lists)
    @settings(max_examples=60, deadline=None)
    def test_high_priority_latency_bounded_by_high_work(self, tasks):
        """A priority-0 item submitted at time t finishes by
        t + (all high-priority work in the system) + (one in-progress
        low item's remainder is preempted, so only its zero-length tail
        matters) — i.e. high work never waits behind *queued* low work."""
        sim = Simulator()
        resource = SerialResource(sim, "node")
        # Saturate with low-priority work first.
        low_total = 0.0
        for _, duration, _ in tasks:
            resource.submit(duration, "compute", priority=1)
            low_total += duration
        finish = []
        high = 0.5
        resource.submit(high, "compute", lambda: finish.append(sim.now))
        sim.run()
        # The high item preempts immediately: done at ~high, not after
        # the queued low backlog.
        assert finish[0] <= high + 1e-9

    @given(task_lists)
    @settings(max_examples=40, deadline=None)
    def test_kind_accounting_sums_to_busy_time(self, tasks):
        sim = Simulator()
        resource = SerialResource(sim, "node")
        kinds = ("send", "recv", "compute")
        for index, (arrival, duration, priority) in enumerate(tasks):
            kind = kinds[index % 3]
            sim.schedule(
                arrival,
                lambda d=duration, k=kind, p=priority: resource.submit(
                    d, k, priority=p
                ),
            )
        sim.run()
        by_kind = sum(resource.kind_time(kind) for kind in kinds)
        assert abs(by_kind - resource.busy_time) < 1e-9


class ReferenceSerialResource:
    """The cancel-and-reschedule preemption algorithm, kept verbatim.

    Preemption cancels the in-progress completion event and the restart
    schedules a new one.  :class:`SerialResource` parks the event
    instead; the equivalence property below holds it to this behaviour.
    """

    def __init__(self, sim, name):
        self.sim = sim
        self.name = name
        self._queue = deque()
        self._low_queue = deque()
        self._busy = False
        self._current = None
        self._completion = None
        self.busy_time = 0.0
        self.tasks_done = 0
        self.preemptions = 0
        self._busy_since = 0.0
        self._kind_time = {kind: 0.0 for kind in ("send", "recv", "compute")}
        self._rate = 1.0
        self._halted = False

    @property
    def is_halted(self):
        return self._halted

    def kind_time(self, kind):
        return self._kind_time[kind]

    def submit(self, duration, kind, on_done=None, priority=0):
        if self._halted:
            return
        if priority == 0:
            self._queue.append((duration, kind, on_done))
            if self._busy and self._current is not None and self._current[3] == 1:
                self._preempt()
            elif not self._busy:
                self._start_next()
        else:
            self._low_queue.append((duration, kind, on_done))
            if not self._busy:
                self._start_next()

    def submit_chain(self, recv, compute, send, on_received, on_computed, on_sent):
        """A declared chain, one completion event per segment."""

        def received():
            if on_received is not None:
                on_received()
            self.submit(compute, "compute", computed)

        def computed():
            if on_computed is not None:
                on_computed()
            self.submit(send, "send", on_sent)

        self.submit(recv, "recv", received)

    def busy_seconds(self):
        busy = self.busy_time
        if self._busy:
            busy += max(0.0, self.sim.now - self._busy_since)
        return busy

    def set_rate(self, rate):
        if rate == self._rate:
            return
        if self._busy:
            wall, kind, on_done, priority = self._current
            elapsed = self.sim.now - self._busy_since
            remaining_wall = max(0.0, wall - elapsed)
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            new_wall = remaining_wall * self._rate / rate
            self._busy_since = self.sim.now
            self._current = (new_wall, kind, on_done, priority)
            self._completion = self.sim.schedule(new_wall, self._complete)
        self._rate = rate

    def halt(self):
        if self._halted:
            return 0
        dropped = len(self._queue) + len(self._low_queue)
        if self._busy:
            _, kind, _, _ = self._current
            elapsed = self.sim.now - self._busy_since
            self.busy_time += elapsed
            self._kind_time[kind] += elapsed
            self._completion.cancel()
            dropped += 1
        self._queue.clear()
        self._low_queue.clear()
        self._busy = False
        self._current = None
        self._completion = None
        self._halted = True
        return dropped

    def _start_next(self):
        if self._queue:
            duration, kind, on_done = self._queue.popleft()
            priority = 0
        elif self._low_queue:
            duration, kind, on_done = self._low_queue.popleft()
            priority = 1
        else:
            return
        self._busy = True
        self._busy_since = self.sim.now
        wall = duration / self._rate
        self._current = (wall, kind, on_done, priority)
        self._completion = self.sim.schedule(wall, self._complete)

    def _preempt(self):
        duration, kind, on_done, _ = self._current
        elapsed = self.sim.now - self._busy_since
        remaining = duration - elapsed
        self._completion.cancel()
        self.busy_time += elapsed
        self._kind_time[kind] += elapsed
        self.preemptions += 1
        self._low_queue.appendleft(
            (max(0.0, remaining) * self._rate, kind, on_done)
        )
        self._busy = False
        self._current = None
        self._completion = None
        self._start_next()

    def _complete(self):
        duration, kind, on_done, _ = self._current
        self.busy_time += duration
        self._kind_time[kind] += duration
        self.tasks_done += 1
        self._busy = False
        self._current = None
        self._completion = None
        if self._queue or self._low_queue:
            self._start_next()
        if on_done is not None:
            on_done()


KINDS = ("send", "recv", "compute")
arrivals = st.sampled_from((0.0, 0.0, 0.25, 0.5, 1.0, 2.5))
durations = st.sampled_from((0.0, 0.0, 0.1, 0.25, 1.0, 1.5))
rates = st.sampled_from((0.5, 0.7, 1.0, 2.0))
#: The recv, compute and send durations of a declared chain.
chain_work = st.tuples(durations, durations, durations)
# What a completion callback does, in order, before it returns: submit
# priority-0 or priority-1 work or a declared chain (the first submit
# carries the rest of the chain as its callback), submit work with no
# callback, schedule an unrelated engine event, re-rate or halt the
# resource.
callback_actions = st.one_of(
    st.tuples(st.sampled_from(("p0", "p0", "p1")), durations),
    st.tuples(st.just("chain"), chain_work),
    st.tuples(st.just("quiet"), durations, st.integers(min_value=0, max_value=1)),
    st.tuples(st.just("tick"), st.sampled_from((0.0, 0.0, 0.1))),
    st.tuples(st.just("rate"), rates),
    st.tuples(st.just("halt")),
)
# One link of a callback chain: a priority-0 duration (a server's
# recv -> predict -> send chain), or a list of callback actions.
chain_links = st.one_of(durations, st.lists(callback_actions, min_size=1, max_size=4))
# One step of a resource program, scheduled at ``arrival``.  A submit's
# ``chain`` is what its completion does, one link per completion.
resource_steps = st.one_of(
    st.tuples(
        st.just("submit"),
        arrivals,
        durations,
        st.integers(min_value=0, max_value=1),
        st.sampled_from(KINDS),
        st.lists(chain_links, max_size=3),
    ),
    st.tuples(
        st.just("chain"), arrivals, chain_work, st.lists(chain_links, max_size=2)
    ),
    st.tuples(st.just("rate"), arrivals, rates),
    st.tuples(st.just("halt"), arrivals),
    # An engine event that schedules another ``delay`` later.
    st.tuples(
        st.just("tick"), arrivals, st.sampled_from((0.0, 0.125, 0.25, 0.5, 0.625))
    ),
    st.tuples(st.just("read"), arrivals, st.sampled_from(("busy", "kinds", "counts"))),
)
resource_programs = st.lists(resource_steps, min_size=1, max_size=30)


def observe(resource):
    """Whether ``resource`` is busy, its queue length and backlog — read
    from the reference's fields, which it keeps verbatim."""
    if isinstance(resource, SerialResource):
        return resource.is_busy, resource.queue_length, resource.backlog
    queue, low_queue = resource._queue, resource._low_queue
    return (
        resource._busy,
        len(queue) + len(low_queue),
        sum(item[0] for item in queue) + sum(item[0] for item in low_queue),
    )


def read(resource, what):
    """A reading that a fused chain answers (``busy``) or splits for."""
    if what == "busy":
        return resource.busy_seconds()
    if what == "kinds":
        return tuple(resource.kind_time(kind) for kind in KINDS)
    return resource.tasks_done, resource.preemptions, resource.busy_time


def play_resource(resource_class, program):
    """Run ``program`` on a fresh ``resource_class``; returns everything
    observable about the run.

    Every engine callback notes the clock, how many events an unfused
    run has fired so far (which places it in the firing order) and the
    resource's observable state: a completion through its callback, the
    rest directly.  A :class:`ChainProbe` adds the chain boundaries its
    fused events elided to the engine's count.
    """
    sim = Simulator()
    resource = resource_class(sim, "node")
    fired: list[tuple] = []
    elided = getattr(resource, "boundaries_passed", lambda: 0)

    def note(*what):
        fired.append(
            (sim.now, sim.events_processed + elided(), *what, observe(resource))
        )

    def declare(index, work, rest):
        """Submit a declared chain whose end runs ``rest``; its inner
        callbacks only count, and the end notes the count."""
        seen = [0]

        def boundary():
            seen[0] += 1

        sent = link(index, rest)
        resource.submit_chain(
            *work, boundary, boundary, lambda: sent(("sent", seen[0]))
        )

    def link(index, chain):
        """The callback of a submit whose completion runs ``chain``."""
        def on_done(what=("done",)):
            note(*what, index)
            if not chain:
                return
            actions = chain[0]
            if not isinstance(actions, list):
                actions = [("p0", actions)]
            rest = chain[1:]
            for action in actions:
                kind = action[0]
                if kind in ("p0", "p1"):
                    priority = 1 if kind == "p1" else 0
                    resource.submit(
                        action[1],
                        ("send", "compute")[priority],
                        link(index, rest),
                        priority=priority,
                    )
                    rest = ()
                elif kind == "chain":
                    declare(index, action[1], rest)
                    rest = ()
                elif kind == "quiet":
                    resource.submit(action[1], "recv", priority=action[2])
                elif kind == "tick":
                    sim.schedule(action[1], lambda: note("tick", index))
                elif kind == "rate":
                    if not resource.is_halted:
                        resource.set_rate(action[1])
                else:
                    resource.halt()

        return on_done

    def submit(index, duration, priority, kind, chain):
        note("submit", index)
        resource.submit(duration, kind, link(index, chain), priority=priority)

    def chain(index, work, rest):
        note("chain", index)
        declare(index, work, rest)

    def rate(value):
        note("rate", value)
        if not resource.is_halted:
            resource.set_rate(value)

    def halt():
        note("halt")
        resource.halt()

    def tick(index, delay):
        note("tick", index)
        sim.schedule(delay, lambda: note("tock", index))

    steps = {"submit": submit, "chain": chain, "tick": tick}
    for index, (kind, arrival, *args) in enumerate(program):
        if kind in steps:
            sim.schedule(
                arrival, lambda s=steps[kind], i=index, a=args: s(i, *a)
            )
        elif kind == "rate":
            sim.schedule(arrival, lambda r=args[0]: rate(r))
        elif kind == "read":
            sim.schedule(
                arrival, lambda w=args[0]: note("read", w, read(resource, w))
            )
        else:
            sim.schedule(arrival, halt)
    sim.run()
    return (
        fired,
        resource.busy_time,
        tuple(resource.kind_time(kind) for kind in KINDS),
        resource.tasks_done,
        resource.preemptions,
        sim.events_processed + elided(),
        sim.now,
    )


class ChainProbe(SerialResource):
    """Records what fusion does with each declared chain, and counts the
    segment boundaries its fused events elided."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.cases = []
        self.elided = 0

    def submit_chain(self, *work):
        halted = self._halted
        super().submit_chain(*work)
        if not halted:
            self.cases.append("fused" if self._chain is not None else "steps")

    def unfuse(self):
        pending = self._chain is not None
        passed = super().unfuse()
        if pending:
            self.cases.append(f"split after {passed}")
            self.elided += passed
        return passed

    def _complete_chain(self):
        self.elided += 2
        self.cases.append("completed fused")
        super()._complete_chain()

    def boundaries_passed(self):
        """Boundaries an unfused run has fired by now that no event
        fired here."""
        if self._chain is None:
            return self.elided
        return self.elided + self._passed(self._completion.sequence)


class ProbedResource(SerialResource):
    """Records which deferred-restart case each call inside a completion
    callback meets."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.cases = []

    def submit(self, duration, kind, on_done=None, priority=0):
        if self._deferred and not self._halted:
            self.cases.append("restart on p1" if priority else "forfeit")
            if not priority and self._rate != 1.0:
                self.cases.append("forfeit off rate 1")
        super().submit(duration, kind, on_done, priority)

    def set_rate(self, rate):
        if self._deferred and rate != self._rate:
            self.cases.append("restart on set_rate")
        super().set_rate(rate)

    def halt(self):
        if self._deferred:
            self.cases.append("restart on halt")
        return super().halt()

    def _restart(self, key=None):
        self.cases.append("restart now" if key is None else "restart at its key")
        super()._restart(key)


#: A service item is preempted the instant it starts.
PREEMPTED_THEN_RESTARTED = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.0, 1.0, 0, "compute", []),
]
#: Chained priority-0 work queues behind priority-0 work, until a halt.
CHAIN_QUEUES_THEN_HALT = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.25, 0.0, 0, "recv", [0.0, 0.0]),
    ("submit", 0.25, 0.1, 0, "recv", [0.0]),
    ("halt", 0.5),
]
#: A preempted item's deferred restart is forfeited to chained
#: priority-0 work twice, then restarts at its key.
CHAIN_FORFEITS = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.25, 0.1, 0, "recv", [0.0, 0.0]),
]
#: Equal-time engine events scheduled before and after a chained submit
#: that forfeits the restart, at a rate where the forfeited item's
#: nominal -> wall -> nominal round trip is inexact.
TICKS_AROUND_A_FORFEIT = [
    ("rate", 0.0, 0.7),
    ("submit", 0.0, 0.1, 0, "recv", [[("tick", 0.0), ("p0", 0.1), ("tick", 0.0)]]),
    ("submit", 0.0, 1.5, 1, "compute", []),
]
#: Priority-1 work submitted inside the callback restarts the deferred
#: item first, at the key taken for it; a tick scheduled before it
#: fires after the restarted item's equal-time completion.
P1_INSIDE_THE_CALLBACK = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.25, 0.1, 0, "recv", [[("tick", 0.75), ("p1", 0.5)]]),
]
#: A rate change inside the callback re-times the restarted item.
RATE_INSIDE_THE_CALLBACK = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.25, 0.1, 0, "recv", [[("rate", 2.0), ("p0", 0.25)]]),
]
#: A halt inside the callback drops the restarted item.
HALT_INSIDE_THE_CALLBACK = [
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.0, 1.0, 1, "compute", []),
    ("submit", 0.25, 0.1, 0, "recv", [[("tick", 0.0), ("halt",), ("p0", 0.1)]]),
]
#: A callback-free completion restarts queued service work at once.
QUIET_COMPLETION = [
    ("submit", 0.0, 1.0, 1, "compute", [[("quiet", 0.5, 1), ("quiet", 0.1, 1)]]),
]

#: A service item the chains below start over, and a chain at t=0 with
#: boundaries at 0.25 (recv), 0.5 (compute) and 1.0 (send).
SERVICE = ("submit", 0.0, 2.0, 1, "compute", [])
CHAIN = ("chain", 0.0, (0.25, 0.25, 0.5), [])
#: Nothing sees the chain's middle: one event for three segments.
CHAIN_FUSED_OVER_SERVICE = [SERVICE, ("chain", 0.25, (0.25, 0.25, 0.5), [])]
#: Each split trigger, landing mid-chain.
CHAIN_SPLIT_BY_P0 = [SERVICE, CHAIN, ("submit", 0.375, 0.25, 0, "send", [])]
CHAIN_SPLIT_BY_P1 = [SERVICE, CHAIN, ("submit", 0.75, 0.25, 1, "compute", [])]
CHAIN_SPLIT_BY_RATE = [SERVICE, CHAIN, ("rate", 0.125, 0.7)]
CHAIN_SPLIT_BY_HALT = [SERVICE, CHAIN, ("halt", 0.375)]
#: A read keyed at the compute boundary itself, before the chain began:
#: the boundary is still to come.
CHAIN_SPLIT_BY_KIND_READ = [SERVICE, CHAIN, ("read", 0.5, "kinds")]
CHAIN_SPLIT_BY_COUNT_READ = [SERVICE, CHAIN, ("read", 0.75, "counts")]
#: busy_seconds is answered mid-chain without a split, at and between
#: boundaries.
CHAIN_ANSWERS_BUSY_READS = [
    SERVICE, CHAIN,
    ("read", 0.25, "busy"), ("read", 0.375, "busy"), ("read", 0.75, "busy"),
]
#: An event scheduled mid-chain at exactly a pending boundary: after the
#: recv boundary at the compute one, and before the compute boundary at
#: the send one.
CHAIN_SPLIT_BY_EVENT_AT_A_BOUNDARY = [SERVICE, CHAIN, ("tick", 0.375, 0.125)]
CHAIN_SPLIT_BY_EVENT_AT_ITS_END = [SERVICE, CHAIN, ("tick", 0.375, 0.625)]
#: A fused chain over a preempted item at a rate whose nominal -> wall
#: -> nominal round trip is inexact.
CHAIN_OVER_PREEMPTED_AT_RATE_07 = [
    ("rate", 0.0, 0.7),
    ("submit", 0.0, 1.5, 1, "compute", []),
    ("chain", 0.25, (0.25, 0.25, 0.5), []),
]
#: A chain declared inside a completion callback forfeits the deferred
#: restart and fuses.
CHAIN_FROM_A_CALLBACK = [
    SERVICE, ("submit", 0.25, 0.125, 0, "recv", [[("chain", (0.25, 0.25, 0.5))]]),
]
#: Priority-0 work runs, so the chain queues one item per segment.
CHAIN_QUEUED_BEHIND_P0 = [
    ("submit", 0.0, 0.5, 0, "compute", []), ("chain", 0.25, (0.25, 0.25, 0.5), []),
]
#: All three boundaries at one time.
CHAIN_OF_ZERO_DURATIONS = [SERVICE, ("chain", 0.25, (0.0, 0.0, 0.0), [])]


class TestParkedPreemptionMatchesReference:
    @given(resource_programs)
    @example(PREEMPTED_THEN_RESTARTED)
    @example(CHAIN_QUEUES_THEN_HALT)
    @example(CHAIN_FORFEITS)
    @example(TICKS_AROUND_A_FORFEIT)
    @example(P1_INSIDE_THE_CALLBACK)
    @example(RATE_INSIDE_THE_CALLBACK)
    @example(HALT_INSIDE_THE_CALLBACK)
    @example(QUIET_COMPLETION)
    @example(CHAIN_FUSED_OVER_SERVICE)
    @example(CHAIN_SPLIT_BY_P0)
    @example(CHAIN_SPLIT_BY_P1)
    @example(CHAIN_SPLIT_BY_RATE)
    @example(CHAIN_SPLIT_BY_HALT)
    @example(CHAIN_SPLIT_BY_KIND_READ)
    @example(CHAIN_SPLIT_BY_COUNT_READ)
    @example(CHAIN_ANSWERS_BUSY_READS)
    @example(CHAIN_SPLIT_BY_EVENT_AT_A_BOUNDARY)
    @example(CHAIN_SPLIT_BY_EVENT_AT_ITS_END)
    @example(CHAIN_OVER_PREEMPTED_AT_RATE_07)
    @example(CHAIN_FROM_A_CALLBACK)
    @example(CHAIN_QUEUED_BEHIND_P0)
    @example(CHAIN_OF_ZERO_DURATIONS)
    @settings(max_examples=200, deadline=None)
    def test_same_completions_and_counters_as_cancel_and_reschedule(
        self, program
    ):
        assert play_resource(ChainProbe, program) == play_resource(
            ReferenceSerialResource, program
        )

    def test_pinned_programs_reach_their_cases(self):
        def cases(program):
            probe = {}

            def make(sim, name):
                probe["resource"] = ProbedResource(sim, name)
                return probe["resource"]

            play_resource(make, program)
            return probe["resource"].cases

        assert cases(CHAIN_FORFEITS) == [
            "forfeit", "forfeit", "restart at its key",
        ]
        assert "forfeit" not in cases(CHAIN_QUEUES_THEN_HALT)
        assert cases(QUIET_COMPLETION) == ["restart now"]
        ticks = cases(TICKS_AROUND_A_FORFEIT)
        assert "forfeit" in ticks and "forfeit off rate 1" in ticks
        assert "restart on p1" in cases(P1_INSIDE_THE_CALLBACK)
        assert "restart on set_rate" in cases(RATE_INSIDE_THE_CALLBACK)
        assert "restart on halt" in cases(HALT_INSIDE_THE_CALLBACK)

        def at(program, time):
            fired = play_resource(SerialResource, program)[0]
            return [entry[2:] for entry in fired if entry[0] == time]

        # The recv's callback scheduled both ticks around the forfeiting
        # send; they fire next, and see the forfeited item's
        # round-tripped remainder.
        recv_done = at(TICKS_AROUND_A_FORFEIT, 0.1 / 0.7)
        assert [entry[:2] for entry in recv_done] == [
            ("done", 1), ("tick", 1), ("tick", 1),
        ]
        backlog = recv_done[-1][-1][2]
        assert backlog == (1.5 / 0.7) * 0.7 != 1.5
        # The restarted item fired at the key taken before the tick.
        restarted_done = at(P1_INSIDE_THE_CALLBACK, 0.35 + 0.75)
        assert [entry[:2] for entry in restarted_done] == [
            ("done", 0), ("tick", 1),
        ]

    def test_pinned_chain_programs_reach_their_cases(self):
        def cases(program):
            probe = {}

            def make(sim, name):
                probe["resource"] = ChainProbe(sim, name)
                return probe["resource"]

            play_resource(make, program)
            return probe["resource"].cases

        fused = ["fused", "completed fused"]
        assert cases(CHAIN_FUSED_OVER_SERVICE) == fused
        assert cases(CHAIN_ANSWERS_BUSY_READS) == fused
        assert cases(CHAIN_OVER_PREEMPTED_AT_RATE_07) == fused
        assert cases(CHAIN_FROM_A_CALLBACK) == fused
        assert cases(CHAIN_OF_ZERO_DURATIONS) == fused
        assert cases(CHAIN_QUEUED_BEHIND_P0) == ["steps"]
        for program, passed in (
            (CHAIN_SPLIT_BY_P0, 1),
            (CHAIN_SPLIT_BY_P1, 2),
            (CHAIN_SPLIT_BY_RATE, 0),
            (CHAIN_SPLIT_BY_HALT, 1),
            (CHAIN_SPLIT_BY_KIND_READ, 1),
            (CHAIN_SPLIT_BY_COUNT_READ, 2),
            (CHAIN_SPLIT_BY_EVENT_AT_A_BOUNDARY, 1),
            (CHAIN_SPLIT_BY_EVENT_AT_ITS_END, 1),
        ):
            assert cases(program)[:2] == ["fused", f"split after {passed}"]

    def test_a_fused_chain_elides_two_events(self):
        # Two arrivals, the recv, compute and send completions and the
        # service completion; the fused chain fires one event for three.
        reference = play_resource(ReferenceSerialResource, CHAIN_FUSED_OVER_SERVICE)
        assert reference[-2] == 6
        assert play_resource(SerialResource, CHAIN_FUSED_OVER_SERVICE)[-2] == 4
        sim = Simulator()
        resource = SerialResource(sim, "node")
        resource.submit(2.0, "compute", priority=1)
        resource.submit_chain(0.25, 0.25, 0.5, None, None, None)
        sim.run()
        assert sim.events_processed == 2
