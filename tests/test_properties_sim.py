"""Property-based tests on the simulation substrate (hypothesis).

The load-bearing invariants of the DES:

* the engine fires events in (time, schedule-order) — never backwards;
* under any interleaving of scheduling, cancellation and run windows,
  the firing order and the engine's counters match a reference model
  that keeps its queue as a plain list and takes its minimum;
* a serial resource conserves work exactly across any interleaving of
  priorities and preemptions (total busy time == total submitted
  durations once drained, regardless of arrival pattern);
* a resource never runs two things at once (busy time <= elapsed time).
"""

import random

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
# its callback's actions: child delays to schedule and picks to cancel.
program_steps = st.one_of(
    st.tuples(
        st.just("schedule"),
        delays,
        st.lists(delays, max_size=3),
        st.lists(picks, max_size=2),
    ),
    st.tuples(st.just("cancel"), picks),
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


class ReferenceEngine:
    """The engine's contract, written the slow and obvious way.

    The queue is a plain list; the next entry is its ``(time, sequence)``
    minimum.  Cancelled entries stay queued until they reach the front or
    a compaction drops them, under the engine's documented rule.
    """

    def __init__(self):
        self.now = 0.0
        self.queue: list[tuple[float, int, int]] = []  # (time, seq, eid)
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

    def schedule(self, delay, eid, action):
        self.sequence += 1
        self.queue.append((self.now + delay, self.sequence, eid))
        self.actions[eid] = action
        return eid

    def cancel(self, eid):
        if eid in self.cancelled or eid in self.done:
            return
        self.cancelled.add(eid)
        self.cancelled_in_queue += 1
        size = len(self.queue)
        if size >= Simulator.COMPACT_MIN_SIZE and 2 * self.cancelled_in_queue > size:
            self.queue = [e for e in self.queue if e[2] not in self.cancelled]
            self.cancelled_in_queue = 0
            self.heap_compactions += 1

    def _fire(self, horizon, condition):
        while self.queue:
            head = min(self.queue)
            time, _, eid = head
            if eid in self.cancelled:
                self.queue.remove(head)
                self.cancelled_in_queue -= 1
                continue
            if time > horizon:
                return False
            self.queue.remove(head)
            self.now = time
            self.done.add(eid)
            self.events_processed += 1
            self.actions[eid]()
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

    def schedule(self, delay, eid, action):
        return self.sim.schedule(delay, action)

    def cancel(self, handle):
        handle.cancel()


def play(engine, program):
    """Run ``program`` on ``engine``; returns fired (time, eid) pairs and
    the observable state after every top-level step."""
    fired: list[tuple[float, int]] = []
    handles: list = []

    def schedule(delay, children=(), cancels=()):
        eid = len(handles)

        def action():
            fired.append((engine.now, eid))
            for child in children:
                schedule(child)
            for pick in cancels:
                engine.cancel(handles[pick % len(handles)])

        handles.append(engine.schedule(delay, eid, action))

    def observed(outcome=None):
        return (
            outcome,
            engine.now,
            len(fired),
            engine.events_processed,
            engine.heap_compactions,
            engine.pending,
        )

    trace = []
    for step in program:
        kind, *args = step
        outcome = None
        if kind == "schedule":
            schedule(*args)
        elif kind == "cancel":
            if handles:
                engine.cancel(handles[args[0] % len(handles)])
        elif kind == "burst":
            count, seed, tenths = args
            rng = random.Random(seed)
            for _ in range(count):
                # A fifth of the storm cancels a random event when fired.
                picked = [rng.randrange(10**6)] if rng.random() < 0.2 else []
                schedule(rng.choice(DELAYS), (), picked)
                if rng.random() * 10 < tenths:
                    engine.cancel(handles[-1])
        elif kind == "run_until":
            engine.run_until(engine.now + args[0])
        else:
            span, quota = args
            start = len(fired)
            outcome = engine.run_until_condition(
                engine.now + span, lambda: len(fired) - start >= quota
            )
        trace.append(observed(outcome))
    engine.run()
    trace.append(observed())
    return fired, trace


class TestEngineMatchesReference:
    @given(programs)
    @example(COMPACTS_BETWEEN_WINDOWS)
    @example(COMPACTS_WHILE_FIRING)
    @example(POPPED_DEAD_ENTRIES_STOP_COUNTING)
    @example(HALF_DEAD_DOES_NOT_COMPACT)
    @settings(max_examples=60, deadline=None)
    def test_firing_order_and_counters_match_reference(self, program):
        fired, trace = play(EngineAdapter(), program)
        expected_fired, expected_trace = play(ReferenceEngine(), program)
        assert fired == expected_fired
        assert trace == expected_trace
        # Fired (time, schedule index) keys rise strictly: the reference
        # sort on (time, sequence) is the firing order.
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


class TestResourceProperties:
    @given(task_lists)
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
