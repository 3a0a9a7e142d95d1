"""Discrete-event engine."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(1.0, lambda t=tag: fired.append(t))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_clock_advances(self):
        sim = Simulator()
        times = []
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.schedule(4.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [1.5, 4.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

    def test_nan_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.take(math.nan)
        with pytest.raises(SimulationError):
            sim.run_until(math.nan)
        with pytest.raises(SimulationError):
            sim.run_until_condition(math.nan, lambda: False)
        event = sim.schedule(1.0, lambda: None)
        sim.suspend(event)
        with pytest.raises(SimulationError):
            sim.resume(event, math.nan)
        assert sim.now == 0.0
        assert sim.pending == 1

    def test_nested_scheduling(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(1.0, lambda: fired.append(("inner", sim.now)))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == [("outer", 1.0), ("inner", 2.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_events_define_no_ordering(self):
        sim = Simulator()
        first = sim.schedule(1.0, lambda: None)
        second = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="used twice"):
            first < second  # noqa: B015 - the comparison is the test
        assert first != Event(first.time, first.sequence, None)

    def test_a_cancelled_entry_is_popped_unfired(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append(1.0))
        sim.schedule(2.0, lambda: fired.append(2.0))
        event.cancel()
        sim.run_until(1.5)
        assert fired == [] and sim.events_processed == 0
        assert sim.pending == 1 and sim._cancelled_in_heap == 0


class TestHeapCompaction:
    @staticmethod
    def churn(sim, rounds=2000, keep_every=10):
        """Schedule a storm of events, cancelling all but every k-th."""
        fired = []
        for i in range(rounds):
            event = sim.schedule(
                1.0 + (i % 7) * 0.25, lambda i=i: fired.append((sim.now, i))
            )
            if i % keep_every:
                event.cancel()
        return fired

    def test_compaction_bounds_dead_entries(self, monkeypatch):
        sim = Simulator()
        monkeypatch.setattr(Simulator, "COMPACT_MIN_SIZE", 64)
        self.churn(sim)
        # 90% of the 2000 events were cancelled; lazy deletion alone would
        # leave them all queued.
        assert sim.heap_compactions > 0
        assert sim.pending < 500

    def test_compaction_preserves_firing_order(self, monkeypatch):
        lazy = Simulator()
        monkeypatch.setattr(lazy, "COMPACT_MIN_SIZE", 10**9)  # never compact
        lazy_fired = self.churn(lazy)
        lazy.run()

        compacting = Simulator()
        monkeypatch.setattr(compacting, "COMPACT_MIN_SIZE", 32)
        compacting_fired = self.churn(compacting)
        compacting.run()

        assert compacting.heap_compactions > 0
        assert compacting_fired == lazy_fired
        assert compacting.now == lazy.now
        assert compacting.events_processed == lazy.events_processed

    def test_cancel_is_idempotent_in_count(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        event.cancel()
        assert sim._cancelled_in_heap == 1

    def test_small_heaps_never_compact(self):
        sim = Simulator()
        for _ in range(100):
            sim.schedule(1.0, lambda: None).cancel()
        assert sim.heap_compactions == 0
        sim.run()
        assert sim.events_processed == 0


class TestRunUntil:
    def test_stops_at_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run_until(6.0)
        assert fired == [1, 5]

    def test_cannot_run_to_the_past(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(4.0)

    def test_event_budget_enforced(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(0.1, reschedule)

        sim.schedule(0.1, reschedule)
        with pytest.raises(SimulationError):
            sim.run_until(1e9, max_events=100)

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0
        assert sim.events_processed == 0


class TestEventBudget:
    """A budget of N fires at most N events and raises only if a live
    event due within the horizon remains after that."""

    @staticmethod
    def loaded(times=(1.0, 2.0, 3.0)):
        sim = Simulator()
        fired = []
        for time in times:
            sim.schedule(time, lambda t=time: fired.append(t))
        return sim, fired

    def test_run_exact_budget_drains_without_raising(self):
        sim, fired = self.loaded()
        sim.run(max_events=3)
        assert fired == [1.0, 2.0, 3.0]

    def test_run_ignores_cancelled_leftovers(self):
        sim, fired = self.loaded()
        sim.schedule(4.0, lambda: fired.append(4.0)).cancel()
        sim.run(max_events=3)
        assert fired == [1.0, 2.0, 3.0]
        assert sim.pending == 0

    def test_run_raises_after_exactly_budget_events(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError, match="budget of 2"):
            sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.events_processed == 2

    def test_run_until_raises_after_exactly_budget_events(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError, match="budget of 2"):
            sim.run_until(10.0, max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0

    def test_run_until_budget_ignores_events_past_the_horizon(self):
        sim, fired = self.loaded()
        sim.run_until(2.5, max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5
        assert sim.pending == 1

    def test_run_until_condition_raises_after_exactly_budget_events(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError, match="budget of 2"):
            sim.run_until_condition(10.0, lambda: False, max_events=2)
        assert fired == [1.0, 2.0]

    def test_run_until_condition_met_on_the_last_budgeted_event(self):
        sim, fired = self.loaded()
        met = sim.run_until_condition(
            10.0, lambda: len(fired) == 2, max_events=2
        )
        assert met
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0

    def test_run_until_condition_budget_ignores_events_past_deadline(self):
        sim, fired = self.loaded()
        met = sim.run_until_condition(2.5, lambda: False, max_events=2)
        assert not met
        assert fired == [1.0, 2.0]
        assert sim.now == 2.5

    def test_zero_budget(self):
        sim, fired = self.loaded()
        with pytest.raises(SimulationError):
            sim.run(max_events=0)
        assert fired == []
        Simulator().run(max_events=0)  # nothing to fire: no error


class TestCarriers:
    def test_windows_drop_dead_entries_and_re_key_carriers(self):
        sim = Simulator()
        fired = []
        for time in (2.0, 1.0):
            sim.schedule(time, lambda t=time: fired.append(t))
        sim.schedule(0.5, lambda: fired.append(0.5)).cancel()
        late = sim.schedule(0.75, lambda: fired.append("late"))
        sim.suspend(late)
        assert sim.resume(late, 2.5) is late  # carried from t=0.75
        sim.run_until(1.0)
        assert fired == [1.0]
        # The dead entry was popped and the carrier re-keyed in place.
        assert (sim.now, sim.events_processed, sim.pending) == (1.0, 1, 2)
        assert sim._cancelled_in_heap == 0 and late.carrier == 2.5
        sim.run_until(1.5)
        assert fired == [1.0] and sim.events_processed == 1
        sim.run_until(3.0)
        assert fired == [1.0, 2.0, "late"]
        assert (sim.events_processed, sim.pending) == (3, 0)


class TestReuse:
    """``schedule(..., reuse=event)`` re-arms an event no entry carries."""

    def test_a_fired_event_is_re_armed_in_place(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("first"))
        sim.run()
        again = sim.schedule(0.5, lambda: fired.append("second"), event)
        assert again is event
        assert (event.time, event.carrier) == (1.5, 1.5)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.events_processed == 2

    def test_a_cancelled_event_is_reusable_once_its_entry_is_popped(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        event.cancel()
        with pytest.raises(SimulationError, match="still on the heap"):
            sim.schedule(1.0, lambda: None, event)
        sim.run()
        assert sim.schedule(1.0, lambda: None, event) is event
        assert sim._cancelled_in_heap == 0

    def test_reusing_a_pending_event_raises(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError, match="pending"):
            sim.schedule(1.0, lambda: None, event)
        sim.suspend(event)
        with pytest.raises(SimulationError, match="pending"):
            sim.schedule(1.0, lambda: None, event)
        sim.run_until(2.0)
        # The suspended event's carrier surfaced and was dropped: no entry
        # carries it, but it is still pending.
        assert sim.pending == 0 and event.carrier is None
        with pytest.raises(SimulationError, match="pending"):
            sim.schedule(1.0, lambda: None, event)

    def test_reusing_another_simulators_event_raises(self):
        other = Simulator()
        event = other.schedule(1.0, lambda: None)
        other.run()
        sim = Simulator()
        with pytest.raises(SimulationError, match="another simulator"):
            sim.schedule(1.0, lambda: None, event)
        with pytest.raises(SimulationError, match="another simulator"):
            sim.schedule(1.0, lambda: None, Event(0.0, 1, None))
        assert sim.pending == 0

    def test_a_failed_reuse_takes_no_sequence_number(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(1.0, lambda: None, event)
        assert sim.schedule(1.0, lambda: None).sequence == 2


class TestTakeAndArm:
    """:meth:`Simulator.take` keys an event now; :meth:`Simulator.arm`
    puts it on the heap later, under that key."""

    def test_a_keyed_arm_fires_at_its_original_key(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("before"))
        key = sim.take(1.0)
        sim.schedule(1.0, lambda: fired.append("after"))
        sim.schedule(0.5, lambda: sim.arm(key, lambda: fired.append("armed")))
        sim.run()
        assert key == (1.0, 2)
        assert fired == ["before", "armed", "after"]

    def test_an_arm_inside_its_instant_keeps_its_place(self):
        sim = Simulator()
        fired = []
        first = sim.take(1.0)
        second = sim.take(1.0)
        sim.schedule(1.0, lambda: fired.append("later"))

        def head() -> None:
            fired.append("head")
            sim.arm(second, lambda: fired.append("second"))

        sim.arm(first, head)
        sim.run()
        assert fired == ["head", "second", "later"]

    def test_a_key_at_or_behind_the_firing_event_is_refused(self):
        sim = Simulator()
        early = sim.take(0.5)
        same_time = sim.take(1.0)
        errors = []

        def firing() -> None:
            for key in (early, same_time, (event.time, event.sequence)):
                with pytest.raises(SimulationError, match="at or behind"):
                    sim.arm(key, lambda: None)
                errors.append(key)

        event = sim.schedule(1.0, firing)
        sim.run()
        assert len(errors) == 3 and sim.pending == 0

    def test_a_key_behind_a_stopped_run_is_refused(self):
        sim = Simulator()
        key = sim.take(1.0)
        sim.run_until(1.0)
        with pytest.raises(SimulationError, match="at or behind"):
            sim.arm(key, lambda: None)
        assert sim.pending == 0

    def test_a_key_never_taken_is_refused(self):
        sim = Simulator()
        for key in ((1.0, 0), (1.0, 1)):
            with pytest.raises(SimulationError, match="never taken"):
                sim.arm(key, lambda: None)

    def test_resume_under_a_taken_key(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(3.0, lambda: fired.append("resumed"))
        sim.suspend(event)
        key = sim.take(1.0)
        sim.schedule(1.0, lambda: fired.append("later"))
        with pytest.raises(SimulationError, match="never taken"):
            sim.resume(event, 1.0, (1.0, 7))
        resumed = sim.resume(event, 0.0, key)
        # The carrier (t=3) was due later than the key: a fresh event
        # at the key, whatever the delay.
        assert resumed is not event and event.cancelled
        assert (resumed.time, resumed.sequence) == key == (1.0, 2)
        sim.run()
        assert fired == ["resumed", "later"]

    def test_a_key_used_twice_is_refused(self):
        sim = Simulator()
        key = sim.take(1.0)
        sim.arm(key, lambda: None)
        with pytest.raises(SimulationError, match=r"key \(1\.0, 1\) used twice"):
            sim.arm(key, lambda: None)
        event = sim.schedule(2.0, lambda: None)
        sim.suspend(event)
        with pytest.raises(SimulationError, match=r"key \(1\.0, 1\) used twice"):
            sim.resume(event, 0.0, key)

    def test_take_refuses_the_past(self):
        with pytest.raises(SimulationError, match="in the past"):
            Simulator().take(-1.0)

    def test_take_and_arm_call_the_split_hook_of_the_time(self):
        sim = Simulator()
        splits = []
        sim.watch((1.0,), lambda: splits.append(sim.now))
        key = sim.take(1.0)
        assert splits == [0.0]
        sim.schedule(0.25, lambda: sim.arm(key, lambda: None))
        sim.run()
        assert splits == [0.0, 0.25]

    def test_every_arm_passes_schedule(self, monkeypatch):
        sim = Simulator()
        calls = []
        schedule = Simulator.schedule

        def counted(self, *args, **kwargs):
            calls.append(args)
            return schedule(self, *args, **kwargs)

        monkeypatch.setattr(Simulator, "schedule", counted)
        event = sim.arm(sim.take(2.0), lambda: None)
        assert len(calls) == 1
        assert (event.time, event.sequence) == (2.0, 1)


class TestPassed:
    """:meth:`Simulator.passed`: a key has fired by now when it is at or
    behind the event now firing, or behind every number taken once a
    run stopped at a horizon."""

    def test_a_stopped_run_has_passed_every_number_taken(self):
        sim = Simulator()
        first = sim.take(1.0)
        last = sim.take(1.0)
        sim.run_until(1.0)
        assert sim.passed(*first) and sim.passed(*last)
        assert not sim.passed(1.0, last[1] + 1)
        assert sim.passed(0.5, 99) and not sim.passed(1.5, 1)

    def test_the_firing_event_has_passed_its_own_key(self):
        sim = Simulator()
        seen = []

        def firing() -> None:
            key = (event.time, event.sequence)
            seen.append((sim.passed(*key), sim.passed(1.0, key[1] + 1)))

        event = sim.schedule(1.0, firing)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert seen == [(True, False)]
