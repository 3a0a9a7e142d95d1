"""Discrete-event engine."""

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

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        seen = []
        sim.schedule_at(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1.0, lambda: None)

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
        with pytest.raises(TypeError):
            first < second  # noqa: B015 - the comparison is the test
        assert first != Event(first.time, first.sequence, None)

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        event.cancel()
        assert sim.peek_time() == 2.0


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
        assert not sim.step()


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


class TestStepAndPeek:
    def test_step_fires_one_event_at_a_time(self):
        sim = Simulator()
        fired = []
        for time in (2.0, 1.0):
            sim.schedule(time, lambda t=time: fired.append(t))
        sim.schedule(0.5, lambda: fired.append(0.5)).cancel()
        assert sim.peek_time() == 1.0
        assert sim.step()
        assert fired == [1.0]
        assert sim.now == 1.0
        assert sim.step()
        assert not sim.step()
        assert fired == [1.0, 2.0]
        assert sim.events_processed == 2
        assert sim.peek_time() is None
