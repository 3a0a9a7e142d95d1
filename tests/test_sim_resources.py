"""M(r,s,w) serial resource with priority preemption."""

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, Simulator
from repro.sim.resources import SerialResource


@pytest.fixture
def sim() -> Simulator:
    return Simulator()


@pytest.fixture
def res(sim) -> SerialResource:
    return SerialResource(sim, "node")


class TestSerialExecution:
    def test_tasks_run_back_to_back(self, sim, res):
        done = []
        res.submit(1.0, "compute", lambda: done.append(sim.now))
        res.submit(2.0, "compute", lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 3.0]

    def test_no_internal_parallelism(self, sim, res):
        # send + recv + compute serialize: the model's core assumption.
        done = []
        res.submit(1.0, "send", lambda: done.append(sim.now))
        res.submit(1.0, "recv", lambda: done.append(sim.now))
        res.submit(1.0, "compute", lambda: done.append(sim.now))
        sim.run()
        assert done == [1.0, 2.0, 3.0]

    def test_zero_duration_task(self, sim, res):
        done = []
        res.submit(0.0, "send", lambda: done.append(sim.now))
        sim.run()
        assert done == [0.0]

    def test_callback_optional(self, sim, res):
        res.submit(1.0, "compute")
        sim.run()
        assert res.tasks_done == 1

    def test_rejects_bad_inputs(self, res):
        with pytest.raises(SimulationError):
            res.submit(-1.0, "compute")
        with pytest.raises(SimulationError):
            res.submit(math.nan, "compute")
        with pytest.raises(SimulationError):
            res.submit(1.0, "think")
        with pytest.raises(SimulationError):
            res.submit(1.0, "compute", priority=2)


class TestAccounting:
    def test_busy_time_accumulates(self, sim, res):
        res.submit(1.5, "compute")
        res.submit(0.5, "send")
        sim.run()
        assert res.busy_time == pytest.approx(2.0)
        assert res.kind_time("compute") == pytest.approx(1.5)
        assert res.kind_time("send") == pytest.approx(0.5)

    def test_utilization(self, sim, res):
        res.submit(2.0, "compute")
        sim.run()
        sim.run_until(4.0)
        assert res.utilization() == pytest.approx(0.5)

    def test_backlog_and_queue_length(self, sim, res):
        res.submit(1.0, "compute")
        res.submit(2.0, "compute")
        res.submit(3.0, "compute", priority=1)
        # First task started immediately; two queued.
        assert res.queue_length == 2
        assert res.backlog == pytest.approx(5.0)
        sim.run()
        assert res.queue_length == 0

    def test_unknown_kind_time_rejected(self, res):
        with pytest.raises(SimulationError):
            res.kind_time("nap")


class TestPriorityPreemption:
    def test_high_priority_preempts_low(self, sim, res):
        order = []
        res.submit(10.0, "compute", lambda: order.append(("low", sim.now)),
                   priority=1)
        sim.schedule(2.0, lambda: res.submit(
            1.0, "compute", lambda: order.append(("high", sim.now))))
        sim.run()
        # High runs 2->3; low resumes and finishes at 11 (work conserved).
        assert order == [("high", 3.0), ("low", 11.0)]
        assert res.preemptions == 1

    def test_work_is_conserved_across_preemption(self, sim, res):
        res.submit(4.0, "compute", priority=1)
        sim.schedule(1.0, lambda: res.submit(0.5, "send"))
        sim.schedule(2.0, lambda: res.submit(0.5, "send"))
        sim.run()
        assert res.busy_time == pytest.approx(5.0)
        assert res.kind_time("compute") == pytest.approx(4.0)

    def test_high_does_not_preempt_high(self, sim, res):
        order = []
        res.submit(2.0, "compute", lambda: order.append(("a", sim.now)))
        sim.schedule(1.0, lambda: res.submit(
            0.1, "compute", lambda: order.append(("b", sim.now))))
        sim.run()
        assert order == [("a", 2.0), ("b", 2.1)]
        assert res.preemptions == 0

    def test_resumed_task_runs_before_later_low_work(self, sim, res):
        order = []
        res.submit(4.0, "compute", lambda: order.append("first-low"), priority=1)
        sim.schedule(1.0, lambda: res.submit(1.0, "compute", lambda: order.append("high")))
        sim.schedule(1.5, lambda: res.submit(1.0, "compute", lambda: order.append("second-low"), priority=1))
        sim.run()
        assert order == ["high", "first-low", "second-low"]

    def test_low_priority_runs_when_idle(self, sim, res):
        done = []
        res.submit(1.0, "compute", lambda: done.append(sim.now), priority=1)
        sim.run()
        assert done == [1.0]

    def test_repeated_zero_elapsed_preemption_keeps_one_heap_entry(self, sim, res):
        done = []
        res.submit(4.0, "compute", lambda: done.append(sim.now), priority=1)
        # A callback chain that preempts the resumed item at the very
        # instant it restarts, again and again.
        def chain(left):
            if left:
                res.submit(0.0, "recv", lambda: chain(left - 1))
        sim.schedule(1.0, lambda: chain(50))
        sim.run_until(1.0)
        assert res.preemptions == 50
        # The parked completion is resumed in place, not rescheduled.
        assert sim.pending == 1
        sim.run()
        assert done == [4.0]


class TestHalt:
    def test_halted_resource_still_rejects_bad_inputs(self, res):
        res.halt()
        with pytest.raises(SimulationError):
            res.submit(-1.0, "bogus", priority=7)
        with pytest.raises(SimulationError):
            res.submit(1.0, "think")
        with pytest.raises(SimulationError):
            res.submit(1.0, "compute", priority=2)

    def test_halt_drops_a_preempted_item_and_its_parked_completion(
        self, sim, res
    ):
        done = []
        res.submit(4.0, "compute", lambda: done.append("low"), priority=1)
        res.submit(
            1.0, "compute", lambda: done.append("later-low"), priority=1
        )
        sim.schedule(1.0, lambda: res.submit(
            2.0, "send", lambda: done.append("high")))
        sim.run_until(2.0)
        assert res.preemptions == 1
        # In progress: the high item.  Queued: the preempted low item
        # (parked) and the later low item.
        assert res.halt() == 3
        # Both completions, in progress and parked, are dead heap entries
        # now, so a compaction may reclaim them.
        assert sim._cancelled_in_heap == 2
        sim.run()
        assert done == []
        assert res.tasks_done == 0
        assert res.busy_time == pytest.approx(2.0)
        assert sim.pending == 0


class TestRate:
    def test_rejects_non_positive_and_nan_rates(self, sim, res):
        res.submit(1.0, "compute")
        for rate in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(SimulationError):
                res.set_rate(rate)
        assert res.rate == 1.0
        sim.run()
        assert sim.now == 1.0


class TestDeferredRestart:
    """A completion runs its callback before restarting queued
    priority-1 work (see the module docstring)."""

    @staticmethod
    def preempted(sim, res, on_done):
        """A 4 s service item preempted at t=1 by a 1 s item whose
        completion callback is ``on_done``."""
        done = []
        res.submit(4.0, "compute", lambda: done.append(sim.now), priority=1)
        sim.schedule(1.0, lambda: res.submit(1.0, "recv", on_done))
        return done

    def test_observers_count_the_deferred_item_as_in_progress(self, sim, res):
        seen = []
        done = self.preempted(
            sim,
            res,
            lambda: seen.append((res.is_busy, res.queue_length, res.backlog)),
        )
        res.submit(0.5, "compute", priority=1)
        sim.run()
        # Busy with the restarted 3 s remainder; the 0.5 s item waits.
        assert seen == [(True, 1, 0.5)]
        assert done == [5.0]

    def test_a_priority_0_submit_takes_the_port(self, sim, res):
        order = []
        done = self.preempted(sim, res, lambda: res.submit(
            0.5, "send", lambda: order.append(sim.now)))
        sim.run()
        assert order == [2.5]
        assert done == [5.5]
        # The item the restart would have run was preempted at once.
        assert res.preemptions == 2
        assert res.busy_time == pytest.approx(5.5)

    def test_no_reservation_outlives_the_callback(self, sim, res):
        keys = []

        def on_done():
            keys.append(res._deferred)

        done = self.preempted(sim, res, on_done)
        sim.run_until(2.0)
        # The 3 s remainder restarts at t=2 under the number taken right
        # after the firing completion's (3), and its parked completion
        # fires at that key.
        assert keys == [(5.0, 4)]
        assert res._deferred is None
        assert (res._completion.time, res._completion.sequence) == (5.0, 4)
        assert res.is_busy
        sim.run()
        assert done == [5.0]

    def test_a_raising_callback_still_restarts_the_item(self, sim, res):
        def on_done():
            raise RuntimeError("callback failed")

        done = self.preempted(sim, res, on_done)
        with pytest.raises(RuntimeError):
            sim.run()
        assert res._deferred is None
        assert res.is_busy and res.queue_length == 0
        sim.run()
        assert done == [5.0]

    def test_completion_events_are_re_armed(self, sim, res, monkeypatch):
        created = []
        original = Event.__init__

        def counting_init(event, *args, **kwargs):
            created.append(event)
            original(event, *args, **kwargs)

        monkeypatch.setattr(Event, "__init__", counting_init)
        for _ in range(100):
            res.submit(0.1, "recv")
        sim.run()
        assert res.tasks_done == 100
        assert len(created) == 1


class TestFusedChain:
    """A recv -> compute -> send chain runs as one event when it can
    start at once, and splits back wherever an unfused run would be."""

    WORK = (1.0, 2.0, 4.0)  # boundaries at 1, 3 and 7 s

    def run(self, fused, drive, before=None):
        """Start the chain over a service item, after ``before`` keyed its
        events; let ``drive`` advance the engine and read the resource.
        Returns what it read, the callbacks seen and the end state."""
        sim = Simulator()
        res = SerialResource(sim, "node")
        if before is not None:
            before(sim)
        seen = []
        res.submit(10.0, "compute", lambda: seen.append(("service", sim.now)), priority=1)
        submit = res.submit_chain if fused else res.submit_steps
        submit(
            *self.WORK,
            lambda: seen.append("received"),
            lambda: seen.append("computed"),
            lambda: seen.append(("sent", sim.now)),
        )
        readings = drive(sim, res)
        sim.run()
        end = (res.tasks_done, res.preemptions, res.busy_time, res.kind_time("recv"))
        return readings, seen, end, sim.events_processed

    def both(self, drive, before=None):
        fused = self.run(True, drive, before)
        stepped = self.run(False, drive, before)
        assert fused[:3] == stepped[:3]
        return fused, stepped

    def test_one_event_for_the_chain(self):
        fused, stepped = self.both(lambda sim, res: None)
        assert fused[1] == ["received", "computed", ("sent", 7.0), ("service", 17.0)]
        assert (fused[3], stepped[3]) == (2, 4)

    @pytest.mark.parametrize("horizon", [0.5, 1.0, 2.0, 3.0, 5.0, 7.0])
    def test_a_horizon_stop_reads_what_an_unfused_run_holds(self, horizon):
        # A run stopped at a boundary has fired it; busy_seconds is
        # answered without a split, the other readers split.
        def drive(sim, res):
            sim.run_until(horizon)
            return (res.busy_seconds(), res.utilization(), res.is_busy,
                    res.queue_length, res.kind_time("compute"), res.tasks_done)

        self.both(drive)

    def test_a_keyed_arm_at_a_boundary_splits_the_chain(self):
        # The key is taken before the chain begins and armed after: the
        # arm splits the chain, which then runs one event per segment.
        keys = []

        def drive(sim, res):
            sim.schedule(0.5, lambda: sim.arm(keys[-1], lambda: None))

        fused, stepped = self.both(drive, lambda sim: keys.append(sim.take(3.0)))
        assert fused[3] == stepped[3] == 6

    def test_a_take_at_a_boundary_splits_the_chain(self):
        def drive(sim, res):
            sim.schedule(0.5, lambda: sim.take(2.5))

        fused, stepped = self.both(drive)
        assert fused[3] == stepped[3] == 5

    def test_a_condition_stop_at_a_boundary_has_not_reached_it(self):
        # An event keyed at the compute boundary before the chain began
        # fires first: the compute segment is still in progress.
        def drive(sim, res):
            sim.run_until_condition(10.0, lambda: sim.now >= 3.0)
            return sim.now, res.busy_seconds(), res.kind_time("compute")

        fused, _ = self.both(drive, lambda sim: sim.schedule(3.0, lambda: None))
        assert fused[0] == (3.0, 3.0, 0.0)

    def test_an_event_scheduled_mid_chain_at_its_end_fires_first(self):
        # Scheduled before the compute boundary, it precedes the send's
        # completion at 7 s in an unfused run.
        def drive(sim, res):
            order = []
            sim.run_until(2.0)
            sim.schedule(5.0, lambda: order.append(("tick", res.tasks_done)))
            sim.run_until(7.0)
            return order

        fused, _ = self.both(drive)
        assert fused[0] == [("tick", 2)]

    def test_busy_seconds_repeats_the_unfused_additions(self):
        # Inexact durations after a preempted stretch of service: the
        # answer must round exactly as banking segment by segment does.
        def drive(sim, res):
            readings = []
            for horizon in (0.45, 0.5, 1.1, 1.35, 1.4):
                sim.run_until(horizon)
                readings.append(res.busy_seconds())
            return readings

        self.WORK = (0.1, 0.7, 0.3)
        self.both(drive, lambda sim: sim.run_until(0.3))

    def test_a_resume_at_another_chains_boundary_splits_it(self):
        # A service item parked on a second node restarts at t=0.75 and
        # is due at 7 s, the chain's end: an unfused run keys the send
        # later (at 3 s), so the service completes first.
        def order(fused):
            sim = Simulator()
            node, other = SerialResource(sim, "node"), SerialResource(sim, "other")
            seen = []
            submit = node.submit_chain if fused else node.submit_steps
            submit(1.0, 2.0, 4.0, None, None, lambda: seen.append("sent"))
            other.submit(6.5, "compute", lambda: seen.append("service"), priority=1)
            sim.schedule(0.25, lambda: other.submit(0.5, "recv", lambda: None))
            sim.run()
            return seen, sim.now

        assert order(True) == order(False) == (["service", "sent"], 7.0)

    def test_a_halted_resource_drops_chains(self, sim, res):
        res.halt()
        res.submit_chain(1.0, 1.0, 1.0, None, None, lambda: pytest.fail("ran"))
        sim.run()
        assert res.tasks_done == 0

    @pytest.mark.parametrize("work", [(-1.0, 1.0, 1.0), (1.0, math.nan, 1.0)])
    def test_rejects_bad_durations(self, res, work):
        with pytest.raises(SimulationError, match="duration"):
            res.submit_chain(*work, None, None, None)
