"""Fault injection + self-healing: schedules, surgery, control plane.

Locks down the failure layer's contracts:

* schedules are pure data — seeded, composable with ``+``, exactly
  round-trippable through ``from_spec`` (property-tested);
* middleware surgery — crashes dead-letter and resubmit (never lose)
  in-flight conversations, disjoint-subtree injections commute, and a
  partition followed by a heal restores the exact pre-fault fan-out;
* the control plane — faulted runs stay bit-deterministic per seed
  (including across ``control_sweep`` process pools), repair decisions
  splice spares through the migration machinery, and the Black Friday
  crash scenario recovers >= 90 % of the no-fault throughput with zero
  lost conversations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NodePool, dgemm_mflop
from repro.api import PlanningSession
from repro.control.loop import ControlLoop
from repro.control.traces import from_spec as trace_spec
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.errors import ControlError, DeploymentError, FaultError
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultSchedule,
    crash,
    crash_storm,
    degrade,
    from_spec,
    heal,
    partition,
)
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource

WORK = dgemm_mflop(200)


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int, power: float = 265.0) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", power)
    for i in range(n_servers):
        h.add_server(f"s{i}", power, "agent")
    return h


def two_regions() -> Hierarchy:
    """Root with two disjoint agent subtrees plus one direct server."""
    h = Hierarchy()
    h.set_root("root", 265.0)
    h.add_agent("mid-a", 265.0, "root")
    h.add_server("a0", 265.0, "mid-a")
    h.add_server("a1", 265.0, "mid-a")
    h.add_agent("mid-b", 265.0, "root")
    h.add_server("b0", 265.0, "mid-b")
    h.add_server("b1", 265.0, "mid-b")
    h.add_server("s0", 265.0, "root")
    return h


def wiring(system: MiddlewareSystem) -> dict[str, tuple[str, ...]]:
    """The live fan-out: agent name -> ordered child names."""
    return {
        name: tuple(child.name for child in agent.children)
        for name, agent in sorted(system.agents.items())
    }


# --------------------------------------------------------------------- #
# schedules are pure data


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(FaultError):
            FaultEvent(1.0, "meteor", "s0")
        with pytest.raises(FaultError):
            FaultEvent(-1.0, "crash", "s0")
        with pytest.raises(FaultError):
            FaultEvent(1.0, "crash", "   ")
        with pytest.raises(FaultError):
            FaultEvent(1.0, "crash", "s0", factor=0.5)
        with pytest.raises(FaultError):
            FaultEvent(1.0, "degrade", "s0", factor=0.0)

    @pytest.mark.parametrize("at", [math.nan, math.inf])
    def test_non_finite_time_rejected(self, at):
        # A NaN time compares false with every clock reading, so the
        # fault would silently never fire.
        with pytest.raises(FaultError, match="finite"):
            FaultEvent(at, "crash", "s0")

    @pytest.mark.parametrize("factor", [math.nan, math.inf])
    def test_non_finite_factor_rejected(self, factor):
        # Otherwise the run dies mid-way in the resource's re-timing.
        with pytest.raises(FaultError, match="finite"):
            FaultEvent(1.0, "degrade", "s0", factor=factor)

    def test_equality_and_hash(self):
        a = FaultEvent(3.0, "degrade", "s1", factor=0.25)
        b = FaultEvent(3.0, "degrade", "s1", factor=0.25)
        c = FaultEvent(3.0, "degrade", "s1", factor=0.5)
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestScheduleComposition:
    def test_add_interleaves_chronologically(self):
        merged = crash("s1", 40.0) + degrade("s0", 10.0, 0.5)
        assert [e.at for e in merged] == [10.0, 40.0]
        assert [e.kind for e in merged] == ["degrade", "crash"]

    def test_same_time_events_keep_composition_order(self):
        merged = partition("mid-a", 5.0) + crash("s1", 5.0)
        assert [e.kind for e in merged] == ["partition", "crash"]
        flipped = crash("s1", 5.0) + partition("mid-a", 5.0)
        assert [e.kind for e in flipped] == ["crash", "partition"]

    def test_equality_hash_bool_len(self):
        a = crash("s1", 4.0) + heal("mid", 9.0)
        b = heal("mid", 9.0) + crash("s1", 4.0)
        assert a == b and hash(a) == hash(b)
        assert len(a) == 2 and bool(a)
        assert not FaultSchedule()

    def test_storm_is_seeded_and_materialized(self):
        one = crash_storm(4, 20.0, 80.0, seed=7)
        two = crash_storm(4, 20.0, 80.0, seed=7)
        other = crash_storm(4, 20.0, 80.0, seed=8)
        assert one == two
        assert one != other
        assert all(20.0 <= e.at < 80.0 for e in one)
        assert [e.at for e in one] == sorted(e.at for e in one)


class TestSpecRoundTrip:
    def test_storm_round_trips_exactly(self):
        storm = crash_storm(3, 20.0, 80.0, seed=7)
        assert from_spec(storm.spec) == storm

    def test_from_spec_storm_matches_constructor(self):
        parsed = from_spec("storm:count=3,start=20,end=80,seed=7")
        assert parsed == crash_storm(3, 20.0, 80.0, seed=7)

    def test_dashed_keys_accepted(self):
        assert from_spec("crash:target=busiest-child,at=45") == crash(
            "busiest-child", 45.0
        )

    @pytest.mark.parametrize(
        "spec, key",
        [
            ("crash:target=s3,at=40,at=50", "at"),
            ("degrade:target=s0,at=1,factor=0.5,factor=0.2", "factor"),
            ("partition:target=a1,target=a2,at=30", "target"),
            ("heal:target=a1,at=60;crash:target=s3,at=4,at=5", "at"),
        ],
    )
    def test_duplicate_option_is_refused(self, spec, key):
        with pytest.raises(FaultError, match=f"duplicate.*'{key}'"):
            from_spec(spec)

    def test_errors(self):
        for bad in (
            "",
            " ; ",
            "meteor:target=s0,at=1",
            "crash:target=s0,at=1,factor=2",
            "crash:target=s0,at=soon",
            "crash:garbage",
            "crash:at=1",  # missing target
            "crash:target=busiest-child,at=nan",
            "crash:target=s0,at=inf",
            "degrade:target=s0,at=1,factor=inf",
            "degrade:target=s0,at=1,factor=nan",
        ):
            with pytest.raises(FaultError):
                from_spec(bad)

    events = st.lists(
        st.one_of(
            st.builds(
                FaultEvent,
                st.floats(min_value=0.0, max_value=1e4),
                st.sampled_from(("crash", "partition", "heal")),
                st.sampled_from(("s0", "mid-a", "busiest-child")),
            ),
            st.builds(
                FaultEvent,
                st.floats(min_value=0.0, max_value=1e4),
                st.just("degrade"),
                st.sampled_from(("s0", "mid-a")),
                factor=st.floats(min_value=1e-3, max_value=16.0),
            ),
        ),
        min_size=1,
        max_size=12,
    )

    @given(events)
    @settings(max_examples=60, deadline=None)
    def test_any_schedule_round_trips_exactly(self, events):
        schedule = FaultSchedule(events)
        assert from_spec(schedule.spec) == schedule
        # Composition of parsed halves equals the parsed whole.
        first = FaultSchedule(events[: len(events) // 2 + 1])
        rest = FaultSchedule(events[len(events) // 2 + 1 :])
        recombined = from_spec(first.spec) + (
            from_spec(rest.spec) if rest else FaultSchedule()
        )
        assert recombined == schedule


# --------------------------------------------------------------------- #
# middleware surgery


class TestCrashSurgery:
    def test_crash_dead_letters_and_resubmits_in_flight(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(3), p, app_work=24.0, seed=1)
        done = []
        for _ in range(12):
            system.submit("client", on_complete=done.append)
        # Let scheduling finish and service begin, then yank a server
        # that is mid-conversation.
        sim.run_until(0.05)
        assert system.total_completed() < 12
        members, dead = system.fail_server("s0")
        assert members == ("s0",)
        assert dead >= 1
        sim.run()
        # Every conversation still completes, none on the dead server.
        assert len(done) == 12
        assert system.lost_conversations == 0
        assert system.dead_letters == dead
        assert all(r.selected_server in ("s1", "s2") for r in done[-dead:])
        assert "s0" not in system.servers
        assert "s0" in system.failed_nodes
        assert "s0" not in {str(n) for n in system.hierarchy}

    def test_subtree_crash_prunes_whole_region(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_regions(), p, app_work=8.0, seed=1)
        members, _ = system.fail_subtree("mid-a")
        assert members == ("a0", "a1", "mid-a")
        survivors = {str(n) for n in system.hierarchy}
        assert survivors == {"root", "mid-b", "b0", "b1", "s0"}
        done = []
        system.submit("client", on_complete=done.append)
        sim.run()
        assert len(done) == 1

    def test_root_cannot_crash(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        with pytest.raises(DeploymentError):
            system.fail_subtree("agent")

    @pytest.mark.parametrize("n_requests,when", [(0, 0.0), (8, 0.04), (20, 0.2)])
    def test_disjoint_subtree_injection_order_is_immaterial(
        self, p, n_requests, when
    ):
        """Crashing two disjoint subtrees commutes, whatever is in flight."""

        def run(order):
            sim = Simulator()
            system = MiddlewareSystem(
                sim, two_regions(), p, app_work=24.0, seed=3
            )
            done = []
            for _ in range(n_requests):
                system.submit("client", on_complete=done.append)
            if when > 0.0:
                sim.run_until(when)
            for target in order:
                system.fail_subtree(target)
            state = (
                tuple(sorted(str(n) for n in system.hierarchy)),
                tuple(sorted(system.agents)),
                tuple(sorted(system.servers)),
                tuple(sorted(system.failed_nodes)),
                system.dead_letters,
            )
            sim.run()
            return state, len(done), system.lost_conversations

        forward = run(("mid-a", "mid-b"))
        backward = run(("mid-b", "mid-a"))
        assert forward[0] == backward[0]
        assert forward[1] == backward[1] == n_requests
        assert forward[2] == backward[2] == 0


class TestPartitionAndHeal:
    def test_partition_heal_restores_exact_prefault_tree(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_regions(), p, app_work=8.0, seed=1)
        before_wiring = wiring(system)
        before_tree = system.hierarchy
        members = system.partition("mid-a")
        assert members == ("a0", "a1", "mid-a")
        assert "mid-a" not in wiring(system)["root"]
        # Dark subtree serves nothing; the rest keeps working.
        done = []
        for _ in range(6):
            system.submit("client", on_complete=done.append)
        sim.run()
        assert len(done) == 6
        assert all(r.selected_server in ("b0", "b1", "s0") for r in done)
        healed = system.heal("mid-a")
        assert healed == ("a0", "a1", "mid-a")
        # No repair ran, so the exact pre-fault state is restored.
        assert wiring(system) == before_wiring
        assert system.hierarchy is before_tree
        assert system.partitioned_subtrees == {}
        done.clear()
        for _ in range(8):
            system.submit("client", on_complete=done.append)
        sim.run()
        assert {r.selected_server for r in done} & {"a0", "a1"}

    def test_double_partition_and_overlap_are_errors(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_regions(), p, app_work=1.0, seed=1)
        system.partition("mid-a")
        with pytest.raises(DeploymentError):
            system.partition("mid-a")
        with pytest.raises(DeploymentError):
            system.partition("a0")  # already dark under mid-a

    def test_heal_without_partition_is_none(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        assert system.heal("s0") is None


class TestDegrade:
    def test_degraded_node_serves_slower_then_recovers(self, p):
        def latency(factor):
            sim = Simulator()
            system = MiddlewareSystem(sim, star(1), p, app_work=64.0, seed=1)
            if factor is not None:
                system.degrade_node("s0", factor)
            done = []
            system.submit("client", on_complete=done.append)
            sim.run()
            return done[0].total_latency

        nominal = latency(None)
        slowed = latency(0.25)
        assert slowed > nominal
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0, seed=1)
        system.degrade_node("s0", 0.5)
        assert system.degraded == {"s0": 0.5}
        system.degrade_node("s0", 1.0)
        assert system.degraded == {}

    def test_mid_task_rescale_preserves_work(self):
        sim = Simulator()
        resource = SerialResource(sim, "r")
        finished = []
        resource.submit(10.0, "compute", lambda: finished.append(sim.now))
        sim.run_until(4.0)
        resource.set_rate(0.5)  # 6 nominal seconds left -> 12 wall
        sim.run()
        assert finished == [16.0]

    def test_halt_drops_queue_and_blackholes(self):
        sim = Simulator()
        resource = SerialResource(sim, "r")
        finished = []
        resource.submit(5.0, "compute", lambda: finished.append("a"))
        resource.submit(5.0, "compute", lambda: finished.append("b"))
        sim.run_until(1.0)
        dropped = resource.halt()
        assert dropped == 2  # the running task and the queued one
        resource.submit(1.0, "compute", lambda: finished.append("late"))
        sim.run()
        assert finished == []
        assert resource.is_halted
        with pytest.raises(Exception):
            resource.set_rate(2.0)


# --------------------------------------------------------------------- #
# the injector


class TestInjector:
    def test_due_pops_in_order_once(self):
        injector = FaultInjector(crash("s0", 5.0) + crash("s1", 15.0))
        assert [e.at for e in injector.due(10.0)] == [5.0]
        assert injector.pending == 1
        assert injector.due(10.0) == []
        assert [e.at for e in injector.due(20.0)] == [15.0]

    def test_busiest_server_resolution_is_deterministic(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(3), p, app_work=16.0, seed=1)
        injector = FaultInjector(crash("busiest-server", 1.0))
        done = []
        for _ in range(9):
            system.submit("client", on_complete=done.append)
        sim.run_until(1.0)
        first = injector.resolve("busiest-server", system)
        assert first in system.servers
        busy = {
            name: system.servers[name].resource.busy_seconds()
            for name in system.servers
        }
        assert busy[first] == max(busy.values())

    def test_unresolved_target_is_skipped_not_fatal(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        record = FaultInjector(FaultSchedule()).apply(
            FaultEvent(0.0, "crash", "ghost"), system
        )
        assert not record.applied
        assert record.nodes == ()

    def test_root_fault_is_a_schedule_bug(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        injector = FaultInjector(FaultSchedule())
        for kind in ("crash", "partition"):
            with pytest.raises(FaultError):
                injector.apply(FaultEvent(0.0, kind, "agent"), system)


# --------------------------------------------------------------------- #
# the control plane


def faulted_loop(**overrides) -> ControlLoop:
    defaults = dict(
        pool=NodePool.uniform_random(10, low=80, high=400, seed=7),
        app_work=WORK,
        trace=trace_spec("black_friday"),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=12,
        epoch_duration=4.0,
        initial_fraction=0.4,
        seed=3,
        faults="crash:target=busiest-child,at=18",
    )
    defaults.update(overrides)
    return ControlLoop(**defaults)


class TestControlLoopFaults:
    def test_faults_argument_validation(self):
        with pytest.raises(FaultError):
            faulted_loop(faults="meteor:at=3")
        with pytest.raises(ControlError):
            faulted_loop(faults=42)

    @pytest.mark.parametrize("migration", ["live", "concurrent", "restart"])
    def test_same_seed_is_bit_identical_under_faults(self, migration):
        first = faulted_loop(migration=migration).run()
        second = faulted_loop(migration=migration).run()
        assert first == second
        assert first.records == second.records
        assert first.fault_count == 1
        crashed = [r for r in first.records if r.faults]
        assert len(crashed) == 1
        assert crashed[0].faults[0].kind == "crash"
        assert crashed[0].faults[0].applied

    def test_crash_never_loses_conversations(self):
        timeline = faulted_loop().run()
        assert timeline.lost_conversations == 0
        assert timeline.dead_letters >= 0
        assert "faults injected" in timeline.describe()

    def test_monitor_reports_failure_exactly_once(self):
        timeline = faulted_loop().run()
        failed = [
            name for r in timeline.records for f in r.faults for name in f.nodes
        ]
        repairs = [r for r in timeline.records if r.action == "repair"]
        assert len(repairs) == 1  # one decision per fault, not a retry storm
        assert failed[0] in repairs[0].reason

    def test_crashed_nodes_never_come_back(self):
        timeline = faulted_loop(epochs=20).run()
        dead = {
            name for r in timeline.records for f in r.faults for name in f.nodes
        }
        loop = faulted_loop(epochs=20)
        loop.run()
        final = {str(n) for n in loop.final_hierarchy}
        assert not dead & final

    def test_degrade_and_heal_specs_run_end_to_end(self):
        spec = (
            "degrade:target=busiest-server,at=10,factor=0.25;"
            "partition:target=busiest-child,at=20;"
            "heal:target=busiest-child,at=30"
        )
        timeline = faulted_loop(
            faults=spec, policy="hold", policy_options=None
        ).run()
        kinds = [f.kind for r in timeline.records for f in r.faults]
        assert kinds == ["degrade", "partition", "heal"]
        assert timeline.fault_count == 3
        assert timeline.lost_conversations == 0

    def test_sweep_serial_matches_process_pool_under_faults(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(10, low=80, high=400, seed=7)
        kwargs = dict(
            traces=("black_friday",),
            policies=("reactive",),
            seeds=(0, 1),
            policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
            epochs=8,
            epoch_duration=3.0,
            initial_fraction=0.4,
            faults="crash:target=busiest-child,at=10",
        )
        serial = session.control_sweep(
            pool, WORK, parallel=False, **kwargs
        )
        pooled = session.control_sweep(
            pool, WORK, parallel=True, max_workers=2, **kwargs
        )
        for a, b in zip(serial, pooled):
            assert a.timeline == b.timeline
        assert all(c.timeline.fault_count == 1 for c in serial)

    def test_sweep_validates_fault_spec_eagerly(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(6, low=80, high=400, seed=7)
        with pytest.raises(FaultError):
            session.control_sweep(
                pool, WORK,
                traces=("constant:level=4",),
                policies=("hold",),
                seeds=(0, 1),
                faults="crash:at=nonsense",
            )


class TestRepairPath:
    def test_repair_splices_spares_over_the_hole(self):
        # Crash while spares remain: the repair decision must apply a
        # redeploy that brings replacement nodes in.
        pool = NodePool.uniform_random(16, low=80, high=400, seed=7)
        timeline = faulted_loop(
            pool=pool, epochs=14, faults="crash:target=busiest-child,at=18"
        ).run()
        repairs = [r for r in timeline.records if r.action == "repair"]
        assert repairs and any(r.applied for r in repairs)
        applied = next(r for r in repairs if r.applied)
        assert "splicing in spares" in applied.reason
        # The epoch after the repair deploys more nodes than the crash
        # left behind.
        after = timeline.records[applied.index + 1]
        assert after.deployed_nodes > applied.deployed_nodes

    def test_repair_can_be_disabled(self):
        timeline = faulted_loop(
            policy_options={"hysteresis": 1, "cooldown": 1, "repair": False},
        ).run()
        assert all(r.action != "repair" for r in timeline.records)
        assert timeline.lost_conversations == 0


class TestFaultRecoveryAcceptance:
    """The examples/autoscaling.py act-three numbers, kept honest."""

    @staticmethod
    def _example():
        import sys
        from pathlib import Path

        examples = Path(__file__).resolve().parent.parent / "examples"
        sys.path.insert(0, str(examples))
        try:
            import autoscaling
        finally:
            sys.path.remove(str(examples))
        return autoscaling

    def test_crash_recovers_ninety_percent_with_zero_lost(self):
        runs = self._example().run_fault_recovery(verbose=False)
        baseline, faulted = runs["baseline"], runs["faulted"]
        assert faulted.lost_conversations == 0
        assert faulted.fault_count == 1
        assert faulted.total_served >= 0.9 * baseline.total_served
        repairs = [
            r for r in faulted.records if r.action == "repair" and r.applied
        ]
        assert repairs
