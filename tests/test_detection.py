"""Timeout-modelled failure detection: inferred — never announced.

Locks down the PR's robustness contracts:

* :class:`DetectionParams` validates, serializes to a spec string, and
  ``parse_detection`` round-trips it exactly (property-tested);
* middleware watchdogs — agents only suspect their *direct* children
  (hierarchical detection), silent crashes keep traffic flowing through
  the survivors, late replies from a written-off child are ignored, and
  a watchdog acts only for the round that started it;
* one watchdog timer per agent and retry level — timelines equal those
  of a reference agent that schedules one engine event per watched
  delivery (property-tested), with fewer engine events;
* the monitor's suspicion lifecycle — a node that answers inside its
  grace window is *never* confirmed dead (property-tested), and a
  re-integrated suspect leaves the fan-out wiring bit-identical
  (false positives are survivable, not just avoidable);
* the control loop — a crashed subtree's repair applies within
  ``threshold x timeout + grace + one epoch`` of injection, with the
  measured detection latency on the timeline; transient stragglers are
  re-integrated with zero evictions and zero lost conversations;
  persistently degraded servers are drained-and-replaced by ``evict``;
  a detection spec's ``reserve=`` key holds nodes back from scale-ups;
* determinism — detection runs are bit-identical per seed, including
  across ``control_sweep`` process pools.
"""

from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import NodePool, dgemm_mflop
from repro.api import PlanningSession
from repro.control.loop import ControlLoop, DetectionRecord
from repro.control.monitor import SLOMonitor
from repro.control.policy import ControlDecision
from repro.control.traces import constant, piecewise
from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.errors import ControlError
from repro.faults import crash_storm, from_spec, subtree_storm
from repro.middleware.agent import AgentElement
from repro.middleware.detection import (
    DetectionError,
    DetectionParams,
    DetectionState,
    parse_detection,
)
from repro.middleware.server import ServerElement
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.sim.stats import IntervalCounter
from test_golden import engine_blind_digest

WORK = dgemm_mflop(200)


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def two_level() -> Hierarchy:
    """root -> {a1 -> {s1, s2}, s3}: one agent subtree plus a survivor."""
    h = Hierarchy()
    h.set_root("root", 265.0)
    h.add_agent("a1", 265.0, "root")
    h.add_server("s1", 265.0, "a1")
    h.add_server("s2", 265.0, "a1")
    h.add_server("s3", 265.0, "root")
    return h


def wiring(system: MiddlewareSystem) -> dict[str, tuple[str, ...]]:
    return {
        name: tuple(child.name for child in agent.children)
        for name, agent in sorted(system.agents.items())
    }


def pump(system: MiddlewareSystem, sim: Simulator, until: float,
         interval: float = 0.3) -> list:
    """Closed-ish drip of requests until ``until``; returns completions."""
    done: list = []
    tick = sim.now

    def one_round() -> None:
        system.submit("client", on_complete=done.append)

    while tick < until:
        sim.schedule(max(0.0, tick - sim.now), one_round)
        tick += interval
    sim.run_until(until)
    return done


# ------------------------------------------------------------------ #
# params + spec grammar


class TestDetectionParams:
    def test_defaults_validate(self):
        params = DetectionParams()
        assert params.timeout > 0 and params.suspicion_threshold >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"timeout": 0.0},
            {"timeout": -1.0},
            {"retries": -1},
            {"backoff": 0.5},
            {"suspicion_threshold": 0},
            {"grace": -0.1},
        ],
    )
    def test_bad_params_raise(self, kwargs):
        with pytest.raises(DetectionError):
            DetectionParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"timeout": float("inf")}, "timeout must be finite and > 0"),
            ({"timeout": float("nan")}, "timeout must be finite and > 0"),
            ({"backoff": float("inf")}, "backoff must be finite and >= 1"),
            ({"backoff": float("nan")}, "backoff must be finite and >= 1"),
            ({"grace": float("inf")}, "grace must be finite and >= 0"),
            ({"grace": float("nan")}, "grace must be finite and >= 0"),
        ],
    )
    def test_non_finite_params_raise(self, kwargs, message):
        with pytest.raises(DetectionError, match=message):
            DetectionParams(**kwargs)

    def test_duplicate_reserve_key_is_refused(self):
        with pytest.raises(DetectionError, match="duplicate.*'reserve'"):
            parse_detection("timeout=0.5,reserve=0.1,reserve=0.2")

    @given(
        timeout=st.floats(0.01, 60.0, allow_nan=False),
        retries=st.integers(0, 5),
        backoff=st.floats(1.0, 4.0, allow_nan=False),
        threshold=st.integers(1, 10),
        grace=st.floats(0.0, 30.0, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_spec_round_trips_exactly(
        self, timeout, retries, backoff, threshold, grace
    ):
        params = DetectionParams(
            timeout=timeout, retries=retries, backoff=backoff,
            suspicion_threshold=threshold, grace=grace,
        )
        parsed, reserve = parse_detection(params.spec)
        assert parsed == params
        assert reserve is None

    def test_reserve_key_parses_separately(self):
        params, reserve = parse_detection("timeout=0.5,reserve=0.25")
        assert params.timeout == 0.5
        assert reserve == 0.25

    @pytest.mark.parametrize(
        "spec",
        [
            "",
            "timeout",
            "timeout=abc",
            "bogus=1",
            "timeout=0.5,timeout=0.6",
            "reserve=1.0",
            "reserve=-0.1",
            # 1e309 parses to inf: a watchdog that could never fire.
            "timeout=1e309",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(DetectionError):
            parse_detection(spec)


# ------------------------------------------------------------------ #
# middleware watchdogs


class TestWatchdogs:
    def test_silent_crash_is_inferred_by_the_parent_only(self, p):
        """Hierarchical detection: root suspects a1, never a1's servers."""
        detection = DetectionParams(
            timeout=0.2, retries=1, backoff=2.0, suspicion_threshold=2
        )
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK, detection=detection
        )
        pump(system, sim, 5.0)
        system.fail_silent("a1")
        pump(system, sim, 12.0)
        suspects = set(system.liveness.suspects)
        assert "a1" in suspects
        assert "s1" not in suspects and "s2" not in suspects
        entry = system.liveness.get("a1")
        # Crossing happened after the full retry ladder ran at least once.
        assert entry.crossed_at is not None
        assert entry.crossed_at >= 5.0 + detection.timeout

    def test_survivors_keep_serving_through_a_silent_crash(self, p):
        detection = DetectionParams(timeout=0.2, suspicion_threshold=2)
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK, detection=detection
        )
        before = len(pump(system, sim, 5.0))
        system.fail_silent("a1")
        after = len(pump(system, sim, 15.0))
        assert after > before  # s3 keeps answering
        assert system.lost_conversations == 0

    def test_oracle_mode_runs_have_no_liveness_table(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, WORK)
        assert system.detection is None and system.liveness is None

    def test_confirmation_time_excision_dead_letters_nothing_lost(self, p):
        detection = DetectionParams(timeout=0.2, suspicion_threshold=2)
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK, detection=detection
        )
        pump(system, sim, 5.0)
        system.fail_silent("a1")
        pump(system, sim, 8.0)
        members, dead = system.fail_subtree("a1")
        assert set(members) == {"a1", "s1", "s2"}
        pump(system, sim, 14.0)
        assert system.lost_conversations == 0
        assert "a1" not in wiring(system)["root"]


    def test_a_watchdog_belongs_to_the_round_that_armed_it(self, p):
        """A parent's retry that reaches a1 after a1 replied opens a
        second round under the same id; the first round's watchdog must
        not time that round's slow child out early."""
        h = Hierarchy()
        h.set_root("root", 265.0)
        h.add_agent("a1", 265.0, "root")
        h.add_server("s1", 265.0, "a1")
        sim = Simulator()
        system = MiddlewareSystem(
            sim, h, p, WORK, detection=DetectionParams(timeout=1.0, retries=0)
        )
        a1 = system.agents["a1"]
        a1.receive_request(7, system.root)
        sim.run_until(0.5)
        assert a1.in_flight == 0  # the first round merged and replied
        system.degrade_node("s1", 1e-6)
        a1.receive_request(7, system.root)
        sim.run_until(1.2)
        # The first round's watchdog fired at ~1.0 s, a no-op: s1 has
        # had only ~0.7 s of the second round's timeout.
        entry = system.liveness.get("s1")
        assert entry.answers == 1 and entry.timeouts == 0
        sim.run_until(2.0)
        assert entry.timeouts == 1
        assert entry.last_timeout_at > 1.5


# ------------------------------------------------------------------ #
# suspicion lifecycle (monitor)


def _observed_system(p, detection):
    sim = Simulator()
    system = MiddlewareSystem(sim, two_level(), p, WORK, detection=detection)
    monitor = SLOMonitor(IntervalCounter())
    monitor.attach(system)
    return sim, system, monitor


class TestSuspicionLifecycle:
    @given(
        threshold=st.integers(1, 4),
        grace=st.floats(1.0, 20.0, allow_nan=False),
        answer_fraction=st.floats(0.0, 0.95, allow_nan=False),
        windows=st.integers(1, 4),
    )
    @settings(max_examples=40, deadline=None)
    def test_answer_within_grace_is_never_confirmed(
        self, threshold, grace, answer_fraction, windows
    ):
        """False positives are survivable: an answer cancels suspicion."""
        p = ModelParams()
        detection = DetectionParams(
            timeout=0.5, suspicion_threshold=threshold, grace=grace
        )
        sim, system, monitor = _observed_system(p, detection)
        # Cross the threshold with synthetic watchdog evidence ...
        crossing = 1.0
        for index in range(threshold):
            system.liveness.note_timeout("s3", crossing + 0.1 * index)
        crossed_at = system.liveness.get("s3").crossed_at
        assert crossed_at is not None
        # ... then answer strictly inside the grace window.
        answer_at = crossed_at + answer_fraction * grace
        epoch = 5.0
        confirmed: list = []
        reintegrated = False
        answered = False
        for index in range(windows + 3):
            end = (index + 1) * epoch
            if not answered and answer_at < end:
                system.liveness.note_answer("s3", answer_at)
                answered = True
            sim.run_until(end)
            observation = monitor.observe(index, end - epoch, end, 0)
            confirmed.extend(observation.failed_nodes)
            reintegrated = reintegrated or (
                "s3" in observation.reintegrated_nodes
            )
            if answered:
                break
            # Stop before the grace window elapses unanswered: past it,
            # confirmation is the *correct* outcome.
            if end + epoch - crossed_at >= grace:
                system.liveness.note_answer("s3", end)
                answered = True
        assert "s3" not in confirmed
        assert system.liveness.get("s3").crossed_at is None

    def test_reintegration_restores_exact_prior_routing(self, p):
        """suspect -> healthy leaves the fan-out wiring bit-identical."""
        detection = DetectionParams(
            timeout=0.2, suspicion_threshold=2, grace=30.0
        )
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK, detection=detection
        )
        monitor = SLOMonitor(IntervalCounter())
        monitor.attach(system)
        before = wiring(system)
        pump(system, sim, 5.0)
        # Silent partition: unreachable but structurally intact.
        members = system.partition("a1")
        assert set(members) == {"a1", "s1", "s2"}
        pump(system, sim, 10.0)
        observation = monitor.observe(0, 0.0, 10.0, 0)
        assert "a1" in observation.suspect_nodes
        assert observation.failed_nodes == ()
        healed = system.heal("a1")
        assert healed is not None
        pump(system, sim, 15.0)
        observation = monitor.observe(1, 10.0, 15.0, 0)
        assert "a1" in observation.reintegrated_nodes
        assert wiring(system) == before
        assert all(
            element.reachable
            for registry in (system.agents, system.servers)
            for element in registry.values()
        )
        # The re-integrated subtree serves again.
        done = pump(system, sim, 25.0)
        served_by = {request.selected_server for request in done}
        assert served_by & {"s1", "s2"}
        assert system.lost_conversations == 0

    def test_confirmation_is_final_and_reported_once(self, p):
        detection = DetectionParams(
            timeout=0.2, suspicion_threshold=2, grace=0.0
        )
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK, detection=detection
        )
        monitor = SLOMonitor(IntervalCounter())
        monitor.attach(system)
        pump(system, sim, 3.0)
        system.fail_silent("a1")
        pump(system, sim, 8.0)
        first = monitor.observe(0, 0.0, 8.0, 0)
        assert "a1" in first.failed_nodes
        pump(system, sim, 12.0)
        second = monitor.observe(1, 8.0, 12.0, 0)
        assert "a1" not in second.failed_nodes
        assert monitor.detection_report("a1") is not None


class TestRepeatFailureReporting:
    """A monitor outlives redeploys — its memory must not outlive nodes."""

    def test_refailure_of_reused_name_is_reported(self, p):
        """Regression: ``_failed_seen`` grew forever across attaches, so
        the second failure of a name that re-entered the deployment (a
        repair splicing a spare, a redeploy reusing the name) was
        silently swallowed.  ``attach()`` now prunes the set against
        the deployed names: fail, repair, re-fail — both reported."""
        monitor = SLOMonitor(IntervalCounter())
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, WORK)
        monitor.attach(system)
        pump(system, sim, 1.0)
        system.fail_server("s1")
        first = monitor.observe(0, 0.0, 1.0, 0)
        assert "s1" in first.failed_nodes
        # A quiet window does not re-report the same failure.
        pump(system, sim, 2.0)
        assert "s1" not in monitor.observe(1, 1.0, 2.0, 0).failed_nodes
        # "Repair": a redeploy replaces the platform, and the reused
        # name is deployed — and alive — again.
        sim2 = Simulator()
        repaired = MiddlewareSystem(sim2, two_level(), p, WORK)
        monitor.attach(repaired)
        pump(repaired, sim2, 1.0)
        repaired.fail_server("s1")
        second = monitor.observe(2, 0.0, 1.0, 0)
        assert "s1" in second.failed_nodes

    def test_reconfirmation_after_repair_is_reported(self, p):
        """Detection-mode twin: the confirmed-suspicion latch is final
        for a *dead* node, but must drop when the name re-enters the
        deployment alive — else the second death is never confirmed."""
        detection = DetectionParams(
            timeout=0.2, suspicion_threshold=2, grace=0.0
        )
        sim, system, monitor = _observed_system(p, detection)
        pump(system, sim, 3.0)
        system.fail_silent("s3")
        pump(system, sim, 8.0)
        first = monitor.observe(0, 0.0, 8.0, 0)
        assert "s3" in first.failed_nodes
        assert monitor.detection_report("s3") is not None
        # Repair splices a fresh node under the reused name; attaching
        # to the repaired platform clears the stale confirmation.
        sim2 = Simulator()
        repaired = MiddlewareSystem(
            sim2, two_level(), p, WORK, detection=detection
        )
        monitor.attach(repaired)
        assert monitor.detection_report("s3") is None
        pump(repaired, sim2, 3.0)
        repaired.fail_silent("s3")
        pump(repaired, sim2, 8.0)
        second = monitor.observe(1, 0.0, 8.0, 0)
        assert "s3" in second.failed_nodes


# ------------------------------------------------------------------ #
# control loop end to end


def _loop(pool_size=12, seed=7, **kwargs):
    pool = NodePool.uniform_random(pool_size, low=80, high=400, seed=11)
    defaults = dict(
        app_work=WORK,
        trace=constant(8),
        policy="reactive",
        policy_options={"repair": True},
        epochs=12,
        epoch_duration=5.0,
        think_time=0.05,
        seed=seed,
    )
    defaults.update(kwargs)
    return ControlLoop(pool, **defaults)


class TestDetectionLoop:
    def test_repair_applies_within_the_detection_bound(self):
        """Acceptance: repair within threshold x timeout + one epoch."""
        timeout, threshold, epoch = 0.5, 3, 5.0
        injected_at = 22.0
        loop = _loop(
            faults=f"crash:target=busiest-child,at={injected_at}",
            # Hold spares back from scale-ups so the repair has stock.
            detection=(
                f"timeout={timeout},retries=0,threshold={threshold},"
                "reserve=0.25"
            ),
        )
        timeline = loop.run()
        assert timeline.detection_count == 1
        [record] = [r for r in timeline.records if r.detections]
        [detection] = record.detections
        assert isinstance(detection, DetectionRecord)
        assert detection.injected_at == injected_at
        bound = threshold * timeout + epoch
        assert detection.latency is not None
        assert detection.latency <= bound + 1.0  # excision scheduling slack
        # The repair is the confirmation epoch's own act.
        assert record.action == "repair" and record.applied
        assert timeline.lost_conversations == 0

    def test_detection_latency_lands_on_the_timeline(self):
        loop = _loop(
            faults="crash:target=busiest-child,at=22",
            detection="timeout=0.5,retries=0,threshold=3",
        )
        timeline = loop.run()
        assert timeline.detection_count == 1
        assert timeline.mean_detection_latency > 0.0
        assert "confirmed by timeout" in timeline.describe()

    def test_transient_straggler_is_reintegrated_not_evicted(self):
        """Acceptance: degrade+heal inside grace => zero evictions."""
        loop = _loop(
            policy_options={
                "repair": True, "evict_after": 2, "evict_fraction": 0.5,
            },
            faults=(
                "degrade:target=busiest-server,at=12,factor=0.02;"
                "degrade:target=busiest-server,at=21,factor=1.0"
            ),
            detection=DetectionParams(
                timeout=0.5, retries=0, suspicion_threshold=3, grace=20.0
            ),
        )
        timeline = loop.run()
        assert timeline.eviction_count == 0
        assert timeline.detection_count == 0
        assert timeline.lost_conversations == 0
        suspects = [n for r in timeline.records for n in r.suspects]
        reintegrated = [
            n for r in timeline.records for n in r.reintegrated
        ]
        if suspects:  # the straggler surfaced -> it must also recover
            assert reintegrated

    def test_persistently_degraded_server_is_evicted(self):
        loop = _loop(
            pool_size=10,
            seed=3,
            policy_options={
                "repair": True, "evict_after": 2, "evict_fraction": 0.5,
            },
            epochs=14,
            faults="degrade:target=busiest-server,at=12,factor=0.03",
            detection="timeout=0.5,retries=0,threshold=3,reserve=0.2",
        )
        timeline = loop.run()
        assert timeline.eviction_count == 1
        [record] = [r for r in timeline.records if r.evictions]
        [evicted] = record.evictions
        assert record.action == "evict" and record.applied
        # The evicted server left the final deployment for good.
        final = {str(node) for node in loop.final_hierarchy}
        assert evicted not in final
        assert timeline.lost_conversations == 0

    def test_spare_reserve_is_held_back_from_scale_ups(self):
        pool_size, reserve = 12, 0.25
        reserved = round(pool_size * reserve)
        greedy = _loop(
            pool_size=pool_size, epochs=10, detection="timeout=0.5"
        ).run()
        held = _loop(
            pool_size=pool_size,
            epochs=10,
            detection=f"timeout=0.5,reserve={reserve}",
        ).run()
        cap = pool_size - reserved
        assert max(r.deployed_nodes for r in held.records) <= cap
        assert (
            max(r.deployed_nodes for r in greedy.records)
            > max(r.deployed_nodes for r in held.records)
        )

    def test_bad_reserve_raises(self):
        with pytest.raises(ControlError):
            _loop(detection="timeout=0.5,reserve=1.0")

    def test_oracle_runs_record_no_detections(self):
        timeline = _loop(
            faults="crash:target=busiest-child,at=22",
        ).run()
        assert timeline.detection_count == 0
        assert all(r.detections == () for r in timeline.records)
        assert all(r.suspects == () for r in timeline.records)


# ------------------------------------------------------------------ #
# determinism


class TestDetectionDeterminism:
    def test_detection_runs_are_bit_identical_per_seed(self):
        spec = dict(
            faults="crash:target=busiest-child,at=22",
            detection="timeout=0.5,retries=1,threshold=3,reserve=0.2",
        )
        assert _loop(**spec).run() == _loop(**spec).run()

    def test_eviction_runs_are_bit_identical_per_seed(self):
        spec = dict(
            pool_size=10,
            seed=3,
            policy_options={
                "repair": True, "evict_after": 2, "evict_fraction": 0.5,
            },
            epochs=14,
            faults="degrade:target=busiest-server,at=12,factor=0.03",
            detection="timeout=0.5,retries=0,threshold=3",
        )
        assert _loop(**spec).run() == _loop(**spec).run()

    def test_sweep_matches_serial_across_process_pools(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(10, low=80, high=400, seed=11)
        kwargs = dict(
            traces=("constant:level=8",),
            policies=("reactive",),
            seeds=(3, 7),
            policy_options={"reactive": {"repair": True}},
            epochs=8,
            think_time=0.05,
            faults="crash:target=busiest-child,at=22",
            detection="timeout=0.5,retries=0,threshold=3,reserve=0.2",
        )
        parallel = session.control_sweep(
            pool, WORK, max_workers=2, **kwargs
        )
        serial = session.control_sweep(
            pool, WORK, parallel=False, **kwargs
        )
        assert [c.timeline for c in parallel] == [
            c.timeline for c in serial
        ]
        assert any(c.timeline.detection_count for c in serial)

    def test_sweep_validates_detection_spec_eagerly(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(6, low=80, high=400, seed=11)
        with pytest.raises(DetectionError):
            session.control_sweep(
                pool, WORK,
                traces=("constant:level=4",),
                detection="timeout=nope",
            )


# ------------------------------------------------------------------ #
# one watchdog timer per agent and retry level


class OnePerDeliveryAgent(AgentElement):
    """Reference watchdogs: every watched delivery schedules its own
    engine event, which fires whether or not its child has answered
    (the tracer events of a traced run are left out).

    The agents' per-level timers must fire the watchdogs that act at
    exactly the keys these events have, and so leave every timeline as
    this reference leaves it, ``engine_events`` aside.
    """

    def _make_watched_delivery(self, child, request_id, attempt, pending):
        def deliver() -> None:
            self._deliver_to_child(child, request_id)
            wait = self.detection.timeout * (self.detection.backoff**attempt)
            self.sim.schedule(
                wait, self._make_watchdog(child, request_id, attempt, pending)
            )

        return deliver

    def _make_watchdog(self, child, request_id, attempt, pending):
        def fired() -> None:
            if self.resource.is_halted:
                return
            if (
                self._pending.get(request_id) is not pending
                or child.name not in pending.awaiting
            ):
                return
            if self.liveness is not None:
                self.liveness.note_timeout(child.name, self.sim.now)
            if attempt < self.detection.retries:
                send_time = self.params.agent_sizes.sreq / self.bandwidth
                self.resource.submit(
                    send_time, "send",
                    self._make_watched_delivery(
                        child, request_id, attempt + 1, pending
                    ),
                )
                return
            pending.awaiting.discard(child.name)
            pending.timed_out.add(child.name)
            pending.remaining -= 1
            if pending.remaining == 0:
                merge_work = self.params.wrep(len(self.children))
                self.resource.submit(
                    merge_work / self.power, "compute",
                    self._make_reply_up(request_id),
                )

        return fired


#: Faults per scenario, and the suspicion keys of its detection spec:
#: the partition's grace lets its heal land before a confirmation.
LADDER_SCENARIOS = {
    "silent": ("crash:target=busiest-child,at=5", "threshold=2"),
    "degrade": (
        "degrade:target=busiest-server,at=4,factor=0.05", "threshold=2"
    ),
    "partition": (
        "partition:target=busiest-child,at=4;heal:target=node-2,at=6",
        "threshold=3,grace=3",
    ),
}


def _ladder_run(scenario: str, detection: str):
    faults, suspicion = LADDER_SCENARIOS[scenario]
    return ControlLoop(
        NodePool.uniform_random(10, low=80, high=400, seed=7),
        dgemm_mflop(310),
        piecewise(((0.0, 6), (6.0, 20), (12.0, 10))),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1, "repair": True},
        epochs=8,
        epoch_duration=2.0,
        initial_fraction=0.4,
        migration="live",
        faults=faults,
        detection=f"{detection},{suspicion}",
    ).run()


class TestWatchdogTimers:
    @given(
        scenario=st.sampled_from(sorted(LADDER_SCENARIOS)),
        timeout=st.floats(0.1, 1.0),
        retries=st.integers(0, 2),
        backoff=st.floats(1.0, 3.0),
    )
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_timers_match_one_event_per_delivery(
        self, scenario, timeout, retries, backoff
    ):
        detection = f"timeout={timeout!r},retries={retries},backoff={backoff!r}"
        timeline = _ladder_run(scenario, detection)
        with patch("repro.middleware.system.AgentElement", OnePerDeliveryAgent):
            reference = _ladder_run(scenario, detection)
        assert engine_blind_digest(timeline) == engine_blind_digest(reference)
        events = timeline.records[-1].metrics.value("engine_events")
        assert events < reference.records[-1].metrics.value("engine_events")

    def test_a_queued_watchdog_fires_at_its_delivery_key(self, p, monkeypatch):
        """s2's watchdog waits behind s1's and goes on the heap only when
        s1's fires; it must still fire before a probe keyed after s2's
        delivery, at the same time."""
        h = Hierarchy()
        h.set_root("root", 265.0)
        h.add_server("s1", 265.0, "root")
        h.add_server("s2", 265.0, "root")
        sim = Simulator()
        timeout = 0.5
        system = MiddlewareSystem(
            sim, h, p, WORK,
            detection=DetectionParams(timeout=timeout, retries=0),
        )
        system.degrade_node("s2", 1e-6)  # s2 cannot answer in time
        seen = []

        def probe() -> None:
            entry = system.liveness.get("s2")
            seen.append(entry.timeouts if entry else 0)

        receive = ServerElement.receive_schedule

        def receive_schedule(server, request_id, reply_to=None):
            receive(server, request_id, reply_to)
            if server.name == "s2":
                # Fires later in this instant, after the delivery keyed
                # s2's watchdog: the probe is keyed after it, same time.
                sim.schedule(0.0, lambda: sim.schedule(timeout, probe))

        monkeypatch.setattr(ServerElement, "receive_schedule", receive_schedule)
        system.submit("client", on_complete=lambda request: None)
        sim.run_until(2.0)
        assert seen == [1]

    def test_a_halted_agent_drops_its_timers(self, p):
        sim = Simulator()
        system = MiddlewareSystem(
            sim, two_level(), p, WORK,
            detection=DetectionParams(timeout=1.0, retries=0),
        )
        pump(system, sim, 2.0)
        a1 = system.agents["a1"]
        assert any(a1._watchdogs.values())
        system.fail_silent("a1")
        pump(system, sim, 4.0)
        assert not any(a1._watchdogs.values())


# ------------------------------------------------------------------ #
# storm seeding contract


class TestStormSeeding:
    def test_composed_storms_draw_disjoint_streams(self):
        one = crash_storm(3, 0.0, 100.0, seed=7, target="s1")
        two = crash_storm(3, 0.0, 100.0, seed=7, target="s2")
        assert not {e.at for e in one} & {e.at for e in two}
        assert from_spec((one + two).spec) == one + two

    def test_count_growth_never_reshuffles_draws(self):
        narrow = {e.at for e in crash_storm(3, 0.0, 100.0, seed=7)}
        wide = {e.at for e in crash_storm(6, 0.0, 100.0, seed=7)}
        assert narrow <= wide

    def test_subtree_storm_shares_one_stream_and_round_trips(self):
        storm = subtree_storm(("a1", "a2", "a3"), 4, 20.0, 80.0, seed=3)
        assert storm == subtree_storm("a1|a2|a3", 4, 20.0, 80.0, seed=3)
        assert from_spec(storm.spec) == storm
        parsed = from_spec(
            "subtree-storm:targets=a1|a2|a3,count=4,start=20,end=80,seed=3"
        )
        assert parsed == storm
        assert {e.kind for e in storm} == {"crash"}
        assert {e.target for e in storm} <= {"a1", "a2", "a3"}

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_storm_spec_round_trip_is_exact(self, seed):
        independent = crash_storm(3, 10.0, 90.0, seed=seed, target="x")
        correlated = subtree_storm("a|b", 3, 10.0, 90.0, seed=seed)
        combined = independent + correlated
        assert from_spec(combined.spec) == combined


# ------------------------------------------------------------------ #
# policy surface


class TestEvictDecision:
    def test_evict_requires_targets(self):
        with pytest.raises(ControlError):
            ControlDecision("evict", "no target")
        decision = ControlDecision("evict", "drain s1", targets=("s1",))
        assert decision.targets == ("s1",)

    def test_evict_options_validate(self):
        with pytest.raises(ControlError):
            _loop(policy_options={"evict_after": -1})
        with pytest.raises(ControlError):
            _loop(policy_options={"evict_after": 2, "evict_fraction": 1.5})
