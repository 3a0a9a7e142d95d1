"""Online control plane: traces, monitor, policies, control loop."""

import pytest

from repro.api import PlanningSession
from repro.control import (
    ControlLoop,
    MigrationCostModel,
    available_policies,
    burst,
    constant,
    diurnal,
    flash_crowd,
    from_spec,
    make_policy,
    piecewise,
    ramp,
    replay,
)
from repro.control.policy import ControlDecision, ReactivePolicy
from repro.core.params import DEFAULT_PARAMS, ModelParams
from repro.core.baselines import star_deployment
from repro.errors import ControlError
from repro.platforms.pool import NodePool
from repro.sim.trace import TraceRecorder
from repro.units import dgemm_mflop


WORK = dgemm_mflop(200)


def small_loop(**overrides):
    """A fast-running controller over a 10-node pool."""
    defaults = dict(
        pool=NodePool.uniform_random(10, low=80, high=400, seed=7),
        app_work=WORK,
        trace=flash_crowd(base=3, peak=20, at=8, rise=2, fall=6),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=10,
        epoch_duration=2.0,
        initial_fraction=0.4,
        seed=5,
    )
    defaults.update(overrides)
    return ControlLoop(**defaults)


class TestTraces:
    def test_constant(self):
        trace = constant(7)
        assert [trace.level(t) for t in (0.0, 5.0, 1e6)] == [7, 7, 7]

    def test_piecewise_steps(self):
        trace = piecewise([(0.0, 2), (10.0, 8), (20.0, 1)])
        assert trace.level(0.0) == 2
        assert trace.level(9.99) == 2
        assert trace.level(10.0) == 8
        assert trace.level(25.0) == 1

    def test_piecewise_before_first_step(self):
        trace = piecewise([(5.0, 4)])
        assert trace.level(0.0) == 4

    def test_ramp_interpolates(self):
        trace = ramp(0, 10, 0.0, 10.0)
        assert trace.level(0.0) == 0
        assert trace.level(5.0) == 5
        assert trace.level(10.0) == 10
        assert trace.level(100.0) == 10

    def test_diurnal_cycle(self):
        trace = diurnal(base=2, peak=10, period=40)
        assert trace.level(0.0) == 2  # trough at phase 0
        assert trace.level(20.0) == 10  # crest half a period later
        assert trace.level(40.0) == 2

    def test_burst_window(self):
        trace = burst(base=1, burst_level=9, at=10.0, duration=5.0)
        assert trace.level(9.9) == 1
        assert trace.level(10.0) == 9
        assert trace.level(14.9) == 9
        assert trace.level(15.0) == 1

    def test_flash_crowd_shape(self):
        trace = flash_crowd(base=4, peak=40, at=10, rise=5, fall=10)
        assert trace.level(0.0) == 4
        assert trace.level(15.0) == 40  # end of the rise
        # Decay: strictly between base and peak, decreasing.
        later = [trace.level(t) for t in (20.0, 30.0, 60.0)]
        assert later == sorted(later, reverse=True)
        assert all(4 <= level < 40 for level in later)

    def test_levels_never_negative(self):
        trace = ramp(5, 0, 0.0, 5.0).scale(0.5)
        assert all(level >= 0 for level in trace.sample(0.0, 10.0, 1.0))

    def test_add_and_scale_and_clamp(self):
        combined = (constant(3) + constant(4)).scale(2.0).clamp(0, 10)
        assert combined.level(1.0) == 10

    def test_delayed(self):
        trace = burst(base=0, burst_level=5, at=0.0, duration=2.0).delayed(10.0)
        assert trace.level(5.0) == 0
        assert trace.level(11.0) == 5

    def test_jittered_is_pure_and_seeded(self):
        base = constant(20)
        jittered = base.jittered(5, seed=3)
        levels_a = jittered.sample(0.0, 30.0, 1.0)
        levels_b = jittered.sample(0.0, 30.0, 1.0)
        assert levels_a == levels_b  # pure function of time
        assert base.jittered(5, seed=4).sample(0.0, 30.0, 1.0) != levels_a
        assert any(level != 20 for level in levels_a)
        assert all(15 <= level <= 25 for level in levels_a)

    def test_jitter_requires_explicit_seed(self):
        with pytest.raises(TypeError):
            constant(5).jittered(2)  # no implicit randomness

    def test_replay_holds_buckets_and_persists(self):
        class FakeRamp:
            clients = [1, 3, 5]

        trace = replay(FakeRamp(), window=2.0)
        assert trace.level(0.0) == 1
        assert trace.level(2.0) == 3
        assert trace.level(4.5) == 5
        assert trace.level(100.0) == 5  # last level persists

    def test_sample_and_peak(self):
        trace = piecewise([(0.0, 1), (2.0, 9)])
        assert trace.sample(0.0, 4.0, 1.0) == [1, 1, 9, 9]
        assert trace.peak(0.0, 4.0) == 9

    def test_empty_window_has_no_samples(self):
        trace = constant(5)
        assert trace.sample(5.0, 5.0, 1.0) == []
        with pytest.raises(ControlError, match="empty window"):
            trace.peak(5.0, 5.0)

    def test_validation_errors(self):
        with pytest.raises(ControlError):
            constant(-1)
        with pytest.raises(ControlError):
            piecewise([])
        with pytest.raises(ControlError):
            piecewise([(5.0, 1), (5.0, 2)])  # not strictly increasing
        with pytest.raises(ControlError):
            ramp(0, 5, 10.0, 10.0)
        with pytest.raises(ControlError):
            diurnal(5, 3, 10.0)  # base > peak
        with pytest.raises(ControlError):
            flash_crowd(2, 10, at=0.0, rise=0.0)
        with pytest.raises(ControlError):
            constant(5).sample(0.0, 10.0, 0.0)


class TestTraceSpec:
    def test_round_trips_every_type(self):
        specs = {
            "constant:level=20": (0.0, 20),
            "ramp:start_level=0,end_level=10,t_start=0,t_end=10": (5.0, 5),
            "diurnal:base=2,peak=10,period=40": (20.0, 10),
            "burst:base=1,burst_level=9,at=10,duration=5": (12.0, 9),
            "flash:base=4,peak=40,at=10,rise=5,fall=10": (15.0, 40),
            "piecewise:steps=0/4|30/40": (31.0, 40),
        }
        for spec, (t, expected) in specs.items():
            assert from_spec(spec).level(t) == expected, spec

    def test_unknown_type_lists_valid_ones(self):
        with pytest.raises(ControlError, match="flash"):
            from_spec("tsunami:level=3")

    def test_unknown_option_is_actionable(self):
        with pytest.raises(ControlError, match="valid options"):
            from_spec("constant:height=3")

    def test_bad_value_is_actionable(self):
        with pytest.raises(ControlError, match="level"):
            from_spec("constant:level=tall")

    def test_missing_required_option(self):
        with pytest.raises(ControlError, match="missing required"):
            from_spec("burst:base=1")

    def test_bad_piecewise_steps(self):
        with pytest.raises(ControlError, match="time/level"):
            from_spec("piecewise:steps=0-4")

    def test_piecewise_rejects_extra_segments(self):
        # A mistyped separator must not silently drop a step.
        with pytest.raises(ControlError, match="time/level"):
            from_spec("piecewise:steps=0/4/40|60/4")


class TestPolicyRegistry:
    def test_builtins_registered(self):
        names = available_policies()
        for expected in ("hold", "reactive", "predictive", "oracle"):
            assert expected in names

    def test_make_policy_coerces_string_options(self):
        policy = make_policy(
            "reactive", {"hysteresis": "3", "up_utilization": "0.8"}
        )
        assert policy.hysteresis == 3
        assert policy.up_utilization == 0.8

    def test_make_policy_unknown_name(self):
        with pytest.raises(ControlError, match="reactive"):
            make_policy("galaxy-brain")

    def test_make_policy_unknown_option(self):
        with pytest.raises(ControlError, match="valid options"):
            make_policy("reactive", {"vibes": "1"})

    def test_register_policy_refuses_untyped_policy(self):
        from repro.control import register_policy
        from repro.control.policy import ControlPolicy, _POLICIES

        class UntypedPolicy(ControlPolicy):
            name = "untyped-test"

            def __init__(self, strict: bool = True):
                self.strict = strict

            def decide(self, ctx):
                return ControlDecision.hold()

        with pytest.raises(ControlError, match="PolicyOptions dataclass"):
            register_policy(UntypedPolicy)
        assert "untyped-test" not in _POLICIES

    def test_make_policy_rejects_bad_boolean_string(self):
        from dataclasses import dataclass

        from repro.control import PolicyOptions, register_policy
        from repro.control.policy import ControlPolicy, _POLICIES

        @dataclass(frozen=True)
        class FlaggedOptions(PolicyOptions):
            strict: bool = True

        class FlaggedPolicy(ControlPolicy):
            name = "flagged-test"
            options_type = FlaggedOptions

            def __init__(self, strict: bool = True):
                self.strict = strict

            def decide(self, ctx):
                return ControlDecision.hold()

        register_policy(FlaggedPolicy)
        try:
            assert make_policy("flagged-test", {"strict": "no"}).strict is False
            assert make_policy("flagged-test", {"strict": "ON"}).strict is True
            with pytest.raises(ControlError, match="boolean"):
                make_policy("flagged-test", {"strict": "maybe"})
        finally:
            del _POLICIES["flagged-test"]

    def test_instance_passes_through(self):
        instance = ReactivePolicy(hysteresis=1)
        assert make_policy(instance) is instance
        with pytest.raises(ControlError):
            make_policy(instance, {"hysteresis": "2"})

    def test_decision_validation(self):
        with pytest.raises(ControlError):
            ControlDecision("panic")
        with pytest.raises(ControlError):
            ControlDecision("replan", demand=-1.0)

    def test_policy_option_validation(self):
        with pytest.raises(ControlError):
            ReactivePolicy(hysteresis=0)
        with pytest.raises(ControlError):
            ReactivePolicy(down_fraction=0.95)  # above up_fraction


class TestTraceFixtures:
    def test_fixture_names_resolvable(self):
        from repro.control import fixture, fixtures

        names = fixtures()
        assert "wikipedia_flash" in names
        assert len(names) >= 3
        for name in names:
            trace = fixture(name)
            levels = trace.sample(0.0, 150.0, 5.0)
            assert max(levels) > min(levels)  # every fixture varies
            assert min(levels) >= 0

    def test_fixture_from_spec_bare_name(self):
        trace = from_spec("wikipedia_flash")
        assert trace.name == "fixture:wikipedia_flash"
        assert trace.level(40.0) == 40  # the viral spike

    def test_fixture_from_spec_scaled(self):
        base = from_spec("wikipedia_flash")
        doubled = from_spec("fixture:name=wikipedia_flash,scale=2")
        assert doubled.level(40.0) == 2 * base.level(40.0)

    def test_unknown_fixture_is_actionable(self):
        from repro.control import fixture

        with pytest.raises(ControlError, match="wikipedia_flash"):
            fixture("slashdot_effect")
        with pytest.raises(ControlError, match="fixture"):
            from_spec("fixture:name=slashdot_effect")

    def test_fixture_spec_rejects_unknown_keys(self):
        with pytest.raises(ControlError, match="scale"):
            from_spec("fixture:name=wikipedia_flash,amplitude=3")

    def test_fixture_names_round_trip_through_from_spec(self):
        # Trace.name of a fixture ("fixture:NAME" / "fixture:NAME*SCALE")
        # is itself a valid spec that rebuilds an equivalent trace.
        from repro.control import fixture, fixtures

        for name in fixtures():
            for scale in (1.0, 2.5):
                original = fixture(name, scale=scale)
                rebuilt = from_spec(original.name)
                assert rebuilt.name == original.name
                assert rebuilt.sample(0.0, 150.0, 2.5) == original.sample(
                    0.0, 150.0, 2.5
                )

    def test_fixture_compact_spec_forms(self):
        assert from_spec("fixture:black_friday").level(25.0) == 24
        assert from_spec("fixture:black_friday*2").level(25.0) == 48
        with pytest.raises(ControlError, match="not a valid float"):
            from_spec("fixture:black_friday*fast")
        with pytest.raises(ControlError, match="available fixtures"):
            from_spec("fixture:slashdot_effect*2")

    def test_sweep_rejects_unknown_policy_eagerly(self):
        from repro.api import PlanningSession
        from repro.errors import PlanningError, ReproError
        from repro.platforms.pool import NodePool

        session = PlanningSession()
        pool = NodePool.homogeneous(6, 265.0)
        with pytest.raises(ReproError, match="unknown control policy"):
            session.control_sweep(
                pool, 1000.0, traces=("constant:level=2",),
                policies=("vibes-based",), epochs=2,
            )
        with pytest.raises(PlanningError, match="max_workers >= 1"):
            session.control_sweep(
                pool, 1000.0, traces=("constant:level=2",),
                policies=("hold",), max_workers=0, epochs=2,
            )


class TestTypedPolicyOptions:
    def test_builtins_declare_options_types(self):
        from repro.control import (
            HoldOptions,
            OracleOptions,
            PredictiveOptions,
            ReactiveOptions,
        )
        from repro.control.policy import _POLICIES

        expected = {
            "hold": HoldOptions,
            "reactive": ReactiveOptions,
            "predictive": PredictiveOptions,
            "oracle": OracleOptions,
        }
        for name, options_type in expected.items():
            assert _POLICIES[name].options_type is options_type

    def test_options_validate_eagerly(self):
        from repro.control import ReactiveOptions

        with pytest.raises(ControlError, match="hysteresis"):
            ReactiveOptions(hysteresis=0)
        with pytest.raises(ControlError, match="down_fraction"):
            ReactiveOptions(down_fraction=0.95)

    def test_coercion_shares_registry_machinery(self):
        # The same string-to-field-type conversion the planner options
        # use — including annotated floats and ints — with ControlError
        # as the error domain.
        from repro.control import PredictiveOptions

        options = PredictiveOptions.coerce(
            {"lookahead": "4", "headroom": "1.5"}
        )
        assert options.lookahead == 4
        assert options.headroom == 1.5
        with pytest.raises(ControlError, match="cannot parse"):
            PredictiveOptions.coerce({"lookahead": "soon"})

    def test_make_policy_resolves_through_typed_options(self):
        policy = make_policy(
            "predictive", {"lookahead": "4", "window": "5"}
        )
        assert policy.lookahead == 4
        assert policy.window == 5

    def test_describe_still_lists_options(self):
        assert "hysteresis=1" in ReactivePolicy(hysteresis=1).describe()


class TestControlSweep:
    POOL = NodePool.uniform_random(10, low=80, high=400, seed=7)
    KW = dict(epochs=5, epoch_duration=2.0, initial_fraction=0.4)

    def test_grid_order_and_labels(self):
        session = PlanningSession()
        cells = session.control_sweep(
            self.POOL, WORK,
            traces=("constant:level=4", "constant:level=8"),
            policies=("hold",), seeds=(0, 1),
            parallel=False, **self.KW,
        )
        assert [cell.label for cell in cells] == [
            "constant:level=4/hold/s0",
            "constant:level=4/hold/s1",
            "constant:level=8/hold/s0",
            "constant:level=8/hold/s1",
        ]
        for cell in cells:
            assert cell.timeline.policy == "hold"
            assert len(cell.timeline.records) == 5

    def test_parallel_matches_serial(self):
        session = PlanningSession()
        grid = dict(
            traces=("wikipedia_flash", "constant:level=6"),
            policies=("hold", "reactive"),
            seeds=(0,),
        )
        serial = session.control_sweep(
            self.POOL, WORK, parallel=False, **grid, **self.KW
        )
        parallel = session.control_sweep(
            self.POOL, WORK, parallel=True, max_workers=2,
            **grid, **self.KW,
        )
        assert [c.timeline for c in serial] == [
            c.timeline for c in parallel
        ]

    def test_policy_options_apply_per_policy(self):
        session = PlanningSession()
        cells = session.control_sweep(
            self.POOL, WORK,
            traces=("constant:level=20",),
            policies=("reactive",),
            seeds=(0,),
            policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
            parallel=False, **self.KW,
        )
        assert cells[0].timeline.redeploys >= 1  # fast-twitch acted

    def test_validation(self):
        from repro.errors import PlanningError

        session = PlanningSession()
        with pytest.raises(PlanningError, match="at least one"):
            session.control_sweep(self.POOL, WORK, traces=())
        with pytest.raises(ControlError):
            session.control_sweep(
                self.POOL, WORK, traces=("tsunami:level=3",)
            )
        with pytest.raises(PlanningError, match="picklable"):
            session.control_sweep(self.POOL, WORK, traces=(constant(4),))
        with pytest.raises(PlanningError, match="unswept"):
            session.control_sweep(
                self.POOL, WORK, traces=("constant:level=4",),
                policies=("hold",),
                policy_options={"reactive": {"hysteresis": 1}},
            )


class TestMigrationCostModel:
    def test_identical_hierarchies_touch_nothing(self):
        pool = NodePool.homogeneous(6, 265.0)
        tree = star_deployment(pool)
        model = MigrationCostModel(restart_seconds=0.5)
        assert model.touched_nodes(tree, tree.copy()) == 0

    def test_restart_relaunches_the_whole_target(self):
        # Stop-the-world pricing bills every target element, however
        # small the structural diff: a restart to an identical tree
        # costs the same as a cold start of it.
        pool = NodePool.homogeneous(6, 265.0)
        tree = star_deployment(pool)
        model = MigrationCostModel(restart_seconds=0.5)
        full = model.cost_seconds(None, tree, DEFAULT_PARAMS)
        assert model.cost_seconds(tree, tree.copy(), DEFAULT_PARAMS) == full
        per_node = model.launch_seconds + model.per_node_seconds(
            DEFAULT_PARAMS
        )
        assert full == pytest.approx(0.5 + 6 * per_node)

    def test_cold_start_touches_everything(self):
        pool = NodePool.homogeneous(6, 265.0)
        tree = star_deployment(pool)
        assert MigrationCostModel().touched_nodes(None, tree) == 6

    def test_added_node_is_touched(self):
        pool = NodePool.homogeneous(6, 265.0)
        before = star_deployment(pool)
        after = before.copy()
        after.add_server("extra", 300.0, before.root)
        assert MigrationCostModel().touched_nodes(before, after) == 1

    def test_cost_scales_with_comm_constants(self):
        pool = NodePool.homogeneous(6, 265.0)
        tree = star_deployment(pool)
        slow = ModelParams(bandwidth=10.0)
        fast = ModelParams(bandwidth=1000.0)
        model = MigrationCostModel(restart_seconds=0.0)
        assert model.cost_seconds(None, tree, slow) > model.cost_seconds(
            None, tree, fast
        )


class TestControlLoop:
    def test_determinism_same_seed_identical_timeline(self):
        first = small_loop().run()
        second = small_loop().run()
        assert first == second
        assert first.records == second.records
        # The run is non-trivial: it adapted at least once and served load.
        assert first.redeploys >= 1
        assert first.total_served > 0

    def test_different_seed_may_differ_but_stays_valid(self):
        timeline = small_loop(seed=6).run()
        assert len(timeline.records) == 10
        assert timeline.total_served > 0

    def test_hysteresis_prevents_oscillation_on_plateau(self):
        # A plateau the initial deployment handles: with default
        # hysteresis the controller must settle, not bounce between
        # scale-up and scale-down around the thresholds.
        timeline = small_loop(
            trace=constant(6),
            policy="reactive",
            policy_options=None,  # library defaults: hysteresis=2
            epochs=12,
            initial_fraction=0.6,
        ).run()
        assert timeline.redeploys <= 1
        # After any initial adjustment the controller stays put.
        settled = timeline.records[4:]
        assert all(not record.applied for record in settled)
        # And it never alternates grow/shrink: at most one direction used.
        applied = [r.action for r in timeline.records if r.applied]
        assert len(set(applied)) <= 1

    def test_plateau_under_saturation_settles_too(self):
        # Saturated plateau with spares available: the controller may
        # grow, but must not thrash once the pool is consumed.
        timeline = small_loop(
            trace=constant(25), epochs=12, initial_fraction=0.4
        ).run()
        settled = timeline.records[6:]
        assert all(not record.applied for record in settled)

    def test_cooldown_never_blocks_before_first_redeploy(self):
        # A cooldown longer than the whole run must not inert the
        # controller: cooldown gates on actual redeploys, not on the
        # start-of-run sentinel.
        timeline = small_loop(
            trace=constant(20),
            policy_options={"hysteresis": 1, "cooldown": 50},
            epochs=4,
            initial_fraction=0.4,
        ).run()
        assert all(
            "cooldown" not in record.reason or record.index > 0
            for record in timeline.records
        )
        assert timeline.redeploys >= 1  # the saturated start still scales

    def test_hysteresis_window_never_spans_a_redeploy(self):
        # hysteresis > cooldown + 1 is a valid configuration; the policy
        # must wait for a window measured entirely on the new deployment
        # instead of judging it by stale pre-redeploy rates.
        timeline = small_loop(
            policy_options={"hysteresis": 3, "cooldown": 1}, epochs=12
        ).run()
        applied = [
            i for i, record in enumerate(timeline.records) if record.applied
        ]
        assert applied and applied[0] + 2 < len(timeline.records)
        first = applied[0]
        assert "cooldown" in timeline.records[first + 1].reason
        assert "spans a redeploy" in timeline.records[first + 2].reason
        assert not timeline.records[first + 2].applied

    def test_min_nodes_floor_respected_on_shrink(self):
        timeline = small_loop(
            trace=piecewise([(0.0, 15), (8.0, 1)]),
            min_nodes=5,
            epochs=12,
            initial_fraction=0.6,
        ).run()
        for record in timeline.records:
            assert record.deployed_nodes >= 5
        # The floor actually blocked a shrink (not just never triggered).
        assert any(
            "below min_nodes" in record.reason
            for record in timeline.records
        )

    def test_self_is_not_a_policy_option(self):
        with pytest.raises(ControlError, match="valid options"):
            make_policy("reactive", {"self": "1"})

    def test_defaultless_option_rejects_strings_at_parse_time(self):
        # A required (default-less) option is typed by its annotation:
        # unparseable strings and omissions fail in make_policy, as a
        # ControlError, before any policy is built.
        from dataclasses import dataclass

        from repro.control import PolicyOptions, register_policy
        from repro.control.policy import ControlPolicy, _POLICIES

        @dataclass(frozen=True)
        class ThresholdOptions(PolicyOptions):
            threshold: float

        class ThresholdPolicy(ControlPolicy):
            name = "threshold-test"
            options_type = ThresholdOptions

            def __init__(self, threshold):
                self.threshold = threshold

            def decide(self, ctx):
                return ControlDecision.hold()

        register_policy(ThresholdPolicy)
        try:
            with pytest.raises(ControlError, match="cannot parse"):
                make_policy("threshold-test", {"threshold": "high"})
            with pytest.raises(ControlError, match="missing required"):
                make_policy("threshold-test")
            assert make_policy(
                "threshold-test", {"threshold": "0.5"}
            ).threshold == 0.5
            # Pre-typed values still pass straight through.
            assert make_policy(
                "threshold-test", {"threshold": 0.5}
            ).threshold == 0.5
        finally:
            del _POLICIES["threshold-test"]

    def test_redeploy_epoch_records_pre_act_deployment(self):
        # Every record describes the deployment that served the epoch;
        # an applied redeploy shows its new size from the next row on.
        timeline = small_loop().run()
        applied = [
            i for i, record in enumerate(timeline.records) if record.applied
        ]
        assert applied and applied[0] + 1 < len(timeline.records)
        before = timeline.records[applied[0]]
        after = timeline.records[applied[0] + 1]
        assert before.deployed_nodes != after.deployed_nodes

    def test_node_accounting_invariant(self):
        timeline = small_loop().run()
        for record in timeline.records:
            assert record.deployed_nodes + record.spares == 10
            assert record.deployed_nodes >= 2

    def test_offered_follows_trace(self):
        trace = piecewise([(0.0, 3), (10.0, 8)])
        timeline = small_loop(
            trace=trace, policy="hold", policy_options=None,
            epochs=8, epoch_duration=2.5,
        ).run()
        for record in timeline.records:
            assert record.offered == trace.level(record.start)

    def test_demand_blind_planner_cannot_invert_a_shrink(self):
        # A shrink decision carries a demand cap; a planner without
        # CAP_DEMAND (star) would ignore it and plan the full pool —
        # a scale-up, the opposite of the decision.  The loop must
        # refuse instead.
        timeline = small_loop(
            trace=piecewise([(0.0, 18), (8.0, 2)]),
            base_method="star",
            epochs=12,
            initial_fraction=0.6,
        ).run()
        nodes_by_epoch = [r.deployed_nodes for r in timeline.records]
        # Replans may grow (demand=None scale-ups are legitimate) but a
        # demand-capped shrink must never be realized as growth.
        for record in timeline.records:
            if "ignores demand caps" in record.reason:
                assert record.action == "replan"
                assert not record.applied
        assert nodes_by_epoch[-1] >= min(nodes_by_epoch)
        shrink_refusals = [
            r for r in timeline.records if "ignores demand caps" in r.reason
        ]
        assert shrink_refusals  # the guard actually fired on this trace

    def test_hold_policy_never_redeploys(self):
        timeline = small_loop(policy="hold", policy_options=None).run()
        assert timeline.redeploys == 0
        assert all(record.action == "hold" for record in timeline.records)

    def test_served_totals_consistent(self):
        timeline = small_loop().run()
        assert timeline.served_in_epochs <= timeline.total_served
        assert timeline.mean_served_rate > 0.0
        assert timeline.migration_downtime >= 0.0

    def test_describe_mentions_policy_and_redeploys(self):
        timeline = small_loop().run()
        text = timeline.describe()
        assert "reactive" in text
        assert "redeploys" in text

    def test_session_control_run(self):
        session = PlanningSession()
        timeline = session.control_run(
            NodePool.uniform_random(8, low=80, high=400, seed=2),
            WORK,
            trace=constant(4),
            policy="hold",
            epochs=3,
            epoch_duration=2.0,
        )
        assert len(timeline.records) == 3
        assert timeline.policy == "hold"

    def test_validation_errors(self):
        pool = NodePool.uniform_random(8, low=80, high=400, seed=2)
        with pytest.raises(ControlError):
            small_loop(pool=NodePool.homogeneous(1, 265.0))
        with pytest.raises(ControlError):
            small_loop(trace="flash")  # not a Trace
        with pytest.raises(ControlError):
            small_loop(pool=pool, epochs=0)
        with pytest.raises(ControlError):
            small_loop(pool=pool, epoch_duration=0.0)
        with pytest.raises(ControlError):
            small_loop(pool=pool, initial_fraction=1.5)
        with pytest.raises(ControlError):
            small_loop(pool=pool, think_time=-0.1)

    def test_demand_unit_not_inflated_by_drain(self):
        # Stopping clients leaves their in-flight requests draining into
        # the next window, whose `offered` no longer counts them; those
        # windows must not ratchet up the demand-unit estimate.
        shared = dict(
            policy="hold", policy_options=None, epochs=6, epoch_duration=2.0
        )
        # Reference: 2 unsaturated clients measure the true per-client
        # rate with no population changes anywhere.
        reference = small_loop(trace=constant(2), **shared)
        reference.run()
        dropping = small_loop(
            trace=piecewise([(0.0, 20), (8.0, 2)]), **shared
        )
        dropping.run()
        # The drop run's estimate comes from its clean 2-client windows;
        # had the drain window calibrated, 18 stopped clients' in-flight
        # completions would push it well above the true rate.
        assert (
            dropping.demand_unit_estimate
            <= reference.demand_unit_estimate * 1.05
        )
        assert dropping.demand_unit_estimate > 0.0

    def test_demand_unit_survives_multi_epoch_drain(self):
        # A 20 -> 2 collapse with short epochs: the drain outlasts the
        # drop epoch, so a one-epoch skip is not enough — calibration
        # must wait until every stopped client has gone quiet.
        shared = dict(
            policy="hold", policy_options=None, epochs=10,
            epoch_duration=0.5, initial_fraction=1.0,
        )
        reference = small_loop(trace=constant(2), **shared)
        reference.run()
        collapsing = small_loop(
            trace=piecewise([(0.0, 20), (0.5, 2)]), **shared
        )
        collapsing.run()
        assert (
            collapsing.demand_unit_estimate
            <= reference.demand_unit_estimate * 1.05
        )

    def test_lazy_control_exports(self):
        import repro

        assert repro.ControlLoop is ControlLoop
        with pytest.raises(AttributeError):
            repro.NotAThing

    def test_overhead_telemetry_present_but_not_in_timeline(self):
        loop = small_loop()
        timeline = loop.run()
        assert loop.overhead_seconds > 0.0
        # Wall-clock must never leak into the deterministic timeline.
        assert not hasattr(timeline, "overhead_seconds")


class TestAutoscalingExampleClaims:
    """The examples/autoscaling.py headline numbers, kept honest."""

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

    def test_reactive_recovers_oracle_with_fewer_redeploys(self):
        timelines = self._example().run_policies(
            verbose=False, policies=("reactive", "oracle")
        )
        reactive = timelines["reactive"]
        oracle = timelines["oracle"]
        assert reactive.total_served >= 0.85 * oracle.total_served
        assert reactive.redeploys < oracle.redeploys

    def test_live_migration_beats_restart_on_served_and_downtime(self):
        # Identical seed/trace/policy; only the migration mechanism
        # differs.  Live must serve strictly more with strictly less
        # downtime, and both timelines must itemize downtime per step.
        modes = self._example().run_migration_modes(verbose=False)
        live, restart = modes["live"], modes["restart"]
        assert live.migration == "live"
        assert restart.migration == "restart"
        assert live.redeploys >= 1 and restart.redeploys >= 1
        assert live.total_served > restart.total_served
        assert live.migration_downtime < restart.migration_downtime
        for timeline in (live, restart):
            for record in timeline.records:
                if record.applied:
                    assert record.migration_steps
                    assert record.migration_seconds == pytest.approx(
                        sum(s.downtime for s in record.migration_steps)
                    )
        # Restart itemizes whole-platform outages; live itemizes
        # per-subtree drains and drain-free growth.
        restart_ops = {
            s.op
            for r in restart.records
            for s in r.migration_steps
        }
        live_ops = {
            s.op for r in live.records for s in r.migration_steps
        }
        assert restart_ops == {"restart"}
        assert live_ops <= {"drain", "grow"} and live_ops


class TestTraceRecorderRoundTrip:
    """The sim/trace.py recorder across a multi-epoch controller run."""

    def test_records_survive_redeploys(self):
        recorder = TraceRecorder()
        timeline = small_loop(recorder=recorder).run()
        assert timeline.redeploys >= 1
        assert len(recorder) > 0
        # The first redeploy happened mid-run; records must span it.
        first_apply = next(
            record for record in timeline.records if record.applied
        )
        times = [record.time for record in recorder]
        assert min(times) < first_apply.end <= max(times)
        # Nodes deployed only after the redeploy (spares consumed by the
        # improve step) appear in the trace: the recorder followed the
        # platform across generations.
        nodes_seen = {record.node for record in recorder}
        assert len(nodes_seen) > 4
        kinds = {record.kind for record in recorder}
        assert {"msg_recv", "compute"} <= kinds

    def test_recorder_queries_round_trip(self):
        recorder = TraceRecorder()
        small_loop(recorder=recorder, epochs=4).run()
        by_kind = recorder.by_kind("compute")
        assert by_kind and all(r.kind == "compute" for r in by_kind)
        some_node = by_kind[0].node
        assert all(
            r.node == some_node for r in recorder.by_node(some_node)
        )
        some_request = next(
            r.request_id for r in recorder if r.request_id is not None
        )
        per_request = recorder.for_request(some_request)
        assert per_request
        assert [r.time for r in per_request] == sorted(
            r.time for r in per_request
        )

    def test_detached_recorder_is_zero_cost_and_zero_effect(self):
        # Recording must not perturb the simulation: the timeline with a
        # recorder attached is bit-identical to the one without.
        with_recorder = small_loop(recorder=TraceRecorder()).run()
        without = small_loop().run()
        assert with_recorder == without
