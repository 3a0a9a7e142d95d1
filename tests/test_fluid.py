"""Fluid/hybrid population battery.

Covers the three contracts the hybrid model ships with:

* **integration** — :class:`repro.sim.fluid.FluidPopulation` integrates
  ``min(level * unit_rate, capacity)`` exactly for step levels, and its
  floor-carry attribution never drops or double-counts a completion no
  matter how the run is windowed;
* **equivalence and agreement** — a :class:`HybridTrace` whose cohort
  covers the peak level *is* the all-discrete run (exact equality), and
  at small scale a genuinely split hybrid run's served-rate curve stays
  within tolerance of the all-discrete simulation across seeds, traces
  and policies (hypothesis);
* **determinism** — same-seed hybrid timelines are bit-identical with
  tracing on or off, and between serial and process-pool
  ``control_sweep`` execution;
* **merging** — :func:`repro.control.monitor.merge_fluid` folds the
  fluid window into the cohort observation over the *union* of both
  server sets, so a server spliced in mid-epoch keeps its fluid share.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.report import render_timeline
from repro.api import PlanningSession
from repro.control import ControlLoop, HybridTrace, from_spec
from repro.control.monitor import WindowObservation, merge_fluid
from repro.errors import ControlError, SimulationError
from repro.platforms.pool import NodePool
from repro.sim.fluid import FluidPopulation
from repro.units import dgemm_mflop

WORK = dgemm_mflop(200)
POOL = NodePool.uniform_random(8, low=80, high=400, seed=7)
LOOP_KW = dict(
    epochs=6,
    epoch_duration=2.0,
    initial_fraction=0.5,
    seed=0,
)


def run_loop(trace, policy="reactive", **overrides):
    kwargs = {**LOOP_KW, **overrides}
    policy_options = (
        {"hysteresis": 1, "cooldown": 1} if policy == "reactive" else None
    )
    loop = ControlLoop(
        POOL, WORK, trace, policy=policy,
        policy_options=policy_options, **kwargs,
    )
    return loop.run()


# ---------------------------------------------------------------------- #
# integration


class TestFluidPopulation:
    def test_constant_level_integrates_exactly(self):
        fluid = FluidPopulation()
        window = fluid.advance(0.0, 4.0, lambda t: 10.0, 0.5, 100.0)
        assert window.served_mass == pytest.approx(20.0)
        assert window.served == 20
        assert window.offered_mean == pytest.approx(10.0)
        assert window.served_rate == pytest.approx(5.0)
        assert window.demand_rate == pytest.approx(5.0)
        assert window.utilization == 1.0

    def test_capacity_caps_served_not_demand(self):
        fluid = FluidPopulation()
        window = fluid.advance(0.0, 2.0, lambda t: 100.0, 1.0, 30.0)
        assert window.served_rate == pytest.approx(30.0)
        assert window.demand_rate == pytest.approx(100.0)
        assert window.utilization == pytest.approx(0.3)

    def test_floor_carry_conserves_mass_across_windows(self):
        # 0.3 completions per window: integers must trickle out as the
        # cumulative mass crosses whole numbers, never drift.
        fluid = FluidPopulation(substeps=4)
        windows = [
            fluid.advance(i * 1.0, (i + 1) * 1.0, lambda t: 0.6, 0.5, 10.0)
            for i in range(10)
        ]
        served = [window.served for window in windows]
        # One-second windows: each served_rate is its window's mass.
        mass = sum(window.served_rate for window in windows)
        assert sum(served) == math.floor(mass)
        assert fluid.total_served == sum(served)
        assert mass == pytest.approx(3.0)

    def test_time_varying_level_uses_substeps(self):
        # Level steps from 0 to 8 halfway through the window: left-endpoint
        # sampling at 8 substeps integrates exactly half the full mass.
        fluid = FluidPopulation(substeps=8)
        window = fluid.advance(
            0.0, 4.0, lambda t: 8.0 if t >= 2.0 else 0.0, 1.0, 100.0
        )
        assert window.served_mass == pytest.approx(16.0)
        assert window.offered_mean == pytest.approx(4.0)

    def test_negative_inputs_clamp_to_zero(self):
        fluid = FluidPopulation()
        window = fluid.advance(0.0, 1.0, lambda t: -5.0, -1.0, -2.0)
        assert window.served_mass == 0.0
        assert window.served == 0

    def test_validation(self):
        with pytest.raises(SimulationError, match="substeps"):
            FluidPopulation(substeps=0)
        with pytest.raises(SimulationError, match="bad fluid window"):
            FluidPopulation().advance(2.0, 2.0, lambda t: 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------- #
# trace grammar


class TestHybridTrace:
    def test_partition_recombines_to_total(self):
        trace = HybridTrace(
            from_spec("diurnal:base=4,peak=40,period=32"),
            population=7.5, cohort=20,
        )
        for t in [0.0, 3.7, 8.0, 15.9, 31.0, 64.2]:
            assert (
                trace.cohort_level(t) + trace.fluid_level(t)
                == trace.level(t)
            )
            assert trace.cohort_level(t) <= 20
            assert trace.fluid_level(t) >= 0.0

    def test_population_multiplies_base(self):
        base = from_spec("constant:level=6")
        trace = HybridTrace(from_spec("constant:level=6"), population=1000.0)
        assert trace.level(0.0) == 1000 * base.level(0.0)

    def test_is_a_trace(self):
        trace = HybridTrace(from_spec("constant:level=5"), cohort=2)
        assert isinstance(trace, HybridTrace)
        assert trace.peak(0.0, 10.0) == 5  # Trace API works unchanged

    def test_validation(self):
        base = from_spec("constant:level=5")
        with pytest.raises(ControlError, match="population"):
            HybridTrace(base, population=0.0)
        with pytest.raises(ControlError, match="cohort"):
            HybridTrace(base, cohort=0)
        with pytest.raises(ControlError, match="must be a Trace"):
            HybridTrace("constant:level=5")

    def test_from_spec_round_trips_exactly(self):
        spec = "diurnal:base=4,peak=10,period=160,population=100000,cohort=24"
        trace = from_spec(spec)
        assert isinstance(trace, HybridTrace)
        assert trace.name == spec
        rebuilt = from_spec(trace.name)
        assert rebuilt.name == spec
        assert rebuilt.population == trace.population == 100000.0
        assert rebuilt.cohort == trace.cohort == 24
        for t in (0.0, 13.0, 80.0, 159.0):
            assert rebuilt.level(t) == trace.level(t)
            assert rebuilt.fluid_level(t) == trace.fluid_level(t)

    def test_spec_keys_are_grammar_wide(self):
        # population/cohort ride along on every keyed spec form.
        piecewise = from_spec(
            "piecewise:steps=0/4|10/40,population=100,cohort=8"
        )
        assert isinstance(piecewise, HybridTrace)
        assert piecewise.level(10.0) == 4000
        assert piecewise.cohort == 8
        fixture = from_spec(
            "fixture:name=black_friday,scale=1.5,population=10"
        )
        assert isinstance(fixture, HybridTrace)
        assert fixture.cohort == 16  # default cohort
        assert from_spec(fixture.name).level(20.0) == fixture.level(20.0)
        cohort_only = from_spec("constant:level=30,cohort=4")
        assert isinstance(cohort_only, HybridTrace)
        assert cohort_only.population == 1.0
        assert cohort_only.cohort_level(0.0) == 4
        assert cohort_only.fluid_level(0.0) == 26.0

    def test_spec_errors(self):
        with pytest.raises(ControlError, match="population"):
            from_spec("constant:level=5,population=0")
        with pytest.raises(ControlError, match="population"):
            from_spec("constant:level=5,population=lots")
        with pytest.raises(ControlError, match="cohort"):
            from_spec("constant:level=5,cohort=0")
        with pytest.raises(ControlError, match="cohort"):
            from_spec("constant:level=5,cohort=2.5")

    def test_plain_specs_stay_plain(self):
        assert not isinstance(from_spec("constant:level=5"), HybridTrace)
        assert not isinstance(from_spec("wikipedia_flash"), HybridTrace)


# ---------------------------------------------------------------------- #
# equivalence and agreement


def structural(timeline):
    """The policy-visible skeleton of a timeline, split bookkeeping aside."""
    return [
        (r.served, r.served_rate, r.offered, r.action, r.applied,
         r.capacity, r.deployed_nodes, r.busiest_utilization)
        for r in timeline.records
    ]


class TestHybridEquivalence:
    def test_cohort_covering_peak_is_the_discrete_run(self):
        spec = "flash:base=3,peak=10,at=4,rise=2,fall=4"
        discrete = run_loop(from_spec(spec))
        covered = run_loop(HybridTrace(from_spec(spec), cohort=64))
        assert structural(covered) == structural(discrete)
        assert covered.total_served == discrete.total_served
        assert all(r.fluid_clients == 0.0 for r in covered.records)

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        spec=st.sampled_from(
            [
                "flash:base=3,peak=12,at=4,rise=2,fall=4",
                "diurnal:base=4,peak=12,period=24",
                "constant:level=10",
            ]
        ),
        policy=st.sampled_from(["reactive", "hold"]),
    )
    def test_fluid_agrees_with_discrete_at_small_scale(
        self, seed, spec, policy
    ):
        discrete = run_loop(from_spec(spec), policy=policy, seed=seed)
        split = run_loop(
            from_spec(spec + ",cohort=4"), policy=policy, seed=seed
        )
        reference = discrete.mean_served_rate
        assert split.mean_served_rate == pytest.approx(
            reference, rel=0.35, abs=2.0
        )
        # The hybrid run must actually have carried fluid mass.
        assert any(r.fluid_clients > 0.0 for r in split.records)


# ---------------------------------------------------------------------- #
# determinism


class TestHybridDeterminism:
    SPEC = "diurnal:base=4,peak=12,period=24,population=1000,cohort=4"

    def test_same_seed_same_timeline(self):
        assert run_loop(from_spec(self.SPEC)) == run_loop(
            from_spec(self.SPEC)
        )

    def test_tracing_does_not_change_the_timeline(self):
        untraced = run_loop(from_spec(self.SPEC))
        traced = run_loop(from_spec(self.SPEC), obs=True)
        assert traced == untraced

    def test_sweep_serial_matches_process_pool(self):
        session = PlanningSession()
        grid = dict(
            traces=(self.SPEC,),
            policies=("reactive",),
            seeds=(0, 1),
            policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
            epochs=5,
            epoch_duration=2.0,
        )
        serial = session.control_sweep(
            POOL, WORK, parallel=False, **grid
        )
        pooled = session.control_sweep(
            POOL, WORK, parallel=True, max_workers=2, **grid
        )
        assert [c.timeline for c in serial] == [c.timeline for c in pooled]

    def test_metrics_carry_the_fluid_split(self):
        timeline = run_loop(from_spec(self.SPEC))
        last = timeline.records[-1]
        assert last.fluid_clients > 0.0
        assert last.cohort_clients == 4
        assert last.metrics.value("fluid_clients") == last.fluid_clients
        assert last.metrics.value("cohort_clients") == 4
        totals = [
            r.metrics.value("fluid_served_total") for r in timeline.records
        ]
        assert totals == sorted(totals)  # cumulative counter
        assert totals[-1] > 0
        # All-discrete runs keep the keys (uniform snapshots), zeroed.
        plain = run_loop(from_spec("constant:level=6"), epochs=2)
        assert plain.records[-1].metrics.value("fluid_clients") == 0.0
        assert plain.records[-1].metrics.value("fluid_served_total") == 0

    def test_render_timeline_population_column(self):
        split = render_timeline(run_loop(from_spec(self.SPEC), epochs=2))
        assert "pop(c+f)" in split
        assert "4+" in split
        plain = render_timeline(
            run_loop(from_spec("constant:level=6"), epochs=2)
        )
        assert "pop(c+f)" in plain


# ---------------------------------------------------------------------- #
# merging


class TestMergeFluid:
    def observation(self, server_rates):
        return WindowObservation(
            index=0,
            start=0.0,
            end=2.0,
            offered=4,
            served=10,
            served_rate=5.0,
            agent_utilization=0.5,
            server_utilization=0.4,
            busiest_node="s1",
            busiest_utilization=0.5,
            queue_depth=0,
            server_rates=server_rates,
        )

    def test_merge_covers_union_of_server_sets(self):
        """Regression: a server that joined the deployment between the
        observe snapshot and ``assign_fluid_rates`` (mid-epoch repair
        splice) appears in the fluid allocation but not in the
        observation; its share must survive the merge instead of being
        silently dropped."""
        observation = self.observation((("s1", 3.0), ("s2", 2.0)))
        window = SimpleNamespace(
            served_rate=4.0, demand_rate=4.0, served=8, offered_mean=100.0
        )
        allocation = (("s1", 1.5), ("s3", 2.5))  # s3: spliced mid-epoch
        merged = merge_fluid(
            observation, window, offered=104, allocation=allocation,
            capacity=10.0,
        )
        assert merged.server_rates == (
            ("s1", 4.5), ("s2", 2.0), ("s3", 2.5)
        )
        # Nothing lost in either direction: totals are the exact sum.
        assert math.isclose(
            sum(rate for _, rate in merged.server_rates),
            sum(rate for _, rate in observation.server_rates)
            + sum(share for _, share in allocation),
        )
        assert merged.offered == 104
        assert merged.served == 18
        assert merged.cohort == 4
        assert merged.fluid_clients == 100.0

    def test_merge_is_name_sorted_and_deterministic(self):
        observation = self.observation((("s2", 2.0), ("s9", 1.0)))
        window = SimpleNamespace(
            served_rate=1.0, demand_rate=1.0, served=2, offered_mean=5.0
        )
        allocation = (("s1", 0.5), ("s2", 0.25))
        merged = merge_fluid(
            observation, window, offered=9, allocation=allocation,
            capacity=4.0,
        )
        assert merged.server_rates == (
            ("s1", 0.5), ("s2", 2.25), ("s9", 1.0)
        )
        assert [name for name, _ in merged.server_rates] == sorted(
            name for name, _ in merged.server_rates
        )
