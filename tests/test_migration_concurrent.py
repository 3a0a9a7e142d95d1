"""Concurrent region migration: the schedule-equivalence test battery.

The contract under test, layer by layer:

* **Plan layer** — for any pair of valid deployments,
  :meth:`MigrationPlan.concurrent_schedule` groups the plan's regions
  into dependency waves such that (a) applying the waves in order, with
  the regions *inside* a wave applied in any order, yields a tree
  identical to the serial :meth:`MigrationPlan.apply`; (b) regions
  claimed concurrent (same wave) never overlap in nodes; and (c) every
  region's ``depends_on`` providers sit in strictly earlier waves.
  Exercised over hypothesis-driven planner pairs, improve chains and
  random mutation walks.
* **Middleware layer** — a live system can hold every region of a wave
  unlinked at once (disjointness enforced), and wave-order surgery
  leaves it wired identically to a fresh build of the target.
* **Control layer** — ``ControlLoop(migration="concurrent")`` is
  bit-deterministic (same seed ⇒ identical timeline, in process and
  across ``control_sweep`` process pools), and on the ``black_friday``
  fixture beats serial live migration on the total migration window
  without serving less per measured second — with both modes ending on
  the same deployment tree.
* **Pricing layer** — :meth:`MigrationCostModel.plan_window_seconds`
  prices the dependency-wave schedule at or below the one-region-per-wave
  (serial) window, and strictly below whenever a wave holds two or more
  regions.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlanningSession
from repro.control import ControlLoop, MigrationCostModel, constant, fixture
from repro.control.monitor import WindowObservation
from repro.control.policy import (
    ControlContext,
    PredictivePolicy,
    ReactivePolicy,
)
from repro.core.hierarchy import Hierarchy
from repro.core.params import DEFAULT_PARAMS
from repro.core.throughput import hierarchy_throughput
from repro.deploy.migration import (
    apply_steps,
    hierarchies_equal,
    plan_migration,
)
from repro.errors import DeploymentError
from repro.extensions.redeploy import improve_deployment
from repro.middleware.client import ClosedLoopClient
from repro.middleware.system import MiddlewareSystem
from repro.platforms.pool import NodePool
from repro.sim.engine import Simulator
from repro.units import dgemm_mflop
from test_migration import WORK, planned, random_valid_mutation

import pytest


# --------------------------------------------------------------------- #
# schedule equivalence core


def assert_schedule_equivalent(old, new):
    """The battery's oracle: waves replay to the serial apply result."""
    plan = plan_migration(old, new)
    serial = plan.apply(old)
    waves = plan.concurrent_schedule()

    # (c) the schedule respects the dependency order: every provider
    # lives in a strictly earlier wave, and the flattened schedule is a
    # permutation of the plan's regions.
    wave_of = {
        region.root: index
        for index, wave in enumerate(waves)
        for region in wave
    }
    assert len(wave_of) == len(plan.regions)
    assert sorted(map(str, wave_of)) == sorted(
        str(region.root) for region in plan.regions
    )
    for wave_index, wave in enumerate(waves):
        for region in wave:
            for provider in region.depends_on:
                assert wave_of[provider] < wave_index, (
                    f"region {region.root} in wave {wave_index} depends "
                    f"on {provider} in wave {wave_of[provider]}"
                )

    # (b) regions claimed concurrent never overlap in nodes.  (Region
    # membership is globally disjoint by construction, so assert the
    # stronger global property — wave-mates are the special case the
    # runtime relies on.)
    seen: dict[str, object] = {}
    for region in plan.regions:
        for member in region.members:
            assert member not in seen, (
                f"node {member} owned by regions {seen[member]} "
                f"and {region.root}"
            )
            seen[member] = region.root

    # (a) wave replay, regions permuted inside each wave, is
    # tree-identical to the serial apply (and hence to the target for
    # incremental plans).
    orders = [
        lambda wave: list(wave),
        lambda wave: list(reversed(wave)),
        lambda wave: random.Random(1234 + len(wave)).sample(
            list(wave), len(wave)
        ),
    ]
    for order in orders:
        if plan.kind == "cold":
            tree = Hierarchy()
        else:
            tree = old.copy()
        for wave in waves:
            for region in order(wave):
                apply_steps(tree, region.steps)
        assert hierarchies_equal(tree, serial), (
            f"wave replay diverged from serial apply\n{plan.describe()}"
        )
    if plan.is_live:
        assert hierarchies_equal(serial, new)
    return plan


class TestScheduleEquivalenceProperties:
    """Hypothesis battery over random hierarchy pairs."""

    @given(
        size=st.integers(min_value=8, max_value=14),
        pool_seed=st.integers(min_value=0, max_value=40),
        keep=st.integers(min_value=6, max_value=14),
        demand_old=st.sampled_from([None, 30.0, 60.0, 120.0, 240.0]),
        demand_new=st.sampled_from([None, 30.0, 60.0, 120.0, 240.0]),
    )
    @settings(max_examples=40, deadline=None)
    def test_planner_pairs(self, size, pool_seed, keep, demand_old, demand_new):
        pool = NodePool.uniform_random(size, low=60, high=400, seed=pool_seed)
        old = planned(pool, demand=demand_old)
        new = planned(pool.take(min(size, keep)), demand=demand_new)
        assert_schedule_equivalent(old, new)
        assert_schedule_equivalent(new, old)

    @given(walk_seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_mutation_walks(self, walk_seed):
        rng = random.Random(walk_seed)
        pool = NodePool.uniform_random(12, low=80, high=400, seed=5)
        current = planned(pool)
        for _ in range(6):
            mutated = random_valid_mutation(current, rng)
            assert_schedule_equivalent(current, mutated)
            assert_schedule_equivalent(mutated, current)
            current = mutated

    def test_improve_chain(self):
        pool = NodePool.uniform_random(16, low=80, high=400, seed=7)
        base = planned(pool.take(6), seed=3)
        deployed = {str(node) for node in base}
        spares = [node for node in pool if node.name not in deployed]
        improved = improve_deployment(
            base, spares, DEFAULT_PARAMS, WORK
        ).hierarchy
        assert_schedule_equivalent(base, improved)
        assert_schedule_equivalent(improved, base)

    def test_long_random_walk(self):
        rng = random.Random(42)
        pool = NodePool.uniform_random(12, low=80, high=400, seed=5)
        current = planned(pool)
        for _ in range(30):
            mutated = random_valid_mutation(current, rng)
            assert_schedule_equivalent(current, mutated)
            current = mutated

    def test_noop_plan_has_empty_schedule(self):
        pool = NodePool.homogeneous(6, 265.0)
        tree = planned(pool)
        plan = plan_migration(tree, tree.copy())
        assert plan.concurrent_schedule() == ()

    def test_restart_plan_is_one_single_region_wave(self):
        pool = NodePool.homogeneous(6, 265.0)
        old = planned(pool)
        new = old.copy()
        server = new.servers[0]
        parent = new.parent(server)
        new.remove_leaf(server)
        new.add_server(server, 999.0, parent)
        plan = plan_migration(old, new)
        assert plan.kind == "restart"
        waves = plan.concurrent_schedule()
        assert len(waves) == 1 and len(waves[0]) == 1
        assert_schedule_equivalent(old, new)

    def test_growth_provider_forces_a_later_wave(self):
        # A drained region moving a subtree under a freshly grown agent
        # must wait for the growth wave: the "+" region is a provider.
        old = Hierarchy()
        old.set_root("r", 300.0)
        old.add_agent("A", 250.0, "r")
        old.add_server("s1", 200.0, "A")
        old.add_server("s2", 190.0, "A")
        old.add_server("s3", 180.0, "r")
        old.validate(strict=True)
        new = Hierarchy()
        new.set_root("r", 300.0)
        new.add_agent("B", 260.0, "r")  # grown under the untouched root
        new.add_agent("A", 250.0, "B")  # moved under the new agent
        new.add_server("s1", 200.0, "A")
        new.add_server("s2", 190.0, "A")
        new.add_server("s3", 180.0, "B")
        new.validate(strict=True)
        plan = assert_schedule_equivalent(old, new)
        assert plan.is_live
        growth = [r for r in plan.regions if r.root == "+"]
        assert growth, "expected a drain-free growth region"
        dependent = [r for r in plan.regions if "+" in r.depends_on]
        assert dependent, "expected a region depending on the growth wave"
        waves = plan.concurrent_schedule()
        assert any(r.root == "+" for r in waves[0])
        assert all(r.root != "+" for wave in waves[1:] for r in wave)


# --------------------------------------------------------------------- #
# middleware layer


class TestConcurrentSurgery:
    @staticmethod
    def _wiring(system):
        return {
            name: [child.name for child in agent.children]
            for name, agent in system.agents.items()
        }

    def test_wave_surgery_matches_fresh_build(self):
        pool = NodePool.uniform_random(14, low=80, high=400, seed=11)
        old = planned(pool)
        new = planned(pool, demand=60.0)
        plan = plan_migration(old, new)
        assert plan.is_live and len(plan.regions) >= 1

        sim = Simulator()
        system = MiddlewareSystem(sim, old, DEFAULT_PARAMS, WORK, seed=1)
        clients = [
            ClosedLoopClient(system, f"c{i:02d}") for i in range(3)
        ]
        for client in clients:
            client.start()
        sim.run_until(5.0)

        for wave in plan.concurrent_schedule():
            regions = [
                (region, tuple(str(n) for n in region.drained))
                for region in wave
            ]
            # Every drained region of the wave goes dark at once.
            for region, drained in regions:
                if drained:
                    system.unlink(str(region.root), drained)
            sim.run_until_condition(
                sim.now + 0.25,
                lambda: not any(
                    system.region_busy(drained)
                    for _, drained in regions
                    if drained
                ),
            )
            # Regions of one wave commute: apply them in reverse order.
            for region, drained in reversed(regions):
                system.apply_migration(region.steps)
                if drained and region.root in new:
                    parent = new.parent(region.root)
                    if parent is not None:
                        system.ensure_linked(str(region.root), str(parent))
        system.complete_migration(new)
        for client in clients:
            client.stop()
        sim.run()

        fresh = MiddlewareSystem(Simulator(), new, DEFAULT_PARAMS, WORK)
        assert self._wiring(system) == self._wiring(fresh)
        assert hierarchies_equal(system.hierarchy, new)

    def test_multiple_disjoint_subtrees_dark_at_once(self):
        tree = Hierarchy()
        tree.set_root("r", 300.0)
        for name in ("A", "B"):
            tree.add_agent(name, 250.0, "r")
        tree.add_server("a1", 200.0, "A")
        tree.add_server("a2", 195.0, "A")
        tree.add_server("b1", 190.0, "B")
        tree.add_server("b2", 185.0, "B")
        tree.validate(strict=True)
        system = MiddlewareSystem(Simulator(), tree, DEFAULT_PARAMS, WORK)
        system.unlink("A")
        system.unlink("B")
        # Each registration holds its whole subtree dark.
        for member, root in (("a2", "A"), ("b1", "B")):
            with pytest.raises(DeploymentError, match=f"subtree '{root}'"):
                system.unlink(member)
        # Both predicates see their own (now idle) region as quiet.
        assert not system.region_busy_predicate(("A", "a1", "a2"))()
        assert not system.region_busy_predicate(("B", "b1", "b2"))()

    def test_overlapping_unlink_is_rejected(self):
        tree = Hierarchy()
        tree.set_root("r", 300.0)
        tree.add_agent("A", 250.0, "r")
        tree.add_agent("B", 240.0, "A")
        tree.add_server("s1", 200.0, "B")
        tree.add_server("s2", 190.0, "B")
        tree.add_server("s3", 180.0, "A")
        tree.validate(strict=True)
        system = MiddlewareSystem(Simulator(), tree, DEFAULT_PARAMS, WORK)
        system.unlink("A")  # members include B's whole subtree
        with pytest.raises(DeploymentError, match="disjoint"):
            system.unlink("B")
        with pytest.raises(DeploymentError, match="already dark"):
            system.unlink("A")
        # Relinking clears the registration; the subtree can drain again.
        system.ensure_linked("A", "r")
        system.unlink("B")


# --------------------------------------------------------------------- #
# pricing layer


def serial_waves(plan):
    """One region per wave: the schedule ``migration="live"`` runs."""
    return tuple((region,) for region in plan.regions)


class TestConcurrentPricing:
    def test_concurrent_window_never_exceeds_serial(self):
        model = MigrationCostModel()
        pool = NodePool.uniform_random(14, low=80, high=400, seed=3)
        trees = [planned(pool)] + [
            planned(pool, demand=d) for d in (30.0, 60.0, 120.0)
        ]
        for old in trees:
            for new in trees:
                plan = plan_migration(old, new)
                if plan.is_noop:
                    continue
                serial = model.plan_window_seconds(
                    plan, DEFAULT_PARAMS, serial_waves(plan)
                )
                concurrent = model.plan_window_seconds(
                    plan, DEFAULT_PARAMS, plan.concurrent_schedule()
                )
                assert concurrent <= serial + 1e-12
                widest = max(
                    len(wave) for wave in plan.concurrent_schedule()
                )
                if plan.is_live and widest >= 2:
                    assert concurrent < serial

    def test_one_region_waves_price_the_serial_window_exactly(self):
        # A single-region wave's drain share is 1.0, so pricing the
        # serial schedule as waves is bit-identical to summing region
        # windows back to back.
        model = MigrationCostModel()
        pool = NodePool.uniform_random(14, low=80, high=400, seed=3)
        old, new = planned(pool), planned(pool, demand=60.0)
        plan = plan_migration(old, new)
        assert plan.is_live and len(plan.regions) >= 2
        assert model.plan_window_seconds(
            plan, DEFAULT_PARAMS, serial_waves(plan)
        ) == sum(
            model.region_window_seconds(region, DEFAULT_PARAMS)
            for region in plan.regions
        )

    def test_non_live_plans_price_one_restart_window(self):
        model = MigrationCostModel()
        pool = NodePool.homogeneous(6, 265.0)
        old = planned(pool)
        new = old.copy()
        server = new.servers[0]
        parent = new.parent(server)
        new.remove_leaf(server)
        new.add_server(server, 999.0, parent)
        plan = plan_migration(old, new)
        assert not plan.is_live
        serial = model.plan_window_seconds(
            plan, DEFAULT_PARAMS, serial_waves(plan)
        )
        concurrent = model.plan_window_seconds(
            plan, DEFAULT_PARAMS, plan.concurrent_schedule()
        )
        assert serial == concurrent
        assert serial == pytest.approx(
            model.cost_seconds(old, new, DEFAULT_PARAMS)
        )


# --------------------------------------------------------------------- #
# control layer


def concurrent_loop(**overrides):
    options = dict(
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=20,
        epoch_duration=4.0,
        initial_fraction=0.4,
        migration="concurrent",
        seed=3,
    )
    options.update(overrides)
    pool = options.pop(
        "pool", NodePool.uniform_random(16, low=80, high=400, seed=7)
    )
    trace = options.pop("trace", fixture("black_friday"))
    return ControlLoop(pool, dgemm_mflop(200), trace, **options)


class TestConcurrentDeterminism:
    def test_same_seed_bit_identical_timelines(self):
        first = concurrent_loop(epochs=12).run()
        second = concurrent_loop(epochs=12).run()
        assert first == second
        assert first.records == second.records
        assert first.redeploys >= 1  # the run actually migrated

    def test_sweep_serial_matches_process_pool(self):
        session = PlanningSession()
        pool = NodePool.uniform_random(12, low=80, high=400, seed=7)
        kwargs = dict(
            traces=("black_friday",),
            policies=("reactive",),
            seeds=(0, 1),
            policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
            epochs=8,
            epoch_duration=3.0,
            initial_fraction=0.4,
            migration="concurrent",
        )
        serial = session.control_sweep(
            pool, dgemm_mflop(200), parallel=False, **kwargs
        )
        pooled = session.control_sweep(
            pool, dgemm_mflop(200), parallel=True, max_workers=2, **kwargs
        )
        assert [cell.label for cell in serial] == [
            cell.label for cell in pooled
        ]
        for a, b in zip(serial, pooled):
            assert a.timeline == b.timeline


class TestConcurrentBeatsSerialLive:
    """The acceptance scenario: black_friday, identical seed/trace/policy."""

    @pytest.fixture(scope="class")
    def runs(self):
        results = {}
        for mode in ("live", "concurrent"):
            loop = concurrent_loop(epochs=20, migration=mode)
            results[mode] = (loop.run(), loop.final_hierarchy)
        return results

    def test_migration_window_strictly_shorter(self, runs):
        live, concurrent = runs["live"][0], runs["concurrent"][0]
        assert live.migration_window > 0.0
        assert concurrent.migration_window < live.migration_window

    def test_served_throughput_no_worse(self, runs):
        live, concurrent = runs["live"][0], runs["concurrent"][0]
        assert concurrent.mean_served_rate >= live.mean_served_rate
        assert concurrent.served_in_epochs >= live.served_in_epochs

    def test_final_trees_identical(self, runs):
        assert hierarchies_equal(runs["live"][1], runs["concurrent"][1])

    def test_step_intervals_overlap_somewhere(self, runs):
        # The schedule is genuinely concurrent: some epoch's itemized
        # steps overlap in simulation time (sum of windows exceeds the
        # epoch's wall window).
        concurrent = runs["concurrent"][0]
        overlapped = [
            record
            for record in concurrent.records
            if len(record.migration_steps) >= 2
            and sum(s.seconds for s in record.migration_steps)
            > record.migration_window + 1e-9
        ]
        assert overlapped
        for record in overlapped:
            starts = {s.started_at for s in record.migration_steps}
            assert len(starts) < len(record.migration_steps)


# --------------------------------------------------------------------- #
# saturation restructuring


def saturated_observation(rate=200.0):
    return WindowObservation(
        index=5,
        start=20.0,
        end=24.0,
        offered=30,
        served=int(rate * 4),
        served_rate=rate,
        agent_utilization=0.99,
        server_utilization=0.97,
        busiest_node="node-00",
        busiest_utilization=1.0,
        queue_depth=64,
    )


def saturated_context(observation, capacity, pool_size, trace):
    return ControlContext(
        observations=(observation, observation),
        capacity=capacity,
        deployed_nodes=pool_size,
        pool_size=pool_size,
        spares=0,
        min_nodes=2,
        epoch_duration=4.0,
        next_start=24.0,
        trace=trace,
        demand_unit=8.0,
        redeploys=1,
        epochs_since_redeploy=5,
    )


class TestSaturationRestructuring:
    def test_reactive_proposes_restructure_at_full_occupancy(self):
        ctx = saturated_context(
            saturated_observation(), capacity=200.0, pool_size=10,
            trace=constant(30),
        )
        decision = ReactivePolicy(hysteresis=1, cooldown=1).decide(ctx)
        assert decision.action == "replan"
        assert decision.demand is None  # capacity-seeking, same nodes
        assert "restructur" in decision.reason

    def test_reactive_restructure_can_be_disabled(self):
        ctx = saturated_context(
            saturated_observation(), capacity=200.0, pool_size=10,
            trace=constant(30),
        )
        decision = ReactivePolicy(
            hysteresis=1, cooldown=1, restructure=False
        ).decide(ctx)
        assert decision.action == "hold"
        assert "pool exhausted" in decision.reason

    def test_predictive_proposes_restructure_at_full_occupancy(self):
        ctx = saturated_context(
            saturated_observation(), capacity=100.0, pool_size=10,
            trace=constant(30),
        )
        decision = PredictivePolicy(window=2, cooldown=1).decide(ctx)
        assert decision.action == "replan"
        assert decision.demand is None
        assert "restructur" in decision.reason

    def _caterpillar_over(self, pool):
        """A deliberately shape-degraded full-pool deployment: the
        strongest nodes burn in a chain of scheduling tiers, each with a
        single weak server beside the next agent — every request pays
        the full chain of hops."""
        ranked = sorted(pool, key=lambda n: -n.power)
        tree = Hierarchy()
        tree.set_root(ranked[0].name, ranked[0].power)
        agents, servers = ranked[1:9], ranked[9:]
        parent, serial = ranked[0].name, 0
        for agent in agents:
            tree.add_agent(agent.name, agent.power, parent)
            tree.add_server(
                servers[serial].name, servers[serial].power, parent
            )
            serial += 1
            parent = agent.name
        for server in servers[serial:]:
            tree.add_server(server.name, server.power, parent)
        tree.validate(strict=True)
        return tree

    def test_restructure_applies_when_shape_is_the_bottleneck(self):
        # A deep caterpillar over a big pool schedules far worse than
        # the planner's tree; the restructure decision must realize into
        # an applied same-nodes replan under concurrent pricing.
        pool = NodePool.uniform_random(40, low=60, high=400, seed=123)
        loop = concurrent_loop(pool=pool, trace=constant(50))
        star = self._caterpillar_over(pool)
        capacity = hierarchy_throughput(
            star, DEFAULT_PARAMS, dgemm_mflop(200)
        ).throughput
        decision = ReactivePolicy(hysteresis=1, cooldown=1).decide(
            saturated_context(
                saturated_observation(rate=capacity),
                capacity=capacity,
                pool_size=len(pool),
                trace=constant(50),
            )
        )
        assert decision.action == "replan" and decision.demand is None
        candidate, reason, cost, rho, plan = loop._realize(
            decision, star, [], capacity, saturated_observation(capacity)
        )
        assert candidate is not None, f"restructure vetoed: {reason}"
        assert rho > capacity
        assert {str(n) for n in candidate} <= {node.name for node in pool}
        assert plan is not None and plan.is_live

    def test_restructure_without_gain_is_a_noop(self):
        # Current tree == the planner's own full-pool plan: the replan
        # keeps the deployment, so the restructure must be a no-op.
        pool = NodePool.uniform_random(10, low=60, high=400, seed=0)
        loop = concurrent_loop(pool=pool, trace=constant(40))
        current = planned(pool, seed=3)
        capacity = hierarchy_throughput(
            current, DEFAULT_PARAMS, dgemm_mflop(200)
        ).throughput
        decision = ReactivePolicy(hysteresis=1, cooldown=1).decide(
            saturated_context(
                saturated_observation(rate=capacity),
                capacity=capacity,
                pool_size=len(pool),
                trace=constant(40),
            )
        )
        candidate, reason, _, _, _ = loop._realize(
            decision, current, [], capacity, saturated_observation(capacity)
        )
        assert candidate is None
        assert "no-op" in reason

    def test_end_to_end_restructure_reasons_surface_in_timeline(self):
        pool = NodePool.uniform_random(10, low=60, high=400, seed=0)
        timeline = concurrent_loop(
            pool=pool, trace=constant(40), epochs=10, epoch_duration=3.0,
            initial_fraction=0.5, seed=0,
        ).run()
        assert any(
            "restructur" in record.reason for record in timeline.records
        )

    def test_rejected_restructure_is_not_replanned_every_epoch(self):
        # A persistently saturated policy proposes the same demand-free
        # replan each epoch; its inputs are run constants, so the loop
        # must pay the planner once, not once per epoch.
        from repro.core.registry import REGISTRY

        class CountingRegistry:
            def __init__(self, inner):
                self.inner = inner
                self.plans = 0

            def plan(self, request):
                self.plans += 1
                return self.inner.plan(request)

            def get(self, name):
                return self.inner.get(name)

        registry = CountingRegistry(REGISTRY)
        pool = NodePool.uniform_random(10, low=60, high=400, seed=0)
        timeline = concurrent_loop(
            pool=pool, trace=constant(40), epochs=10, epoch_duration=3.0,
            initial_fraction=0.5, seed=0, registry=registry,
        ).run()
        proposals = sum(
            1 for record in timeline.records if "restructur" in record.reason
        )
        assert proposals >= 3  # the scenario proposes repeatedly...
        # ...but only the initial deployment and the first restructure
        # actually hit the planner.
        assert registry.plans == 2
