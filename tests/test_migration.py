"""Subtree-granular migration: plans, live middleware surgery, the loop.

The core property: applying a :class:`MigrationPlan` to the source tree
yields a tree identical to the target hierarchy, whatever pair of valid
deployments is diffed — planner outputs across demand levels, improve
chains, random structural edits, cyclic swaps, and the restart/cold
fallbacks.  On top of that: the middleware's incremental surgery must
leave a live system wired exactly like a fresh build of the target, and
the control loop's two migration modes must stay deterministic and
account their downtime per step.
"""

import random

import pytest

from repro.api import PlanRequest, PlanningSession
from repro.control import MigrationCostModel, constant, piecewise
from repro.core.hierarchy import Hierarchy, Role
from repro.core.params import DEFAULT_PARAMS
from repro.core.registry import REGISTRY
from repro.deploy.migration import (
    MigrationPlan,
    hierarchies_equal,
    plan_migration,
)
from repro.errors import SimulationError
from repro.extensions.redeploy import improve_deployment
from repro.middleware.client import ClosedLoopClient
from repro.middleware.system import MiddlewareSystem
from repro.platforms.pool import NodePool
from repro.sim.engine import Simulator
from repro.units import dgemm_mflop

WORK = dgemm_mflop(200)


def planned(pool, demand=None, seed=0):
    return REGISTRY.plan(
        PlanRequest(pool=pool, app_work=WORK, demand=demand, seed=seed)
    ).hierarchy


def random_valid_mutation(tree: Hierarchy, rng: random.Random) -> Hierarchy:
    """One random structural edit that keeps the tree strictly valid."""
    for _ in range(20):
        trial = tree.copy()
        op = rng.choice(("remove", "add", "reattach", "promote"))
        try:
            if op == "remove":
                server = rng.choice(trial.servers)
                trial.remove_leaf(server)
            elif op == "add":
                agent = rng.choice(trial.agents)
                trial.add_server(
                    f"new-{rng.randrange(10_000)}", 100.0 + rng.random(),
                    agent,
                )
            elif op == "reattach":
                node = rng.choice(
                    [n for n in trial.nodes if n != trial.root]
                )
                target = rng.choice(trial.agents)
                if target not in trial.subtree(node):
                    trial.reattach(node, target)
            else:
                server = rng.choice(trial.servers)
                trial.promote(server)
                parent = trial.parent(server)
                siblings = [
                    c
                    for c in trial.children(parent)
                    if c != server and trial.role(c) is Role.SERVER
                ]
                for sibling in siblings[:2]:
                    trial.reattach(sibling, server)
            trial.validate(strict=True)
            return trial
        except Exception:
            continue
    return tree.copy()


class TestPlanEquivalence:
    """plan_migration(a, b).apply(a) == b, across diverse pairs."""

    def assert_equivalent(self, old, new):
        plan = plan_migration(old, new)
        result = plan.apply(old)
        assert hierarchies_equal(result, new), (
            f"{plan.describe()}\nfrom:\n{old.describe()}\n"
            f"to:\n{new.describe()}\ngot:\n{result.describe()}"
        )
        return plan

    def test_planner_outputs_across_demand_levels(self):
        pool = NodePool.uniform_random(14, low=80, high=400, seed=11)
        trees = [planned(pool)] + [
            planned(pool, demand=d) for d in (30.0, 60.0, 120.0, 240.0)
        ]
        for old in trees:
            for new in trees:
                self.assert_equivalent(old, new)

    def test_improve_chain_is_incremental_growth(self):
        pool = NodePool.uniform_random(16, low=80, high=400, seed=7)
        base = planned(pool.take(6), seed=3)
        deployed = {str(n) for n in base}
        spares = [n for n in pool if n.name not in deployed]
        improved = improve_deployment(
            base, spares, DEFAULT_PARAMS, WORK
        ).hierarchy
        plan = self.assert_equivalent(base, improved)
        assert plan.is_live
        # A pure capacity growth drains nothing.
        if all(
            region.root == "+" for region in plan.regions
        ):
            assert not any(region.drained for region in plan.regions)

    def test_random_mutation_walks(self):
        rng = random.Random(42)
        pool = NodePool.uniform_random(12, low=80, high=400, seed=5)
        current = planned(pool)
        for _ in range(30):
            mutated = random_valid_mutation(current, rng)
            self.assert_equivalent(current, mutated)
            self.assert_equivalent(mutated, current)
            current = mutated

    def test_cyclic_ancestor_swap(self):
        old = Hierarchy()
        old.set_root("r", 300.0)
        old.add_agent("A", 250.0, "r")
        old.add_agent("B", 240.0, "A")
        old.add_server("s1", 200.0, "A")
        old.add_server("s2", 190.0, "B")
        old.add_server("s3", 180.0, "B")
        old.validate(strict=True)
        new = Hierarchy()
        new.set_root("r", 300.0)
        new.add_agent("B", 240.0, "r")
        new.add_agent("A", 250.0, "B")
        new.add_server("s2", 190.0, "B")
        new.add_server("s1", 200.0, "A")
        new.add_server("s3", 180.0, "A")
        new.validate(strict=True)
        plan = self.assert_equivalent(old, new)
        assert plan.is_live  # orderable without a full restart

    def test_root_change_falls_back_to_restart(self):
        pool = NodePool.uniform_random(8, low=80, high=400, seed=2)
        old = planned(pool)
        new = Hierarchy()
        nodes = list(old)
        # Same node set, different root: unrealizable incrementally.
        new.set_root(nodes[1], old.power(nodes[1]))
        for node in nodes:
            if node == nodes[1]:
                continue
            new.add_server(node, old.power(node), nodes[1])
        new.validate(strict=True)
        plan = self.assert_equivalent(old, new)
        assert plan.kind == "restart"
        assert not plan.is_live

    def test_power_change_falls_back_to_restart(self):
        pool = NodePool.homogeneous(6, 265.0)
        old = planned(pool)
        new = old.copy()
        server = new.servers[0]
        parent = new.parent(server)
        new.remove_leaf(server)
        new.add_server(server, 999.0, parent)
        plan = plan_migration(old, new)
        assert plan.kind == "restart"
        assert hierarchies_equal(plan.apply(old), new)

    def test_cold_start_plan(self):
        pool = NodePool.homogeneous(5, 265.0)
        tree = planned(pool)
        plan = plan_migration(None, tree)
        assert plan.kind == "cold"
        assert hierarchies_equal(plan.apply(None), tree)

    def test_noop_plan_is_empty(self):
        pool = NodePool.homogeneous(6, 265.0)
        tree = planned(pool)
        plan = plan_migration(tree, tree.copy())
        assert plan.is_noop
        assert plan.touched == 0
        assert hierarchies_equal(plan.apply(tree), tree)


class TestLiveSystemSurgery:
    """Incremental middleware ops leave the system wired like a fresh build."""

    @staticmethod
    def _wiring(system):
        return {
            name: [child.name for child in agent.children]
            for name, agent in system.agents.items()
        }

    def migrate_live(self, old, new, drive_seconds=10.0, clients=3):
        sim = Simulator()
        system = MiddlewareSystem(sim, old, DEFAULT_PARAMS, WORK, seed=3)
        fleet = [
            ClosedLoopClient(system, f"c{i}") for i in range(clients)
        ]
        for client in fleet:
            client.start()
        sim.run_until(drive_seconds)
        plan = plan_migration(old, new)
        assert plan.is_live
        for region in plan.regions:
            drained = tuple(str(n) for n in region.drained)
            if drained:
                system.unlink(str(region.root))
                sim.run_until_condition(
                    sim.now + 0.25,
                    lambda: not system.region_busy(drained),
                )
            system.apply_migration(region.steps)
            if drained and region.root in new:
                parent = new.parent(region.root)
                if parent is not None:
                    system.ensure_linked(str(region.root), str(parent))
        system.complete_migration(new)
        return sim, system, fleet

    def test_migrated_wiring_matches_fresh_build(self):
        pool = NodePool.uniform_random(14, low=80, high=400, seed=11)
        old = planned(pool)
        new = planned(pool, demand=60.0)
        sim, migrated, fleet = self.migrate_live(old, new)
        fresh = MiddlewareSystem(
            Simulator(), new, DEFAULT_PARAMS, WORK, seed=3
        )
        assert self._wiring(migrated) == self._wiring(fresh)
        assert set(migrated.servers) == set(fresh.servers)
        assert migrated.hierarchy is new
        # The platform still serves after surgery: clients keep looping.
        before = sum(client.completed for client in fleet)
        sim.run_until(sim.now + 10.0)
        assert sum(client.completed for client in fleet) > before

    def test_unlink_root_is_rejected(self):
        pool = NodePool.homogeneous(4, 265.0)
        tree = planned(pool)
        system = MiddlewareSystem(
            Simulator(), tree, DEFAULT_PARAMS, WORK
        )
        from repro.errors import DeploymentError

        with pytest.raises(DeploymentError, match="root"):
            system.unlink(str(tree.root))

    def test_in_flight_requests_survive_rehoming(self):
        # Conversations route replies to capture-time origins, so a
        # migration mid-request cannot strand a merge: every started
        # request eventually completes or is resubmitted, and the
        # client fleet keeps making progress straight through surgery.
        pool = NodePool.uniform_random(10, low=80, high=400, seed=4)
        old = planned(pool)
        new = planned(pool, demand=40.0)
        sim, system, fleet = self.migrate_live(
            old, new, drive_seconds=5.0, clients=8
        )
        completed_at_migration = sum(c.completed for c in fleet)
        sim.run_until(sim.now + 20.0)
        assert sum(c.completed for c in fleet) > completed_at_migration
        # No agent is left holding a merge forever once traffic stops.
        for client in fleet:
            client.stop()
        sim.run_until(sim.now + 30.0)
        for agent in system.agents.values():
            assert agent.in_flight == 0


class TestEngineConditionRuns:
    def test_condition_stops_early_and_preserves_order(self):
        fired = []
        sim = Simulator()
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        met = sim.run_until_condition(10.0, lambda: len(fired) >= 2)
        assert met is True
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        # The remaining events fire in the same order afterwards.
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_deadline_reached_behaves_like_run_until(self):
        fired = []
        sim = Simulator()
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        met = sim.run_until_condition(2.0, lambda: False)
        assert met is False
        assert sim.now == 2.0
        assert fired == [1]

    def test_condition_already_true_is_a_noop(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        assert sim.run_until_condition(5.0, lambda: True) is True
        assert sim.now == 0.0
        assert sim.pending == 1

    def test_past_deadline_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run_until(2.0)
        with pytest.raises(SimulationError):
            sim.run_until_condition(1.0, lambda: True)


class TestLoopMigrationModes:
    """Downtime accounting and determinism of the two mechanisms."""

    @staticmethod
    def run_mode(mode, **overrides):
        session = PlanningSession()
        defaults = dict(
            trace=piecewise([(0.0, 20), (8.0, 3)]),
            policy="reactive",
            policy_options={"hysteresis": 1, "cooldown": 1},
            epochs=10,
            epoch_duration=2.0,
            initial_fraction=0.4,
            migration=mode,
            seed=5,
        )
        defaults.update(overrides)
        return session.control_run(
            NodePool.uniform_random(10, low=80, high=400, seed=7),
            WORK,
            **defaults,
        )

    def test_same_seed_identical_timeline_per_mode(self):
        for mode in ("live", "restart"):
            first = self.run_mode(mode)
            second = self.run_mode(mode)
            assert first == second
            assert first.migration == mode
            assert first.redeploys >= 1

    def test_restart_steps_cover_whole_platform(self):
        timeline = self.run_mode("restart")
        applied = [r for r in timeline.records if r.applied]
        assert applied
        for record in applied:
            assert len(record.migration_steps) == 1
            step = record.migration_steps[0]
            assert step.op == "restart"
            assert step.drained_nodes == step.deployed_nodes
            assert step.downtime == step.seconds
            assert record.migration_seconds == pytest.approx(step.seconds)

    def test_live_downtime_itemized_and_weighted(self):
        timeline = self.run_mode("live")
        applied = [r for r in timeline.records if r.applied]
        assert applied
        saw_drain = False
        for record in applied:
            assert record.migration_steps
            assert record.migration_seconds == pytest.approx(
                sum(step.downtime for step in record.migration_steps)
            )
            for step in record.migration_steps:
                assert step.op in ("drain", "grow")
                if step.op == "grow":
                    assert step.drained_nodes == 0
                    assert step.downtime == 0.0
                else:
                    saw_drain = True
                    assert 0 < step.drained_nodes <= step.deployed_nodes
                    assert step.downtime <= step.seconds
        assert saw_drain  # the shrink produced at least one real drain
        # Per-subtree drains cost far less than full restarts.
        restart = self.run_mode("restart")
        assert timeline.migration_downtime < restart.migration_downtime

    def test_unknown_migration_mode_rejected(self):
        from repro.errors import ControlError

        with pytest.raises(ControlError, match="migration mode"):
            self.run_mode("blue-green")


class TestLiveCostPricing:
    def test_live_outage_prices_below_restart(self):
        pool = NodePool.uniform_random(12, low=80, high=400, seed=9)
        old = planned(pool, demand=60.0)
        new = planned(pool)
        plan = plan_migration(old, new)
        assert plan.is_live
        model = MigrationCostModel()
        live = model.plan_outage_seconds(plan, DEFAULT_PARAMS)
        restart = model.cost_seconds(old, new, DEFAULT_PARAMS)
        assert live < restart

    def test_non_live_plans_price_like_cost_seconds(self):
        # Restart-kind and cold plans are stop-the-world rebuilds, so
        # the outage price must agree with the legacy restart price.
        pool = NodePool.uniform_random(8, low=80, high=400, seed=2)
        tree = planned(pool)
        model = MigrationCostModel()
        cold = plan_migration(None, tree)
        assert cold.kind == "cold"
        assert model.plan_outage_seconds(
            cold, DEFAULT_PARAMS
        ) == pytest.approx(model.cost_seconds(None, tree, DEFAULT_PARAMS))

    def test_growth_regions_price_zero_outage(self):
        grown = Hierarchy()
        grown.set_root("r", 300.0)
        grown.add_server("s1", 200.0, "r")
        grown.add_server("s2", 210.0, "r")
        target = grown.copy()
        target.add_server("s3", 220.0, "r")
        plan = plan_migration(grown, target)
        assert plan.is_live
        assert not any(region.drained for region in plan.regions)
        model = MigrationCostModel()
        assert model.plan_outage_seconds(plan, DEFAULT_PARAMS) == 0.0
