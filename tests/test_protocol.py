"""Master/executor command protocol, deployment registry, executors.

The PR's distribution contracts:

* wire round-trip — ``commands_to_plan(plan_commands(p, g, e))``
  applies identically to ``p`` across diverse plan pairs
  (property-tested through an actual ``json.dumps``/``loads`` leg);
* the registry — snapshot/restore is exact, generations are dense and
  monotonic, unknown schema versions and corrupted snapshots are
  refused, and "registry truth == middleware truth" after surgery;
* executors — stateless daemons reject stale generations, the
  in-process and process-pool executors produce identical acks, and a
  full controller run is **bit-identical** across ``local``/``pool``
  with faults and detection enabled (traces included);
* the master's ack checks — a short report batch, a wrong ack, a
  digest mismatch or a batch that misses the decided tree each stop the
  run with a :class:`~repro.errors.ProtocolError`;
* the API edge — ``control_sweep`` refuses anything but a kind string
  and sweeps stay serial-vs-pool deterministic.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import PlanRequest, PlanningSession
from repro.control import ControlLoop
from repro.control.protocol import (
    EXECUTOR_KINDS,
    PROTOCOL_VERSION,
    InProcessExecutor,
    ProcessExecutor,
    commands_to_plan,
    execute_command,
    make_executor,
    parse_command,
    parse_report,
    plan_commands,
)
from repro.control.registry import (
    SCHEMA_VERSION,
    DeploymentRegistry,
    restore_tree,
    serialize_tree,
    tree_digest,
)
from repro.control.traces import fixture
from repro.core.params import ModelParams
from repro.core.registry import REGISTRY
from repro.deploy.migration import (
    hierarchies_equal,
    plan_migration,
)
from repro.errors import PlanningError, ProtocolError
from repro.middleware.system import MiddlewareSystem
from repro.platforms.pool import NodePool
from repro.sim.engine import Simulator
from repro.units import dgemm_mflop

WORK = dgemm_mflop(200)


def planned(pool, demand=None, seed=0):
    return REGISTRY.plan(
        PlanRequest(pool=pool, app_work=WORK, demand=demand, seed=seed)
    ).hierarchy


@pytest.fixture(scope="module")
def trees():
    """Planner outputs across demand levels — diverse migration pairs."""
    pool = NodePool.uniform_random(14, low=80, high=400, seed=11)
    return [planned(pool)] + [
        planned(pool, demand=d) for d in (30.0, 60.0, 120.0, 240.0)
    ]


def faulty_loop(**overrides):
    """A controller run exercising migrations, faults, and detection."""
    defaults = dict(
        pool=NodePool.uniform_random(10, low=80, high=400, seed=7),
        app_work=200.0,
        trace=fixture("wikipedia_flash"),
        policy="reactive",
        policy_options={"hysteresis": 1, "cooldown": 1},
        epochs=8,
        epoch_duration=2.0,
        seed=5,
        migration="concurrent",
        faults="crash:target=busiest-child,at=8",
        detection="timeout=0.5,retries=1,threshold=3,grace=2",
    )
    defaults.update(overrides)
    return ControlLoop(**defaults)


# ------------------------------------------------------------------ #
# wire round-trip


class TestCommandRoundTrip:
    @given(
        old_index=st.integers(0, 4),
        new_index=st.integers(0, 4),
        generation=st.integers(0, 40),
        epoch=st.integers(0, 40),
    )
    @settings(max_examples=25, deadline=None)
    def test_wire_round_trip_applies_identically(
        self, trees, old_index, new_index, generation, epoch
    ):
        """serialize → JSON → parse → rebuild ≡ the original plan."""
        old, new = trees[old_index], trees[new_index]
        plan = plan_migration(old, new)
        if plan.is_noop:
            return
        commands = plan_commands(plan, generation, epoch)
        # The actual wire leg: bytes, not objects.
        wires = json.loads(
            json.dumps([command.to_wire() for command in commands])
        )
        parsed = tuple(parse_command(wire) for wire in wires)
        assert parsed == commands
        rebuilt = commands_to_plan(parsed)
        assert rebuilt.kind == plan.kind
        assert hierarchies_equal(rebuilt.apply(old), plan.apply(old))
        assert hierarchies_equal(rebuilt.apply(old), new)

    def test_command_ids_and_waves_are_deterministic(self, trees):
        plan = plan_migration(trees[1], trees[3])
        commands = plan_commands(plan, 7, 3)
        assert [c.command_id for c in commands] == [
            f"g7e3r{i}" for i in range(len(plan.regions))
        ]
        assert all(c.generation == 7 and c.epoch == 3 for c in commands)
        # Wave indices match the concurrent schedule exactly.
        wave_of = {}
        for index, wave in enumerate(plan.concurrent_schedule()):
            for region in wave:
                wave_of[str(region.root)] = index
        assert {c.root: c.wave for c in commands} == wave_of

    def test_commands_to_plan_rejects_empty_and_mixed_batches(self, trees):
        with pytest.raises(ProtocolError):
            commands_to_plan(())
        a = plan_commands(plan_migration(trees[0], trees[1]), 0, 0)
        b = plan_commands(plan_migration(trees[0], trees[1]), 1, 0)
        with pytest.raises(ProtocolError, match="inconsistent"):
            commands_to_plan(a[:1] + b[1:] if len(a) > 1 else a + b)

    def test_parse_command_rejects_bad_messages(self, trees):
        plan = plan_migration(trees[0], trees[2])
        wire = plan_commands(plan, 0, 0)[0].to_wire()
        with pytest.raises(ProtocolError, match="version"):
            parse_command({**wire, "version": PROTOCOL_VERSION + 1})
        missing = dict(wire)
        del missing["steps"]
        with pytest.raises(ProtocolError, match="missing"):
            parse_command(missing)
        with pytest.raises(ProtocolError, match="unexpected"):
            parse_command({**wire, "surprise": 1})
        with pytest.raises(ProtocolError):
            parse_command("not a dict")

    def test_parse_report_rejects_bad_messages(self):
        wire = {
            "version": PROTOCOL_VERSION,
            "command_id": "g0e0r0",
            "root": "n-1",
            "generation": 0,
            "status": "applied",
            "applied": 3,
            "digest": "0" * 16,
        }
        assert parse_report(wire).command_id == "g0e0r0"
        with pytest.raises(ProtocolError, match="version"):
            parse_report({**wire, "version": 99})
        short = dict(wire)
        del short["digest"]
        with pytest.raises(ProtocolError, match="missing"):
            parse_report(short)
        with pytest.raises(ProtocolError, match="unexpected"):
            parse_report({**wire, "extra": True})


# ------------------------------------------------------------------ #
# the registry


def placement_signature(system):
    """Name-sorted ``(name, parent, role)`` rows of the live elements.

    Read from the system's element registry and its wiring, not from
    ``system.hierarchy``, so it describes what is actually deployed.
    """
    rows = [
        (name, element.parent.name if element.parent is not None else None, role)
        for role, elements in (("agent", system.agents), ("server", system.servers))
        for name, element in elements.items()
    ]
    return tuple(sorted(rows))


def registry_signature(entry):
    """``(name, parent, role)`` rows of a committed generation."""
    return tuple(
        sorted((name, parent, role) for name, parent, role, _ in entry.tree)
    )


class TestRegistry:
    def test_tree_serialize_restore_round_trip(self, trees):
        for tree in trees:
            rows = serialize_tree(tree)
            assert json.loads(json.dumps(list(rows))) == [
                list(row) for row in rows
            ]
            assert hierarchies_equal(restore_tree(rows), tree)

    def test_digest_is_order_independent_content_hash(self, trees):
        rows = serialize_tree(trees[0])
        shuffled = list(rows)
        random.Random(3).shuffle(shuffled)
        assert tree_digest(tuple(shuffled)) == tree_digest(rows)
        assert tree_digest(trees[0]) == tree_digest(rows)
        assert tree_digest(trees[0]) != tree_digest(trees[1])

    def test_generations_are_dense_and_monotonic(self, trees):
        registry = DeploymentRegistry()
        assert registry.generation == -1
        assert len(registry) == 0
        with pytest.raises(ProtocolError, match="empty"):
            registry.current()
        for index, tree in enumerate(trees):
            entry = registry.commit(tree, "replan", epoch=index)
            assert entry.generation == index
            assert registry.generation == index
        generations = [entry.generation for entry in registry.entries]
        assert generations == list(range(len(trees)))
        assert hierarchies_equal(registry.current(), trees[-1])
        with pytest.raises(ProtocolError):
            registry.entry(len(trees))

    def test_snapshot_restore_is_exact(self, trees):
        registry = DeploymentRegistry()
        registry.commit(trees[0], "initial")
        registry.commit(trees[1], "replan", epoch=2, command_ids=("g0e2r0",))
        registry.commit(trees[2], "repair", epoch=5)
        snapshot = registry.snapshot()
        # JSON-safe and byte-stable through an actual encode/decode leg.
        assert json.loads(json.dumps(snapshot)) == snapshot
        restored = DeploymentRegistry.restore(
            json.loads(json.dumps(snapshot))
        )
        assert restored == registry
        assert restored.entries == registry.entries
        assert hierarchies_equal(restored.current(), trees[2])
        assert restored.entry(1).command_ids == ("g0e2r0",)
        # A restarted master keeps numbering where it left off.
        entry = restored.commit(trees[3], "replan", epoch=7)
        assert entry.generation == 3

    def test_restore_refuses_unknown_schema(self, trees):
        registry = DeploymentRegistry()
        registry.commit(trees[0], "initial")
        snapshot = registry.snapshot()
        with pytest.raises(ProtocolError, match="schema"):
            DeploymentRegistry.restore(
                {**snapshot, "schema": SCHEMA_VERSION + 1}
            )
        with pytest.raises(ProtocolError):
            DeploymentRegistry.restore("not a dict")

    def test_restore_refuses_corruption(self, trees):
        registry = DeploymentRegistry()
        registry.commit(trees[0], "initial")
        registry.commit(trees[1], "replan", epoch=1)
        snapshot = registry.snapshot()
        tampered = json.loads(json.dumps(snapshot))
        tampered["entries"][1]["tree"][0][3] += 1.0  # nudge a power
        with pytest.raises(ProtocolError, match="digest"):
            DeploymentRegistry.restore(tampered)
        sparse = json.loads(json.dumps(snapshot))
        sparse["entries"][1]["generation"] = 5
        with pytest.raises(ProtocolError, match="dense"):
            DeploymentRegistry.restore(sparse)
        header = json.loads(json.dumps(snapshot))
        header["generation"] = 9
        with pytest.raises(ProtocolError, match="header"):
            DeploymentRegistry.restore(header)

    def test_registry_truth_matches_middleware_truth(self, trees):
        """The committed tree is what the live platform actually runs."""
        old = trees[0]
        new = old.copy()
        new.add_server("spliced-1", 123.0, new.agents[0])  # pure growth
        registry = DeploymentRegistry()
        registry.commit(old, "initial")
        sim = Simulator()
        system = MiddlewareSystem(sim, old, ModelParams(), WORK)
        assert placement_signature(system) == registry_signature(
            registry.entry(0)
        )
        plan = plan_migration(old, new)
        assert plan.is_live
        system.apply_migration(plan.steps)
        registry.commit(plan.apply(old), "replan", epoch=0)
        assert placement_signature(system) == registry_signature(
            registry.entry(1)
        )


# ------------------------------------------------------------------ #
# executors


class TestExecutors:
    def make_batch(self, trees, old_index=0, new_index=2):
        old, new = trees[old_index], trees[new_index]
        registry = DeploymentRegistry()
        registry.commit(old, "initial")
        plan = plan_migration(old, new)
        commands = plan_commands(plan, registry.generation, 0)
        wires = [command.to_wire() for command in commands]
        return registry, plan, commands, wires

    def test_daemon_rejects_stale_generation(self, trees):
        registry, _, commands, wires = self.make_batch(trees)
        with pytest.raises(ProtocolError, match="out of range"):
            execute_command(registry.snapshot(), wires, len(wires))
        registry.commit(trees[1], "replan", epoch=1)  # registry moved on
        with pytest.raises(ProtocolError, match="re-sync"):
            execute_command(registry.snapshot(), wires, 0)

    def test_daemon_acks_match_master_replay(self, trees):
        registry, plan, commands, wires = self.make_batch(trees)
        snapshot = registry.snapshot()
        replay = registry.current()
        from repro.deploy.migration import apply_steps

        for index, command in enumerate(commands):
            report = parse_report(execute_command(snapshot, wires, index))
            assert report.command_id == command.command_id
            assert report.root == command.root
            assert report.generation == registry.generation
            assert report.status == "applied"
            apply_steps(replay, command.steps)
            assert report.digest == tree_digest(replay)
        assert hierarchies_equal(replay, plan.apply(registry.current()))

    def test_in_process_and_pool_executors_agree(self, trees):
        registry, _, _, wires = self.make_batch(trees)
        snapshot = registry.snapshot()
        local = InProcessExecutor()
        pool = ProcessExecutor()
        try:
            serial = local.execute(snapshot, wires)
            fanned = pool.execute(snapshot, wires)
        finally:
            pool.close()
        assert serial == fanned
        assert [parse_report(wire).status for wire in serial] == (
            ["applied"] * len(wires)
        )

    def test_make_executor_kinds(self):
        local = make_executor("local")
        assert isinstance(local, InProcessExecutor)
        pool = make_executor("pool")
        assert isinstance(pool, ProcessExecutor)
        pool.close()
        for bad in ("carrier-pigeon", "inline"):
            with pytest.raises(ProtocolError, match="unknown executor"):
                make_executor(bad)
        assert EXECUTOR_KINDS == ("local", "pool")


# ------------------------------------------------------------------ #
# the loop, end to end


class TestLoopBitIdentity:
    def test_timeline_identical_across_all_executor_kinds(self):
        """Same seed ⇒ bit-identical timeline, faults and detection on."""
        local = faulty_loop(executor="local").run()
        pool = faulty_loop(executor="pool").run()
        assert pool == local
        assert faulty_loop().run() == local  # "local" is the default

    def test_timeline_identical_for_live_migration_mode(self):
        local = faulty_loop(migration="live", executor="local").run()
        pool = faulty_loop(migration="live", executor="pool").run()
        assert pool == local

    def test_registry_records_the_run(self):
        loop = faulty_loop(executor="local")
        loop.run()
        registry = loop.deployment_registry
        entries = registry.entries
        assert entries[0].cause == "initial"
        assert entries[0].epoch == -1
        assert [e.generation for e in entries] == list(range(len(entries)))
        # The final committed generation IS the final deployment.
        assert hierarchies_equal(registry.current(), loop.final_hierarchy)
        # Protocol-dispatched redeploys carry their command ids.
        plan_causes = {"improve", "replan", "repair", "evict"}
        dispatched = [e for e in entries if e.cause in plan_causes]
        assert dispatched, "run was expected to redeploy at least once"
        assert any(e.command_ids for e in dispatched)
        for entry in dispatched:
            for command_id in entry.command_ids:
                # Commands are stamped with the *base* generation.
                assert command_id.startswith(f"g{entry.generation - 1}e")
        # The fault path commits too: the confirmed excision and the
        # repair that heals it ("crash" would be the oracle-mode cause).
        assert {"detection", "repair"} <= {e.cause for e in entries}
        # Snapshot/restore of the finished run's registry is exact.
        assert DeploymentRegistry.restore(registry.snapshot()) == registry

    def test_local_and_pool_traces_byte_identical(self):
        local = faulty_loop(executor="local", obs=True)
        pool = faulty_loop(executor="pool", obs=True)
        local.run()
        pool.run()
        local_jsonl = local.obs.tracer.to_jsonl()
        assert local_jsonl == pool.obs.tracer.to_jsonl()
        records = [json.loads(line) for line in local_jsonl.splitlines()]
        protocol = [r for r in records if r.get("cat") == "protocol"]
        assert any(r["name"] == "dispatch" for r in protocol
                   if r["type"] == "event")
        commands = [r for r in protocol if r["type"] == "span"
                    and r["name"].startswith("command:")]
        acks = [r for r in protocol if r["type"] == "event"
                and r["name"].startswith("ack:")]
        flows = [r for r in protocol if r["type"] == "flow"]
        assert commands and len(acks) == len(commands)
        assert len(flows) == 2 * len(commands)
        # Every command span correlates with exactly one ack.
        assert {r["args"]["command_id"] for r in commands} == (
            {r["args"]["command_id"] for r in acks}
        )

    def test_loop_validates_executor_arguments(self):
        from repro.errors import ControlError

        for bad in ("smoke-signals", "inline", object(), InProcessExecutor()):
            with pytest.raises(ControlError, match="unknown executor") as info:
                faulty_loop(executor=bad)
            assert "('local', 'pool')" in str(info.value)


class TestMasterAckChecks:
    """Each ack check in ``ControlLoop._dispatch_commands`` stops the run.

    The daemons are made to lie by wrapping the real
    ``InProcessExecutor.execute``; the first live plan the run
    dispatches then has to raise from :meth:`ControlLoop.run`.
    """

    @staticmethod
    def lie(monkeypatch, forge):
        real = InProcessExecutor.execute

        def lying(self, snapshot, wires):
            return forge(list(real(self, snapshot, wires)))

        monkeypatch.setattr(InProcessExecutor, "execute", lying)

    def test_short_report_batch(self, monkeypatch):
        self.lie(monkeypatch, lambda reports: reports[:-1])
        with pytest.raises(ProtocolError, match=r"returned \d+ report\(s\)"):
            faulty_loop().run()

    @pytest.mark.parametrize(
        "field, forged",
        [
            ("command_id", "g0e0r99"),
            ("root", "nowhere"),
            ("generation", -7),
            ("status", "failed"),
        ],
    )
    def test_bad_ack(self, monkeypatch, field, forged):
        self.lie(
            monkeypatch,
            lambda reports: [{**reports[0], field: forged}] + reports[1:],
        )
        with pytest.raises(ProtocolError, match="bad ack for g"):
            faulty_loop().run()

    def test_digest_mismatch(self, monkeypatch):
        def flip(reports):
            head = reports[0]
            return [{**head, "digest": head["digest"][::-1]}] + reports[1:]

        self.lie(monkeypatch, flip)
        with pytest.raises(ProtocolError, match="digest mismatch on g"):
            faulty_loop().run()

    def test_batch_that_misses_the_decided_tree(self, monkeypatch):
        # Hollow out the last command on the master side: daemons and
        # master replay the same (short) batch, so every ack agrees, and
        # only the final-tree check can notice.
        import dataclasses

        import repro.control.loop as loop_module

        real = loop_module.plan_commands

        def hollow(plan, generation, epoch):
            *head, last = real(plan, generation, epoch)
            return (*head, dataclasses.replace(last, steps=()))

        monkeypatch.setattr(loop_module, "plan_commands", hollow)
        with pytest.raises(
            ProtocolError, match="does not reproduce the decided deployment"
        ):
            faulty_loop().run()


# ------------------------------------------------------------------ #
# the API edge


class TestSweepIntegration:
    def sweep(self, parallel):
        session = PlanningSession()
        return session.control_sweep(
            pool=NodePool.uniform_random(10, low=80, high=400, seed=7),
            app_work=WORK,
            traces=["wikipedia_flash"],
            policies=["reactive"],
            seeds=[5, 6],
            policy_options={"reactive": {"hysteresis": 1, "cooldown": 1}},
            parallel=parallel,
            epochs=6,
            epoch_duration=2.0,
            migration="concurrent",
            executor="local",
        )

    def test_sweep_rejects_unpicklable_executors(self):
        session = PlanningSession()
        for bad in (InProcessExecutor(), "smoke-signals"):
            with pytest.raises(PlanningError, match="kind string"):
                session.control_sweep(
                    pool=NodePool.uniform_random(6, low=80, high=400, seed=7),
                    app_work=WORK,
                    traces=["wikipedia_flash"],
                    executor=bad,
                )

    def test_sweep_serial_vs_pool_identical_with_executor(self):
        serial = self.sweep(parallel=False)
        pooled = self.sweep(parallel=True)
        assert len(serial) == len(pooled) == 2
        assert [c.timeline for c in serial] == [c.timeline for c in pooled]
