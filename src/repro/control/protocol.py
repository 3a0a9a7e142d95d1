"""Master/executor command protocol for the control plane's act stage.

The control loop used to *be* the whole control plane: one in-process
loop that planned a migration and applied it to its own middleware.
This module splits the act stage along the production seam — a
**master** that decides, and per-region **executors** (daemons) that
apply — connected by typed, versioned wire messages (after Uberun's
``SSmaster.py`` / ``SSdaemon.py`` / ``SSprotocol.py`` exchange):

:class:`MigrationCommand`
    One region of a :class:`~repro.deploy.migration.MigrationPlan`,
    serialized with enough plan-level metadata (kind, wave index,
    node counts, dependency roots) that a batch of commands rebuilds
    the *entire* plan via :func:`commands_to_plan` — the master's
    decision survives the wire round-trip losslessly.
:class:`RegionReport`
    The executor's ack: which command it applied, against which
    registry generation, and the content digest of the tree it arrived
    at, which the master cross-checks against its own replay.

Executors are **stateless**: :func:`execute_command` receives a
:meth:`~repro.control.registry.DeploymentRegistry.snapshot` and
rebuilds the deployment from the registry every call — the same path a
restarted daemon takes to rejoin, so the durability story is exercised
on every single dispatch, not just in a recovery test.

Two executor kinds (:data:`EXECUTOR_KINDS`), and the master checks
every live plan over the wire whichever one runs it:

``local``
    :class:`InProcessExecutor` (the default): full wire round-trip
    (commands and reports pass through ``json.dumps``/``loads``),
    executed serially in the master's process.
``pool``
    :class:`ProcessExecutor`: the same wire exchange, fanned out to a
    ``ProcessPoolExecutor`` — region commands of one plan really do
    execute in parallel processes.  Falls back to in-process execution
    when the host refuses child processes (e.g. inside a daemonic
    pool worker of ``control_sweep``); the protocol is deterministic,
    so the fallback is bit-identical, just slower.

Determinism contract: executors only compute *structural* results
(trees and digests) that the master verifies and then discards in
favour of its own simulated apply — so the
:class:`~repro.control.loop.ControlTimeline` is bit-identical across
both kinds, which ``tests/test_protocol.py`` asserts with faults and
detection enabled.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.control.registry import (
    DeploymentRegistry,
    tree_digest,
)
from repro.deploy.migration import (
    MigrationPlan,
    MigrationRegion,
    MigrationStep,
    apply_steps,
)
from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "EXECUTOR_KINDS",
    "MigrationCommand",
    "RegionReport",
    "plan_commands",
    "commands_to_plan",
    "parse_command",
    "parse_report",
    "execute_command",
    "InProcessExecutor",
    "ProcessExecutor",
    "make_executor",
]

#: Wire-format version stamped on every command and report; parsers
#: reject versions they do not understand.
PROTOCOL_VERSION = 1

#: Recognized act-stage executor kinds: ``local`` (wire round-trip,
#: in-process; the default) and ``pool`` (wire round-trip, process
#: pool).  Module-level like MIGRATION_MODES so the CLI can offer
#: ``choices=`` without importing the heavy loop machinery.
EXECUTOR_KINDS = ("local", "pool")

_COMMAND_FIELDS = frozenset(
    {
        "version", "command_id", "generation", "epoch", "wave",
        "plan_kind", "source_nodes", "target_nodes", "root",
        "depends_on", "drained", "steps",
    }
)
_REPORT_FIELDS = frozenset(
    {"version", "command_id", "root", "generation", "status", "applied",
     "digest"}
)


@dataclass(frozen=True)
class MigrationCommand:
    """One region's marching orders, as the master serializes them.

    ``generation`` is the registry generation the command's base tree
    comes from; ``command_id`` is deterministic
    (``g{generation}e{epoch}r{index}``) so acks correlate without any
    random nonce; ``wave`` is the region's concurrent-schedule wave.
    The plan-level fields (``plan_kind``, ``source_nodes``,
    ``target_nodes``) ride on every command so a batch is
    self-describing — :func:`commands_to_plan` needs no side channel.
    """

    version: int
    command_id: str
    generation: int
    epoch: int
    wave: int
    plan_kind: str
    source_nodes: int
    target_nodes: int
    root: str
    depends_on: tuple
    drained: tuple
    steps: tuple  # of MigrationStep

    def region(self) -> MigrationRegion:
        """Rebuild the :class:`MigrationRegion` this command carries."""
        return MigrationRegion(
            root=self.root,
            drained=self.drained,
            steps=self.steps,
            depends_on=self.depends_on,
        )

    def to_wire(self) -> dict:
        return {
            "version": self.version,
            "command_id": self.command_id,
            "generation": self.generation,
            "epoch": self.epoch,
            "wave": self.wave,
            "plan_kind": self.plan_kind,
            "source_nodes": self.source_nodes,
            "target_nodes": self.target_nodes,
            "root": self.root,
            "depends_on": list(self.depends_on),
            "drained": list(self.drained),
            "steps": [step.to_wire() for step in self.steps],
        }


@dataclass(frozen=True)
class RegionReport:
    """The executor's ack for one applied command.

    ``digest`` is the content digest (:func:`~repro.control.registry
    .tree_digest`) of the tree the executor reached after applying its
    command on top of every earlier command in the batch — the master
    replays the same prefix and refuses a mismatched ack.
    """

    version: int
    command_id: str
    root: str
    generation: int
    status: str  # "applied"
    applied: int  # structural steps applied
    digest: str

    def to_wire(self) -> dict:
        return {
            "version": self.version,
            "command_id": self.command_id,
            "root": self.root,
            "generation": self.generation,
            "status": self.status,
            "applied": self.applied,
            "digest": self.digest,
        }


def parse_command(wire: dict) -> MigrationCommand:
    """Validate and deserialize one wire-form command.

    Unknown protocol versions and missing/extra fields are refused with
    :class:`~repro.errors.ProtocolError` — a daemon never guesses at a
    message shape it does not recognize.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"command must be a dict, got {type(wire).__name__}"
        )
    if wire.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unknown command protocol version {wire.get('version')!r} "
            f"(this build speaks version {PROTOCOL_VERSION})"
        )
    if set(wire) != _COMMAND_FIELDS:
        missing = _COMMAND_FIELDS - set(wire)
        extra = set(wire) - _COMMAND_FIELDS
        raise ProtocolError(
            f"malformed command: missing fields {sorted(missing)}, "
            f"unexpected fields {sorted(extra)}"
        )
    try:
        return MigrationCommand(
            version=int(wire["version"]),
            command_id=str(wire["command_id"]),
            generation=int(wire["generation"]),
            epoch=int(wire["epoch"]),
            wave=int(wire["wave"]),
            plan_kind=str(wire["plan_kind"]),
            source_nodes=int(wire["source_nodes"]),
            target_nodes=int(wire["target_nodes"]),
            root=str(wire["root"]),
            depends_on=tuple(wire["depends_on"]),
            drained=tuple(wire["drained"]),
            steps=tuple(
                MigrationStep.from_wire(step) for step in wire["steps"]
            ),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed command: {exc}") from exc


def parse_report(wire: dict) -> RegionReport:
    """Validate and deserialize one wire-form region report."""
    if not isinstance(wire, dict):
        raise ProtocolError(
            f"report must be a dict, got {type(wire).__name__}"
        )
    if wire.get("version") != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unknown report protocol version {wire.get('version')!r} "
            f"(this build speaks version {PROTOCOL_VERSION})"
        )
    if set(wire) != _REPORT_FIELDS:
        missing = _REPORT_FIELDS - set(wire)
        extra = set(wire) - _REPORT_FIELDS
        raise ProtocolError(
            f"malformed report: missing fields {sorted(missing)}, "
            f"unexpected fields {sorted(extra)}"
        )
    try:
        return RegionReport(
            version=int(wire["version"]),
            command_id=str(wire["command_id"]),
            root=str(wire["root"]),
            generation=int(wire["generation"]),
            status=str(wire["status"]),
            applied=int(wire["applied"]),
            digest=str(wire["digest"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed report: {exc}") from exc


def plan_commands(
    plan: MigrationPlan, generation: int, epoch: int
) -> tuple:
    """Serialize ``plan`` into one :class:`MigrationCommand` per region.

    Commands come out in the plan's serial region order; each carries
    its concurrent-schedule wave index so executors (and the trace)
    know which commands may run simultaneously.
    """
    wave_of = {}
    for index, wave in enumerate(plan.concurrent_schedule()):
        for region in wave:
            wave_of[region.root] = index
    commands = []
    for index, region in enumerate(plan.regions):
        commands.append(
            MigrationCommand(
                version=PROTOCOL_VERSION,
                command_id=f"g{generation}e{epoch}r{index}",
                generation=generation,
                epoch=epoch,
                wave=wave_of[region.root],
                plan_kind=plan.kind,
                source_nodes=plan.source_nodes,
                target_nodes=plan.target_nodes,
                root=str(region.root),
                depends_on=tuple(str(r) for r in region.depends_on),
                drained=tuple(str(n) for n in region.drained),
                steps=region.steps,
            )
        )
    return tuple(commands)


def commands_to_plan(commands) -> MigrationPlan:
    """Rebuild the full :class:`MigrationPlan` from a command batch.

    The inverse of :func:`plan_commands`: command order is plan order,
    and the plan-level metadata every command carries must agree across
    the batch.  ``commands_to_plan(plan_commands(p, g, e)).apply(old)``
    equals ``p.apply(old)`` — the round-trip the property tests pin.
    """
    if not commands:
        raise ProtocolError("cannot rebuild a plan from zero commands")
    head = commands[0]
    for command in commands:
        if (
            command.plan_kind != head.plan_kind
            or command.generation != head.generation
            or command.source_nodes != head.source_nodes
            or command.target_nodes != head.target_nodes
        ):
            raise ProtocolError(
                "command batch is inconsistent: "
                f"{command.command_id} disagrees with {head.command_id} "
                "on plan-level metadata"
            )
    return MigrationPlan(
        kind=head.plan_kind,
        regions=tuple(command.region() for command in commands),
        source_nodes=head.source_nodes,
        target_nodes=head.target_nodes,
    )


# ---------------------------------------------------------------------- #
# the daemon side


def execute_command(snapshot: dict, wires, index: int) -> dict:
    """Apply one command of a batch — the stateless daemon entry point.

    ``snapshot`` is a registry snapshot, ``wires`` the wire-form command
    batch (plan order), ``index`` which command this call executes.  The
    daemon restores the registry, rebuilds the current deployment tree,
    replays commands ``0..index`` in plan order, and acks the digest of
    the tree it reached.  Restoring from the registry on *every* call is
    deliberate: it is exactly the restart-rejoin path, so durability is
    exercised on every dispatch.  Pure function of its arguments —
    picklable, deterministic, safe to fan out.
    """
    registry = DeploymentRegistry.restore(snapshot)
    commands = tuple(parse_command(wire) for wire in wires)
    if not 0 <= index < len(commands):
        raise ProtocolError(
            f"command index {index} out of range for a batch of "
            f"{len(commands)}"
        )
    command = commands[index]
    if command.generation != registry.generation:
        raise ProtocolError(
            f"command {command.command_id} targets generation "
            f"{command.generation} but the registry is at "
            f"{registry.generation} — daemon must re-sync"
        )
    tree = registry.current()
    for prefix in commands[: index + 1]:
        apply_steps(tree, prefix.steps)
    report = RegionReport(
        version=PROTOCOL_VERSION,
        command_id=command.command_id,
        root=command.root,
        generation=command.generation,
        status="applied",
        applied=len(command.region().structural_steps),
        digest=tree_digest(tree),
    )
    return report.to_wire()


def _execute_star(args) -> str:
    """Pool worker: unpack args, run the daemon, return the report JSON."""
    snapshot_json, wires_json, index = args
    wire = execute_command(
        json.loads(snapshot_json), json.loads(wires_json), index
    )
    return json.dumps(wire, sort_keys=True)


def _warm_probe() -> bool:
    """No-op pool task: forces a worker to spawn (and proves it can)."""
    return True


class InProcessExecutor:
    """Serial executor: full wire round-trip, master's own process.

    Every command batch passes through ``json.dumps``/``loads`` on both
    legs, so the wire encoding is load-bearing even without a second
    process — the first rung of the distribution ladder.
    """

    def execute(self, snapshot: dict, wires) -> tuple:
        """Run every command of the batch; returns wire-form reports."""
        snapshot_json = json.dumps(snapshot, sort_keys=True)
        wires_json = json.dumps(list(wires), sort_keys=True)
        return tuple(
            json.loads(_execute_star((snapshot_json, wires_json, index)))
            for index in range(len(wires))
        )

    def warm(self) -> None:
        """Nothing to spin up."""

    def close(self) -> None:
        """Nothing to release."""


class ProcessExecutor:
    """Process-pool executor: region commands run in parallel daemons.

    The pool is created lazily on first use and survives across epochs
    (spawn cost is paid once per run, not per plan).  Hosts that refuse
    child processes — e.g. the daemonic workers of a ``control_sweep``
    process pool cannot themselves fork — degrade gracefully to
    in-process execution; the protocol is deterministic, so the result
    is bit-identical either way.
    """

    def __init__(self) -> None:
        self._pool: ProcessPoolExecutor | None = None
        self._fallback = False

    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._fallback:
            return None
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor()
            except (OSError, ValueError, RuntimeError, AssertionError):
                self._fallback = True
                return None
        return self._pool

    def execute(self, snapshot: dict, wires) -> tuple:
        """Fan the batch out to the pool; returns wire-form reports.

        Report order is command order regardless of completion order —
        determinism comes from ordered collection, not scheduling.
        """
        snapshot_json = json.dumps(snapshot, sort_keys=True)
        wires_json = json.dumps(list(wires), sort_keys=True)
        jobs = [
            (snapshot_json, wires_json, index) for index in range(len(wires))
        ]
        pool = self._ensure_pool()
        if pool is not None:
            try:
                payloads = list(pool.map(_execute_star, jobs))
            except (OSError, RuntimeError, AssertionError):
                # A daemonic host can fail at submit time rather than
                # pool construction; same graceful degradation.
                self._fallback = True
                self.close()
                payloads = [_execute_star(job) for job in jobs]
        else:
            payloads = [_execute_star(job) for job in jobs]
        return tuple(json.loads(payload) for payload in payloads)

    def warm(self) -> None:
        """Spin the pool's workers up (best effort) ahead of dispatch.

        Submitting one probe task forces worker spawn now rather than
        on the first command batch — and discovers a fork-refusing host
        early, flipping to the in-process fallback before any plan is
        in flight.
        """
        pool = self._ensure_pool()
        if pool is None:
            return
        try:
            pool.submit(_warm_probe).result()
        except (OSError, RuntimeError, AssertionError):
            self._fallback = True
            self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_executor(kind: str):
    """Build the executor for ``kind``, one of :data:`EXECUTOR_KINDS`."""
    if kind == "local":
        return InProcessExecutor()
    if kind == "pool":
        return ProcessExecutor()
    raise ProtocolError(
        f"unknown executor kind {kind!r}; expected one of {EXECUTOR_KINDS}"
    )
