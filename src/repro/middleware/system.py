"""Assembling a deployment into a running simulated platform.

:class:`MiddlewareSystem` takes a validated
:class:`~repro.core.hierarchy.Hierarchy`, instantiates one
:class:`~repro.middleware.agent.AgentElement` or
:class:`~repro.middleware.server.ServerElement` per node on a shared
event engine, wires parent/child links, and exposes the client-facing
API: :meth:`submit` starts the scheduling phase, the returned
:class:`~repro.middleware.messages.Request` is updated as the phases
progress, and the caller's completion callback fires when the service
response lands.

This is the execution substrate the experiment harnesses drive; the
GoDIET-like launcher in :mod:`repro.deploy.godiet` builds one of these
from a serialized plan.

Beyond constructor-only wiring, a running system supports **incremental
reconfiguration** for the control plane's live migrations:
:meth:`unlink` takes a subtree out of the fan-out (its in-flight work
drains, the rest of the platform keeps serving), :meth:`apply_migration`
executes the structural steps of a
:class:`~repro.deploy.migration.MigrationPlan` region (element creation,
re-homing, removal, role changes) on the live engine, and
:meth:`complete_migration` swaps in the target hierarchy.  Requests that
race a reconfiguration are re-homed automatically: a scheduling round
that finds no route, or a service call whose selected server has been
migrated away, is transparently resubmitted through the (new) tree.

Any number of **disjoint** subtrees may be held unlinked at once — the
substrate of concurrent region migration: each :meth:`unlink` registers
the subtree's member set, overlapping registrations are rejected, and
:meth:`region_busy_predicate` hands the caller a per-region drain-quiet
predicate it can interleave against the engine
(:meth:`~repro.sim.engine.Simulator.run_until_condition`).
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Mapping

from repro.core.hierarchy import Hierarchy, Role
from repro.core.params import ModelParams
from repro.errors import DeploymentError, SimulationError
from repro.middleware.agent import AgentElement
from repro.middleware.detection import DetectionParams, DetectionState
from repro.middleware.messages import Request
from repro.middleware.server import ServerElement
from repro.obs.probe import NULL_OBS, Obs
from repro.sim.engine import Simulator
from repro.sim.stats import IntervalCounter
from repro.sim.trace import TraceRecorder

__all__ = ["MiddlewareSystem"]


class MiddlewareSystem:
    """A deployed, running (simulated) middleware platform.

    Parameters
    ----------
    sim:
        The event engine to deploy onto.
    hierarchy:
        Validated deployment tree.
    params:
        Calibrated middleware parameters.
    app_work:
        ``Wapp`` per service request (MFlop), scalar or per-server mapping.
    trace:
        Optional trace recorder wired into every element.
    detection:
        Optional :class:`~repro.middleware.detection.DetectionParams`.
        When set, failures are *inferred*: agent→child conversations run
        under watchdog timeouts with retry/backoff, crashes and
        partitions are silent (no oracle announcement), and the shared
        :attr:`liveness` table accumulates the timeout evidence the
        control plane's monitor reads.  When ``None`` (the default) the
        PR 6 oracle semantics apply unchanged, bit for bit.
    obs:
        Optional :class:`~repro.obs.Obs` observability handle.  When
        enabled, the system emits trace events (dead-letter storms,
        unlink drains, client-side watchdog timeouts) keyed by sim
        time; when ``None`` the shared null handle makes every
        instrumentation site a single attribute check.  Tracing never
        changes behaviour — all counters are maintained either way.
    """

    def __init__(
        self,
        sim: Simulator,
        hierarchy: Hierarchy,
        params: ModelParams,
        app_work: float | Mapping[str, float],
        trace: TraceRecorder | None = None,
        seed: int = 0,
        bandwidths: Mapping[str, float] | None = None,
        detection: DetectionParams | None = None,
        obs: Obs | None = None,
    ):
        hierarchy.validate(strict=False)
        self.sim = sim
        self.hierarchy = hierarchy
        self.params = params
        self.app_work = app_work
        self.trace = trace
        self.obs = obs if obs is not None else NULL_OBS
        if detection is not None and not isinstance(detection, DetectionParams):
            raise DeploymentError(
                f"detection must be DetectionParams or None, got "
                f"{type(detection).__name__}"
            )
        self.detection = detection
        #: Shared liveness-evidence table (detection mode only).
        self.liveness: DetectionState | None = (
            DetectionState(detection.suspicion_threshold)
            if detection is not None
            else None
        )
        self._rng = random.Random(seed)
        self._bandwidths = bandwidths
        if bandwidths is not None:
            missing = [str(n) for n in hierarchy if str(n) not in bandwidths]
            if missing:
                raise DeploymentError(
                    f"bandwidths missing for nodes: {missing}"
                )
        self.agents: dict[str, AgentElement] = {}
        self.servers: dict[str, ServerElement] = {}
        self.completions = IntervalCounter()
        self._requests: dict[int, Request] = {}
        self._next_id = 0
        self._schedule_waiters: dict[int, Callable[[Request], None]] = {}
        # Subtrees currently held out of the fan-out, root -> member
        # names; disjointness is enforced at unlink time.
        self._unlinked: dict[str, frozenset[str]] = {}
        # Failure layer state.  _in_service tracks accepted service
        # conversations so a crash can dead-letter and resubmit them;
        # failed/degraded/partitioned are the observed-health registries
        # the control plane's monitor reads.
        self._in_service: dict[
            int,
            tuple[
                Request,
                Callable[[Request], None],
                Callable[[Request], None] | None,
                str,
            ],
        ] = {}
        self.failed_nodes: set[str] = set()
        self.degraded: dict[str, float] = {}
        self._partitioned: dict[str, frozenset[str]] = {}
        #: Service conversations whose server crashed mid-call; each one
        #: was resubmitted elsewhere, so clients still complete.
        self.dead_letters = 0
        #: Conversations dropped without resubmission — structurally
        #: zero; the counter exists to state (and test) the invariant.
        self.lost_conversations = 0
        #: Conversations that went through an *internal* re-submit (no
        #: route found mid-migration, dead-lettered by a crash or an
        #: exhausted connection ladder, or a server migrated away
        #: between scheduling and service).  Observability counter —
        #: each one still completes exactly once for its client.
        self.resubmissions = 0

        # Instantiate elements, then wire parent/child links.
        for node in hierarchy:
            self._make_element(
                str(node), hierarchy.power(node), hierarchy.role(node)
            )
        for node in hierarchy:
            element = self._element(str(node))
            parent = hierarchy.parent(node)
            if parent is not None:
                element.parent = self.agents[str(parent)]
            if hierarchy.role(node) is Role.AGENT:
                element.children = [
                    self._element(str(child)) for child in hierarchy.children(node)
                ]
        self.root = self.agents[str(hierarchy.root)]
        self.root.client_sink = self._on_scheduled

    def _make_element(self, name: str, power: float, role: Role):
        """Create (and register) one element; wiring is the caller's job."""
        bandwidth = (
            float(self._bandwidths[name])
            if self._bandwidths is not None and name in self._bandwidths
            else None
        )
        if role is Role.AGENT:
            element = AgentElement(
                self.sim, name, power, self.params, trace=self.trace,
                rng=self._rng, bandwidth=bandwidth,
                detection=self.detection, liveness=self.liveness,
                obs=self.obs,
            )
            self.agents[name] = element
        else:
            work = (
                float(self.app_work[name])
                if isinstance(self.app_work, Mapping)
                else float(self.app_work)
            )
            element = ServerElement(
                self.sim, name, power, self.params, work, trace=self.trace,
                bandwidth=bandwidth,
            )
            self.servers[name] = element
        return element

    def _element(self, name: str):
        if name in self.agents:
            return self.agents[name]
        return self.servers[name]

    def element(self, name: str):
        """The live element deployed on node ``name`` (agent or server)."""
        element = self.agents.get(name) or self.servers.get(name)
        if element is None:
            raise DeploymentError(f"no element deployed on node {name!r}")
        return element

    # ------------------------------------------------------------------ #
    # incremental reconfiguration (live migration)

    @staticmethod
    def _unwire(element) -> None:
        """Remove the parent→element fan-out edge, if present.

        The element's own ``parent`` pointer is left alone: in-flight
        conversations route replies by capture-time origin, so the edge
        removal only stops *new* traffic.
        """
        parent = element.parent
        if parent is not None and element in parent.children:
            parent.children.remove(element)

    def unlink(self, name: str, members: Iterable[str] | None = None) -> None:
        """Take element ``name`` out of its parent's fan-out.

        New scheduling rounds stop reaching the subtree immediately;
        everything already in flight drains normally (replies route to
        their captured origins).  The root cannot be unlinked.

        ``members`` names the subtree being taken dark (defaults to the
        subtree under ``name`` in the current hierarchy).  Several
        subtrees may be dark at once — the basis of concurrent region
        migration — but they must be disjoint: overlapping
        registrations, including unlinking the same root twice, are
        configuration errors, not drains.
        """
        element = self.element(name)
        if element is self.root:
            raise DeploymentError("cannot unlink the root agent")
        if members is not None:
            scope = frozenset(str(member) for member in members)
        else:
            by_name = {str(node): node for node in self.hierarchy}
            scope = (
                frozenset(
                    str(node)
                    for node in self.hierarchy.subtree(by_name[name])
                )
                if name in by_name
                else frozenset((name,))
            )
        for other, other_scope in self._unlinked.items():
            overlap = scope & other_scope
            if overlap:
                raise DeploymentError(
                    f"cannot unlink {name!r}: nodes {sorted(overlap)} are "
                    f"already dark under unlinked subtree {other!r} "
                    "(concurrent regions must be disjoint)"
                )
        self._unwire(element)
        self._unlinked[name] = scope
        if self.obs.enabled:
            self.obs.tracer.event(
                self.sim.now, "migration", "unlink",
                root=name, members=len(scope),
            )

    def _link(self, element, parent_name: str) -> None:
        parent = self.agents.get(parent_name)
        if parent is None:
            raise DeploymentError(
                f"cannot link under {parent_name!r}: not a deployed agent"
            )
        self._unwire(element)
        element.parent = parent
        parent.children.append(element)
        # A re-homed element is back in the fan-out: if it anchored a
        # dark subtree, that registration is over.
        self._unlinked.pop(element.name, None)

    def ensure_linked(self, name: str, parent_name: str) -> None:
        """Re-home ``name`` under ``parent_name`` unless already there.

        The resume half of a drain: region roots that kept their parent
        (for instance a role change in place) were unlinked for the
        drain and need the fan-out edge restored; nodes the plan already
        moved are left untouched.
        """
        element = self.element(name)
        parent = self.agents.get(parent_name)
        if parent is None:
            raise DeploymentError(
                f"cannot resume {name!r} under {parent_name!r}: "
                "not a deployed agent"
            )
        if element not in parent.children:
            self._link(element, parent_name)
        self._unlinked.pop(name, None)

    def region_busy(self, names: Iterable[str]) -> bool:
        """Whether any listed element still holds queued or in-flight work.

        The drain-quiet predicate of a live migration: names without a
        deployed element (already removed, not yet attached) count as
        quiet.
        """
        for name in names:
            element = self.agents.get(name) or self.servers.get(name)
            if element is None:
                continue
            if element.resource.is_busy or element.resource.queue_length:
                return True
            if element.in_flight:
                return True
        return False

    def region_busy_predicate(self, names: Iterable[str]):
        """A zero-argument drain-quiet probe over a fixed name set.

        Captures ``names`` once, so concurrent migrations can hand one
        predicate per dark region to
        :meth:`~repro.sim.engine.Simulator.run_until_condition` without
        re-materializing membership on every event.
        """
        snapshot = tuple(str(name) for name in names)
        return lambda: self.region_busy(snapshot)

    def apply_migration(self, steps) -> None:
        """Execute the structural steps of one migration-plan region.

        Steps are :class:`~repro.deploy.migration.MigrationStep` in plan
        order; ``drain``/``resume`` brackets are ignored here (the
        caller paces them against the engine).  Replaced elements (role
        changes) and removed elements are dropped from the fan-out only:
        the Python objects stay alive until their in-flight work drains,
        exactly like a decommissioned daemon finishing its last call.
        """
        for step in steps:
            if not step.is_structural:
                continue
            name = str(step.node)
            if step.op == "attach":
                element = self._make_element(name, step.power, step.role)
                self._link(element, str(step.parent))
            elif step.op == "move":
                self._link(self.element(name), str(step.parent))
            elif step.op == "detach":
                self._unwire(self.element(name))
                self.agents.pop(name, None)
                self.servers.pop(name, None)
                self._unlinked.pop(name, None)
                # An evicted/removed node takes its health annotations
                # with it; a later re-attach starts clean.
                self.degraded.pop(name, None)
            elif step.op in ("promote", "demote"):
                old = self.element(name)
                parent = old.parent
                position = -1
                if parent is not None and old in parent.children:
                    position = parent.children.index(old)
                self._unwire(old)
                if step.op == "promote":
                    self.servers.pop(name, None)
                    replacement = self._make_element(
                        name, old.power, Role.AGENT
                    )
                else:
                    if getattr(old, "children", None):
                        raise DeploymentError(
                            f"cannot demote agent {name!r}: it still has "
                            f"{len(old.children)} children"
                        )
                    self.agents.pop(name, None)
                    replacement = self._make_element(
                        name, old.power, Role.SERVER
                    )
                replacement.parent = parent
                if parent is not None and position >= 0:
                    parent.children.insert(position, replacement)
            else:
                raise DeploymentError(
                    f"unknown migration step op {step.op!r}"
                )

    def complete_migration(self, target: Hierarchy) -> None:
        """Swap in the target hierarchy after its plan has been applied.

        Verifies that the element registry matches the target's node
        set, role by role, and that the root element is unchanged —
        the client layer keeps its reference across live migrations.
        Fan-out lists are normalized to the target's child order, so a
        migrated platform is wired identically to a fresh build of the
        same tree (the serial fan-out makes child order part of the
        deployment, not an accident of migration history).
        """
        target.validate(strict=False)
        expected_agents = {str(n) for n in target.agents}
        expected_servers = {str(n) for n in target.servers}
        if (
            set(self.agents) != expected_agents
            or set(self.servers) != expected_servers
        ):
            raise DeploymentError(
                "migration left the element registry inconsistent: "
                f"agents {sorted(set(self.agents) ^ expected_agents)}, "
                f"servers {sorted(set(self.servers) ^ expected_servers)} "
                "differ from the target hierarchy"
            )
        if self.agents[str(target.root)] is not self.root:
            raise DeploymentError(
                "live migration must preserve the root element"
            )
        for node in target.agents:
            agent = self.agents[str(node)]
            expected = [str(child) for child in target.children(node)]
            wired = {element.name for element in agent.children}
            # Under oracle semantics partitioned roots are legitimately
            # absent from the live fan-out and the normalization keeps
            # them dark.  Under detection, partitions never touch the
            # wiring (the edges stay up; messages just vanish), so the
            # normalization must not sever them either.
            dark = (
                {name for name in expected if name in self._partitioned}
                if self.detection is None
                else set()
            )
            if wired != set(expected) and wired != set(expected) - dark:
                raise DeploymentError(
                    f"agent {node!r} wiring diverges from the target: "
                    f"has {sorted(wired)}, expected {sorted(expected)}"
                )
            agent.children = [
                self._element(name)
                for name in expected
                if self.detection is not None
                or name not in self._partitioned
            ]
        self.hierarchy = target
        self._unlinked.clear()
        # Partitions are *network* conditions; a migration cannot heal
        # them.  Re-scope surviving registrations to the new tree (the
        # fan-out normalization above already re-severed their edges).
        if self._partitioned:
            by_name = {str(node): node for node in target}
            self._partitioned = {
                root: frozenset(
                    str(node) for node in target.subtree(by_name[root])
                )
                for root in self._partitioned
                if root in by_name
            }

    # ------------------------------------------------------------------ #
    # failure surgery (fault injection)

    def _subtree_names(self, name: str) -> frozenset[str]:
        """Members of the subtree rooted at ``name``, per the hierarchy.

        The logical tree, not the live fan-out, defines membership:
        partitioned sub-subtrees are unwired from their parents but are
        still part of the deployment a crash takes down.
        """
        by_name = {str(node): node for node in self.hierarchy}
        if name in by_name:
            return frozenset(
                str(node) for node in self.hierarchy.subtree(by_name[name])
            )
        return frozenset((name,))

    def fail_server(self, name: str) -> tuple[tuple[str, ...], int]:
        """Crash a single server node.

        Returns ``(affected node names, dead-lettered conversations)``.
        """
        if name not in self.servers:
            raise DeploymentError(
                f"cannot fail server {name!r}: not a deployed server"
            )
        return self._fail_elements(frozenset((name,)))

    def fail_subtree(self, name: str) -> tuple[tuple[str, ...], int]:
        """Crash element ``name`` and, for agents, its whole subtree.

        The correlated-failure model: an agent dying takes its region
        with it (a rack, a site, a cluster partition that never heals).
        Returns ``(affected node names, dead-lettered conversations)``.
        """
        element = self.element(name)
        if element is self.root:
            raise DeploymentError("cannot fail the root agent")
        if name in self.servers:
            return self._fail_elements(frozenset((name,)))
        return self._fail_elements(self._subtree_names(name))

    def fail_silent(self, name: str) -> tuple[str, ...]:
        """Crash ``name`` (and its subtree) *without telling anyone*.

        The detection-mode crash: every member's resource is halted (work
        in progress vanishes, new deliveries are black-holed) and marked
        unreachable, but the registries, the hierarchy, and the fan-out
        are all left intact — the rest of the platform only learns of
        the death through timed-out conversations, and the structural
        surgery (:meth:`fail_subtree`) happens later, when the control
        plane *confirms* the failure.  Returns the affected names.
        """
        element = self.element(name)
        if element is self.root:
            raise DeploymentError("cannot fail the root agent")
        members = (
            frozenset((name,))
            if name in self.servers
            else self._subtree_names(name)
        )
        for member in sorted(members):
            el = self.agents.get(member) or self.servers.get(member)
            if el is None:
                continue
            el.resource.halt()
            el.reachable = False
        return tuple(sorted(members))

    def _fail_elements(self, names: frozenset[str]) -> tuple[tuple[str, ...], int]:
        """Kill ``names`` (a subtree-closed set) in one atomic operation.

        Five steps, each deterministic: unwire the topmost failed
        elements from the fan-out; halt every failed resource (work in
        progress vanishes — crashed daemons do not finish their calls);
        deregister; dead-letter in-flight service conversations on
        failed servers and resubmit them through the surviving tree;
        synthesize the scheduling replies surviving agents were still
        awaiting from failed children.  Finally the hierarchy is pruned
        to the survivors — observed state is the source of truth the
        control plane reconciles against.
        """
        if self.root.name in names:
            raise DeploymentError("cannot fail the root agent")
        for name in sorted(names):
            element = self.agents.get(name) or self.servers.get(name)
            if element is None:
                continue
            parent = element.parent
            if parent is None or parent.name not in names:
                self._unwire(element)
        for name in sorted(names):
            element = self.agents.get(name) or self.servers.get(name)
            if element is None:
                continue
            element.resource.halt()
            self.agents.pop(name, None)
            self.servers.pop(name, None)
            self._unlinked.pop(name, None)
            self._partitioned.pop(name, None)
            self.degraded.pop(name, None)
        dead = 0
        for request_id in sorted(self._in_service):
            request, on_complete, on_scheduled, server_name = (
                self._in_service[request_id]
            )
            if server_name in names:
                del self._in_service[request_id]
                dead += 1
                # Resubmit-elsewhere: the conversation restarts from a
                # fresh scheduling round with the caller's callbacks
                # intact, so on_complete still fires exactly once.
                self.resubmissions += 1
                self.submit(request.client_name, on_complete, on_scheduled)
        self.dead_letters += dead
        if dead and self.obs.enabled:
            self.obs.tracer.event(
                self.sim.now, "middleware", "dead_letters",
                count=dead, nodes=len(names),
            )
        for agent_name in sorted(self.agents):
            agent = self.agents[agent_name]
            for name in sorted(names):
                agent.child_failed(name)
        pruned = self.hierarchy.copy()
        by_name = {str(node): node for node in pruned}
        doomed = [by_name[name] for name in names if name in by_name]
        for node in sorted(doomed, key=pruned.depth, reverse=True):
            pruned.remove_leaf(node)
        pruned.validate(strict=False)
        self.hierarchy = pruned
        self.failed_nodes.update(names)
        return tuple(sorted(names)), dead

    def degrade_node(self, name: str, factor: float) -> None:
        """Multiply node ``name``'s resource rate by ``factor``.

        The slow-node (straggler) model: the node keeps answering
        predictions and accepting work at ``factor`` of its nominal
        speed, while its availability estimate still reports *nominal*
        backlog seconds — exactly the pathology that makes stragglers
        attract work in prediction-based schedulers.  ``factor=1.0``
        restores nominal speed.
        """
        element = self.element(name)
        element.resource.set_rate(factor)
        if factor == 1.0:
            self.degraded.pop(name, None)
        else:
            self.degraded[name] = factor

    def partition(self, name: str) -> tuple[str, ...]:
        """Cut the subtree at ``name`` off the fan-out (healable).

        A control-plane partition: new scheduling rounds stop reaching
        the subtree, in-flight work drains normally (the transport holds
        established flows), and :meth:`heal` can reconnect it exactly.
        Distinct from :meth:`unlink` only in bookkeeping — partitions
        are *observed faults* the monitor reports, not migration drains.
        """
        element = self.element(name)
        if element is self.root:
            raise DeploymentError("cannot partition the root agent")
        if name in self._partitioned:
            raise DeploymentError(f"subtree {name!r} is already partitioned")
        members = self._subtree_names(name)
        for other, other_scope in self._partitioned.items():
            overlap = members & other_scope
            if overlap:
                raise DeploymentError(
                    f"cannot partition {name!r}: nodes {sorted(overlap)} "
                    f"are already dark under partition {other!r}"
                )
        if self.detection is None:
            self._unwire(element)
        else:
            # Silent partition: the fan-out edge stays up, but every
            # delivery into the subtree vanishes — parents discover the
            # cut only through watchdog timeouts.
            for member in sorted(members):
                el = self.agents.get(member) or self.servers.get(member)
                if el is not None:
                    el.reachable = False
        self._partitioned[name] = members
        return tuple(sorted(members))

    def heal(self, name: str) -> tuple[str, ...] | None:
        """Reconnect a partitioned subtree; None if there is none to heal.

        The parent's fan-out is rebuilt in hierarchy child order, so a
        partition+heal cycle restores wiring identical to a fresh build
        of the same tree — partitions leave no structural scar.
        """
        members = self._partitioned.pop(name, None)
        if members is None:
            return None
        if self.detection is not None:
            # Silent heal: the wiring never changed; flip reachability
            # back on and let the next answered conversation clear the
            # accumulated suspicion.
            restored = False
            for member in sorted(members):
                el = self.agents.get(member) or self.servers.get(member)
                if el is not None:
                    el.reachable = True
                    restored = True
            return tuple(sorted(members)) if restored else None
        element = self.agents.get(name) or self.servers.get(name)
        by_name = {str(node): node for node in self.hierarchy}
        node = by_name.get(name)
        if element is None or node is None:
            return None
        parent = self.hierarchy.parent(node)
        if parent is None or str(parent) not in self.agents:
            return None
        parent_agent = self.agents[str(parent)]
        element.parent = parent_agent
        rebuilt = []
        previously_wired = {child.name for child in parent_agent.children}
        for child in self.hierarchy.children(parent):
            child_name = str(child)
            if child_name in self._partitioned:
                continue  # a sibling partition stays dark
            child_element = self.agents.get(child_name) or self.servers.get(
                child_name
            )
            if child_element is None:
                continue
            if child_name == name or child_name in previously_wired:
                rebuilt.append(child_element)
        # Defensive: keep any wired child the hierarchy does not list
        # (cannot happen outside a migration window, but never drop
        # live edges silently).
        known = {child.name for child in rebuilt}
        for child in parent_agent.children:
            if child.name not in known:
                rebuilt.append(child)
        parent_agent.children = rebuilt
        return tuple(sorted(members))

    @property
    def partitioned_subtrees(self) -> dict[str, frozenset[str]]:
        """Snapshot of partitioned subtrees, root -> member names."""
        return dict(self._partitioned)

    # ------------------------------------------------------------------ #
    # client-facing API

    def submit(
        self,
        client_name: str,
        on_complete: Callable[[Request], None],
        on_scheduled: Callable[[Request], None] | None = None,
    ) -> Request:
        """Submit a full two-phase request on behalf of ``client_name``.

        The scheduling phase starts immediately; once the root returns the
        selected server, the service phase is issued automatically.
        ``on_complete`` fires with the finished :class:`Request`.

        During a live migration, a scheduling round can race the
        reconfiguration (no route found, or the selected server migrated
        away before service); such requests are transparently
        resubmitted, so ``on_complete`` still fires exactly once, while
        ``on_scheduled`` fires once per scheduling round — possibly
        more than once for one logical request.
        """
        request = self._start_schedule(client_name)

        def scheduled(req: Request) -> None:
            if on_scheduled is not None:
                on_scheduled(req)
            if req.selected_server is None:
                # Every route was dark — possible only transiently, while
                # a live migration drains the last subtree an agent had.
                # Resubmit; the retry pays a fresh scheduling round trip.
                self.resubmissions += 1
                self.submit(client_name, on_complete, on_scheduled)
                return
            self._start_service(req, on_complete, on_scheduled)

        self._schedule_waiters[request.request_id] = scheduled
        return request

    def submit_schedule_only(
        self, client_name: str, on_scheduled: Callable[[Request], None]
    ) -> Request:
        """Run only the scheduling phase (used by calibration campaigns)."""
        request = self._start_schedule(client_name)
        self._schedule_waiters[request.request_id] = on_scheduled
        return request

    # ------------------------------------------------------------------ #

    def _start_schedule(self, client_name: str) -> Request:
        self._next_id += 1
        request = Request(
            request_id=self._next_id,
            client_name=client_name,
            submitted_at=self.sim.now,
        )
        self._requests[request.request_id] = request
        # Client -> root transfer: the client side is not a modelled
        # resource; the root pays its receive time in receive_request.
        self.root.receive_request(request.request_id)
        return request

    def _on_scheduled(self, request_id: int, server_name: str | None) -> None:
        request = self._requests[request_id]
        request.scheduled_at = self.sim.now
        request.selected_server = server_name
        waiter = self._schedule_waiters.pop(request_id, None)
        if waiter is not None:
            waiter(request)

    def _start_service(
        self,
        request: Request,
        on_complete: Callable[[Request], None],
        on_scheduled: Callable[[Request], None] | None = None,
    ) -> None:
        server = self.servers.get(request.selected_server or "")
        if server is None:
            # The selected server was migrated away (or crashed) between
            # scheduling and service — reschedule through the current
            # tree, with the caller's callbacks intact.
            self.resubmissions += 1
            self.submit(request.client_name, on_complete, on_scheduled)
            return
        if self.detection is not None and (
            server.resource.is_halted or not server.reachable
        ):
            # Detection mode: the client cannot know the server is dead
            # or cut off — the connection attempt hangs, times out, and
            # retries up the backoff ladder before giving up and paying
            # a fresh scheduling round.
            self._retry_service(request, on_complete, on_scheduled,
                                server.name, 0)
            return
        self._begin_service(request, on_complete, on_scheduled, server)

    def _retry_service(
        self,
        request: Request,
        on_complete: Callable[[Request], None],
        on_scheduled: Callable[[Request], None] | None,
        server_name: str,
        attempt: int,
    ) -> None:
        """One rung of the client-side service-connection timeout ladder.

        These conversations are never entered into ``_in_service`` (no
        server accepted them), so a later excision of the dead server
        cannot double-resubmit them.
        """
        detection = self.detection
        wait = detection.timeout * (detection.backoff**attempt)

        def expired() -> None:
            if self.liveness is not None:
                self.liveness.note_timeout(server_name, self.sim.now)
            if self.obs.enabled:
                self.obs.tracer.event(
                    self.sim.now, "watchdog", "timeout",
                    node=server_name, attempt=attempt, side="client",
                )
            server = self.servers.get(server_name)
            if (
                server is not None
                and server.reachable
                and not server.resource.is_halted
            ):
                # The peer came back (a healed partition) before the
                # ladder ran out: the retry connects and service runs.
                self._begin_service(request, on_complete, on_scheduled,
                                    server)
                return
            if attempt < detection.retries:
                self._retry_service(request, on_complete, on_scheduled,
                                    server_name, attempt + 1)
                return
            # Ladder exhausted: give the conversation to a surviving
            # server through a fresh scheduling round.
            self.dead_letters += 1
            self.resubmissions += 1
            if self.obs.enabled:
                self.obs.tracer.event(
                    self.sim.now, "watchdog", "gaveup",
                    node=server_name, side="client",
                )
            self.submit(request.client_name, on_complete, on_scheduled)

        self.sim.schedule(wait, expired)

    def _begin_service(
        self,
        request: Request,
        on_complete: Callable[[Request], None],
        on_scheduled: Callable[[Request], None] | None,
        server: ServerElement,
    ) -> None:
        request.service_started_at = self.sim.now
        self._in_service[request.request_id] = (
            request, on_complete, on_scheduled, server.name
        )

        def complete() -> None:
            if self._in_service.pop(request.request_id, None) is None:
                # Dead-lettered while in flight: the conversation was
                # already resubmitted elsewhere, this late completion
                # must not double-count.
                return
            request.completed_at = self.sim.now
            self.completions.record(self.sim.now)
            on_complete(request)

        server.receive_service(request.request_id, complete)

    # ------------------------------------------------------------------ #
    # observability

    def utilization_report(self) -> dict[str, float]:
        """Utilization of every node resource at the current time."""
        report = {}
        for name, agent in self.agents.items():
            report[name] = agent.resource.utilization()
        for name, server in self.servers.items():
            report[name] = server.resource.utilization()
        return report

    def bottleneck(self) -> tuple[str, float]:
        """The busiest node and its utilization — the simulated analogue
        of the model's limiting element."""
        report = self.utilization_report()
        node = max(report, key=lambda k: report[k])
        return node, report[node]

    def service_counts(self) -> dict[str, int]:
        """Completed service executions per server (Eq. 8's N_i)."""
        return {
            name: server.services_done for name, server in self.servers.items()
        }

    def assign_fluid_rates(
        self, total_rate: float
    ) -> tuple[tuple[str, float], ...]:
        """Distribute an aggregate fluid load over the deployed servers.

        The hybrid population's served rate (integrated analytically by
        :class:`~repro.sim.fluid.FluidPopulation`) is attributed to
        servers in proportion to their power — the allocation the
        paper's homogeneous-throughput model implies at saturation.
        Each server's :attr:`~repro.middleware.server.ServerElement.
        fluid_rate` is updated (bookkeeping only; nothing enters a
        resource queue) and the ``(name, rate)`` pairs are returned in
        sorted name order.  Deterministic: pure arithmetic over the
        current registry, summed with ``fsum`` so the result does not
        depend on summation order.
        """
        names = sorted(self.servers)
        if total_rate <= 0.0 or not names:
            for name in names:
                self.servers[name].fluid_rate = 0.0
            return tuple((name, 0.0) for name in names)
        total_power = math.fsum(self.servers[name].power for name in names)
        allocation = []
        for name in names:
            server = self.servers[name]
            share = (
                total_rate * (server.power / total_power)
                if total_power > 0.0
                else total_rate / len(names)
            )
            server.fluid_rate = share
            allocation.append((name, share))
        return tuple(allocation)

    def total_completed(self) -> int:
        return self.completions.count
