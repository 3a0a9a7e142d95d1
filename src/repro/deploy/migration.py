"""Subtree-granular migration planning between two deployments.

The control plane used to realize every redeploy as stop-the-world:
tear the whole platform down, pay one global downtime window, rebuild.
This module supplies the structural half of the live alternative:
:func:`plan_migration` diffs an old and a new
:class:`~repro.core.hierarchy.Hierarchy` into a :class:`MigrationPlan` —
an ordered sequence of :class:`MigrationRegion` batches, each a drained
subtree plus the structural steps that transform it — so a runtime can
migrate one subtree at a time while the rest of the platform keeps
serving.

Step vocabulary (:class:`MigrationStep.op`):

``drain`` / ``resume``
    Region brackets: the listed subtree stops accepting new work /
    starts serving again.  No structural effect; these are what the
    downtime accounting hangs off.
``attach``
    A node joins the deployment under ``parent`` with ``role``/``power``.
``move``
    A surviving node (and its subtree) re-homes under ``parent``.
``detach``
    A node leaves the deployment (guaranteed to be a leaf by the time
    the step runs).
``promote`` / ``demote``
    A surviving node changes role (server ↔ agent) in place.

Ordering guarantees, by construction and verified by replay:

* within a region: drain, promotes, attaches (new-tree BFS order, so
  parents exist first), moves (new-tree depth order, with a
  park-at-root fallback for cyclic swaps), detaches (old-tree leaves
  first), demotes, resume;
* across regions: topologically sorted, so a move never targets a
  parent that a later region would only then attach or promote;
* a capacity-only growth (new servers under surviving agents) lands in
  a dedicated drain-free region — pure scale-ups cost zero downtime.

Regions also carry their cross-region dependencies explicitly
(:attr:`MigrationRegion.depends_on`), which is what makes the serial
order *relaxable*: :meth:`MigrationPlan.concurrent_schedule` groups the
regions into dependency **waves** — every region in a wave has all of
its providers in earlier waves and touches a node set disjoint from its
wave-mates — so a runtime may drain, reconfigure and resume all regions
of one wave simultaneously.  Applying the waves in order (regions
within a wave in *any* order) yields the same tree as the serial
:meth:`MigrationPlan.apply`, the equivalence the concurrent test
battery asserts.

Every plan is **verified**: :func:`plan_migration` replays the steps on
a copy of the source tree (:meth:`MigrationPlan.apply`) and falls back
to a single stop-the-world region (``kind="restart"``) whenever the
incremental recipe cannot reproduce the target exactly — changed roots,
changed node powers, or any diff the ordering rules cannot realize.
``apply`` is also the test suite's equivalence oracle: applying a plan
to the old tree must yield a tree identical to the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.hierarchy import Hierarchy, NodeId, Role
from repro.errors import DeploymentError

__all__ = [
    "MigrationStep",
    "MigrationRegion",
    "MigrationPlan",
    "plan_migration",
    "apply_steps",
    "hierarchies_equal",
]

#: Structural ops, in the relative order they run inside a region.
_STRUCTURAL_OPS = ("promote", "attach", "move", "detach", "demote")


@dataclass(frozen=True)
class MigrationStep:
    """One migration step; fields beyond ``op``/``node`` are op-specific."""

    op: str
    node: NodeId
    parent: NodeId | None = None  # attach / move target
    role: Role | None = None      # attach only
    power: float = 0.0            # attach only
    subtree: tuple[NodeId, ...] = ()  # drain / resume membership

    @property
    def is_structural(self) -> bool:
        return self.op in _STRUCTURAL_OPS

    def to_wire(self) -> dict:
        """JSON-safe dict form for the master/executor command protocol.

        Node ids are stringified (they are strings in practice — see
        :data:`~repro.core.hierarchy.NodeId`) and the :class:`Role`
        enum travels as its value; :meth:`from_wire` inverts exactly.
        """
        return {
            "op": self.op,
            "node": str(self.node),
            "parent": str(self.parent) if self.parent is not None else None,
            "role": self.role.value if self.role is not None else None,
            "power": self.power,
            "subtree": [str(node) for node in self.subtree],
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "MigrationStep":
        return cls(
            op=wire["op"],
            node=wire["node"],
            parent=wire["parent"],
            role=Role(wire["role"]) if wire["role"] is not None else None,
            power=wire["power"],
            subtree=tuple(wire["subtree"]),
        )

    def describe(self) -> str:
        if self.op == "attach":
            return f"attach {self.node}({self.role.value}) under {self.parent}"
        if self.op == "move":
            return f"move {self.node} under {self.parent}"
        if self.op in ("drain", "resume"):
            return f"{self.op} {self.node} ({len(self.subtree)} nodes)"
        return f"{self.op} {self.node}"


@dataclass(frozen=True)
class MigrationRegion:
    """One migration batch: a drained subtree and its structural steps.

    ``root`` anchors the region in the *old* tree; the drain-free
    capacity-growth region uses the sentinel root ``"+"`` and an empty
    ``drained`` tuple, and the stop-the-world fallback uses ``"*"`` with
    every old node drained.

    ``depends_on`` lists the roots of the regions that must complete
    before this one may run: every move or attach target this region
    needs that another region only provides (by attaching or promoting
    it).  Regions with disjoint ``depends_on`` chains are independent —
    the raw material of :meth:`MigrationPlan.concurrent_schedule`.
    """

    root: NodeId
    drained: tuple[NodeId, ...]
    steps: tuple[MigrationStep, ...]
    depends_on: tuple[NodeId, ...] = ()

    @property
    def structural_steps(self) -> tuple[MigrationStep, ...]:
        return tuple(s for s in self.steps if s.is_structural)

    @property
    def touched(self) -> int:
        """Structural step count — the config-push unit of the cost model."""
        return len(self.structural_steps)

    @property
    def members(self) -> frozenset[NodeId]:
        """Every node this region owns: its drained subtree + its attaches.

        Move *targets* are read-only anchors, not members, so two
        regions may safely reference the same surviving parent; the
        concurrent test battery asserts that members of regions claimed
        concurrent never overlap.
        """
        owned = set(self.drained)
        owned.update(s.node for s in self.steps if s.op == "attach")
        return frozenset(owned)


@dataclass(frozen=True)
class MigrationPlan:
    """An ordered, verified recipe transforming one deployment into another.

    ``kind`` is ``"incremental"`` when the plan migrates subtree by
    subtree, ``"restart"`` when only a stop-the-world rebuild realizes
    the diff (root change, power change, or an unorderable move set),
    and ``"cold"`` when there is no source deployment at all.
    """

    kind: str
    regions: tuple[MigrationRegion, ...] = field(repr=False)
    source_nodes: int = 0
    target_nodes: int = 0

    @property
    def steps(self) -> tuple[MigrationStep, ...]:
        return tuple(s for region in self.regions for s in region.steps)

    @property
    def touched(self) -> int:
        return sum(region.touched for region in self.regions)

    @property
    def is_noop(self) -> bool:
        return not self.regions

    @property
    def is_live(self) -> bool:
        """Whether this plan migrates incrementally (vs full restart)."""
        return self.kind == "incremental"

    def apply(self, old: Hierarchy | None) -> Hierarchy:
        """Replay the structural steps; returns the resulting tree.

        For an ``incremental``/``cold`` plan applied to its source, the
        result is identical to the target hierarchy — the equivalence
        the test suite asserts.  ``restart`` plans rebuild from empty.
        """
        if self.kind == "cold":
            tree = Hierarchy()
        elif old is None:
            raise DeploymentError(
                f"{self.kind} plan needs a source hierarchy"
            )
        else:
            tree = old.copy()
        apply_steps(tree, self.steps)
        return tree

    def concurrent_schedule(self) -> tuple[tuple[MigrationRegion, ...], ...]:
        """Group the regions into dependency waves for parallel draining.

        Wave ``k`` holds every region whose providers (transitively) sit
        in waves ``< k`` — the longest dependency chain ending at the
        region.  Regions of one wave touch disjoint node sets and may
        drain / reconfigure / resume simultaneously; waves run in
        order.  Applying the waves (regions within a wave in any order)
        reproduces :meth:`apply` exactly.  The plan's serial region
        order is a linear extension of this schedule, so a noop plan
        yields ``()`` and a restart plan one single-region wave.
        """
        if not self.regions:
            return ()
        level: dict[NodeId, int] = {}
        for region in self.regions:  # already topologically ordered
            deps = [level[root] + 1 for root in region.depends_on]
            level[region.root] = max(deps, default=0)
        waves: list[list[MigrationRegion]] = [
            [] for _ in range(max(level.values()) + 1)
        ]
        for region in self.regions:
            waves[level[region.root]].append(region)
        return tuple(tuple(wave) for wave in waves)

    def describe(self) -> str:
        if self.is_noop:
            return "MigrationPlan[noop]"
        regions = ", ".join(
            f"{region.root}:{region.touched} steps"
            f"/{len(region.drained)} drained"
            for region in self.regions
        )
        return (
            f"MigrationPlan[{self.kind}] {self.source_nodes}->"
            f"{self.target_nodes} nodes, {len(self.regions)} region(s) "
            f"({regions})"
        )


def apply_steps(tree: Hierarchy, steps) -> Hierarchy:
    """Replay migration steps on ``tree`` in place (and return it).

    The single structural interpreter behind :meth:`MigrationPlan.apply`
    and the schedule-equivalence tests: non-structural brackets are
    skipped, attaches on an empty tree seed the root.
    """
    for step in steps:
        if not step.is_structural:
            continue
        if step.op == "attach":
            if tree.is_empty and step.parent is None:
                tree.set_root(step.node, step.power)
            elif step.role is Role.AGENT:
                tree.add_agent(step.node, step.power, step.parent)
            else:
                tree.add_server(step.node, step.power, step.parent)
        elif step.op == "move":
            tree.reattach(step.node, step.parent)
        elif step.op == "detach":
            tree.remove_leaf(step.node)
        elif step.op == "promote":
            tree.promote(step.node)
        elif step.op == "demote":
            tree.demote(step.node)
    return tree


def hierarchies_equal(a: Hierarchy, b: Hierarchy) -> bool:
    """Structural identity: same nodes, parents, roles and powers."""
    nodes_a, nodes_b = set(a), set(b)
    if nodes_a != nodes_b:
        return False
    for node in nodes_a:
        if (
            a.parent(node) != b.parent(node)
            or a.role(node) is not b.role(node)
            or a.power(node) != b.power(node)
        ):
            return False
    return True


# ---------------------------------------------------------------------- #
# plan construction


def _restart_plan(old: Hierarchy | None, new: Hierarchy) -> MigrationPlan:
    """Stop-the-world fallback: drain all, rebuild the target from scratch."""
    steps: list[MigrationStep] = []
    old_nodes: tuple[NodeId, ...] = ()
    if old is not None and not old.is_empty:
        old_nodes = tuple(old)
        steps.append(MigrationStep("drain", "*", subtree=old_nodes))
        for node in sorted(old, key=lambda n: (-old.depth(n), str(n))):
            steps.append(MigrationStep("detach", node))
    new_nodes = list(new)
    steps.append(
        MigrationStep(
            "attach", new_nodes[0], parent=None, role=Role.AGENT,
            power=new.power(new_nodes[0]),
        )
    )
    for node in new_nodes[1:]:
        steps.append(
            MigrationStep(
                "attach", node, parent=new.parent(node),
                role=new.role(node), power=new.power(node),
            )
        )
    steps.append(MigrationStep("resume", "*", subtree=tuple(new_nodes)))
    region = MigrationRegion(root="*", drained=old_nodes, steps=tuple(steps))
    return MigrationPlan(
        kind="restart" if old is not None else "cold",
        regions=(region,),
        source_nodes=len(old) if old is not None else 0,
        target_nodes=len(new),
    )


def _order_moves(
    scratch: Hierarchy,
    moves: list[NodeId],
    new: Hierarchy,
    root: NodeId,
) -> list[MigrationStep] | None:
    """Emit the region's move steps in an order `reattach` accepts.

    Greedy by new-tree depth; a move whose target still sits inside the
    moving subtree is deferred, and a full pass of deferrals parks the
    first blocked node at the root (a legal move from anywhere) to break
    the cycle.  Applies each move to ``scratch`` so legality checks see
    the evolving tree.  Returns ``None`` if the set cannot be ordered.
    """
    pending = sorted(moves, key=lambda n: (new.depth(n), str(n)))
    steps: list[MigrationStep] = []
    budget = 2 * len(pending) + 2
    while pending and budget > 0:
        budget -= 1
        progressed = False
        still: list[NodeId] = []
        for node in pending:
            target = new.parent(node)
            if (
                target in scratch
                and scratch.role(target) is Role.AGENT
                and target not in scratch.subtree(node)
            ):
                scratch.reattach(node, target)
                steps.append(MigrationStep("move", node, parent=target))
                progressed = True
            else:
                still.append(node)
        pending = still
        if pending and not progressed:
            # Cyclic swap: evacuate the shallowest blocked node to the
            # root, which is never inside any proper subtree.
            node = pending[0]
            scratch.reattach(node, root)
            steps.append(MigrationStep("move", node, parent=root))
    return steps if not pending else None


def _incremental_plan(
    old: Hierarchy, new: Hierarchy
) -> MigrationPlan | None:
    """Build the subtree-granular plan, or None if the diff defeats it."""
    old_nodes, new_nodes = set(old), set(new)
    if old.root != new.root:
        return None
    common = old_nodes & new_nodes
    if any(old.power(node) != new.power(node) for node in common):
        # Same name, different rating: not a migration, a replacement.
        return None
    removed = old_nodes - new_nodes
    added = new_nodes - old_nodes
    moved = {
        node for node in common if old.parent(node) != new.parent(node)
    }
    promoted = {
        node
        for node in common
        if old.role(node) is Role.SERVER and new.role(node) is Role.AGENT
    }
    demoted = {
        node
        for node in common
        if old.role(node) is Role.AGENT and new.role(node) is Role.SERVER
    }
    touched = removed | moved | promoted | demoted
    if not touched and not added:
        return MigrationPlan(
            kind="incremental", regions=(),
            source_nodes=len(old), target_nodes=len(new),
        )

    # Drain regions: maximal touched subtrees of the old tree.
    old_index = {node: i for i, node in enumerate(old)}

    def region_root_of(node: NodeId) -> NodeId:
        anchor = node
        current: NodeId | None = node
        while current is not None:
            if current in touched:
                anchor = current
            current = old.parent(current)
        return anchor

    region_roots = sorted(
        {region_root_of(node) for node in touched},
        key=lambda n: old_index[n],
    )
    drained_by_root = {
        root: tuple(old.subtree(root)) for root in region_roots
    }
    region_of: dict[NodeId, NodeId] = {}
    for root, members in drained_by_root.items():
        for member in members:
            region_of[member] = root

    # Added nodes join the region of their new parent; chains of added
    # nodes resolve in new-tree BFS order.  A parent outside every
    # drained subtree means the attach disturbs nothing: it goes to the
    # drain-free growth region ("+").
    attach_order = [node for node in new if node in added]
    for node in attach_order:
        parent = new.parent(node)
        region_of[node] = region_of.get(parent, "+")

    grouped: dict[NodeId, dict[str, list[MigrationStep]]] = {
        root: {op: [] for op in _STRUCTURAL_OPS}
        for root in ["+", *region_roots]
    }
    for node in sorted(promoted, key=str):
        grouped[region_of[node]]["promote"].append(
            MigrationStep("promote", node)
        )
    for node in attach_order:
        grouped[region_of[node]]["attach"].append(
            MigrationStep(
                "attach", node, parent=new.parent(node),
                role=new.role(node), power=new.power(node),
            )
        )
    for node in sorted(
        removed, key=lambda n: (-old.depth(n), str(n))
    ):
        grouped[region_of[node]]["detach"].append(
            MigrationStep("detach", node)
        )
    for node in sorted(demoted, key=str):
        grouped[region_of[node]]["demote"].append(
            MigrationStep("demote", node)
        )
    moves_by_region: dict[NodeId, list[NodeId]] = {}
    for node in moved:
        moves_by_region.setdefault(region_of[node], []).append(node)

    # Region order: growth first (capacity before disruption), then a
    # topological order over "a step here needs a node another region
    # attaches or promotes first", ties broken by old-tree position.
    # The growth region's attaches count as providers too: a drained
    # region may move a subtree under a freshly grown agent, and a
    # schedule that relaxes the serial order needs that edge explicit.
    providers: dict[NodeId, NodeId] = {}
    for step in grouped["+"]["attach"]:
        providers[step.node] = "+"
    for root in region_roots:
        for step in grouped[root]["attach"]:
            providers[step.node] = root
        for step in grouped[root]["promote"]:
            providers[step.node] = root
    deps: dict[NodeId, set[NodeId]] = {root: set() for root in region_roots}
    for root in region_roots:
        needed: list[NodeId] = []
        for node in moves_by_region.get(root, ()):  # move targets
            needed.append(new.parent(node))
        for step in grouped[root]["attach"]:  # attach targets
            needed.append(step.parent)
        for target in needed:
            provider = providers.get(target)
            if provider is not None and provider != root:
                deps[root].add(provider)
    depends_on = {
        root: tuple(
            sorted(deps[root], key=lambda n: -1 if n == "+" else old_index[n])
        )
        for root in region_roots
    }
    ordered_roots: list[NodeId] = []
    # The growth region always runs first, so its edges are
    # pre-satisfied for the serial ordering below.
    remaining = {root: deps[root] - {"+"} for root in region_roots}
    while remaining:
        ready = sorted(
            (r for r, d in remaining.items() if not d),
            key=lambda n: old_index[n],
        )
        if not ready:
            return None  # cyclic cross-region dependency
        for root in ready:
            ordered_roots.append(root)
            del remaining[root]
        for d in remaining.values():
            d.difference_update(ready)

    # Assemble, applying each region to a scratch tree both to order the
    # moves and to verify the recipe is executable as emitted.
    scratch = old.copy()
    regions: list[MigrationRegion] = []
    growth = grouped["+"]["attach"]
    if growth:
        regions.append(
            MigrationRegion(root="+", drained=(), steps=tuple(growth))
        )
        for step in growth:
            if step.role is Role.AGENT:
                scratch.add_agent(step.node, step.power, step.parent)
            else:
                scratch.add_server(step.node, step.power, step.parent)
    try:
        for root in ordered_roots:
            ops = grouped[root]
            steps: list[MigrationStep] = [
                MigrationStep("drain", root, subtree=drained_by_root[root])
            ]
            steps.extend(ops["promote"])
            for step in ops["promote"]:
                scratch.promote(step.node)
            steps.extend(ops["attach"])
            for step in ops["attach"]:
                if step.role is Role.AGENT:
                    scratch.add_agent(step.node, step.power, step.parent)
                else:
                    scratch.add_server(step.node, step.power, step.parent)
            move_steps = _order_moves(
                scratch, moves_by_region.get(root, []), new, new.root
            )
            if move_steps is None:
                return None
            steps.extend(move_steps)
            steps.extend(ops["detach"])
            for step in ops["detach"]:
                scratch.remove_leaf(step.node)
            steps.extend(ops["demote"])
            for step in ops["demote"]:
                scratch.demote(step.node)
            survivors = tuple(
                node for node in drained_by_root[root] if node in new
            )
            anchor = root if root in new else survivors[0] if survivors else root
            steps.append(
                MigrationStep("resume", anchor, subtree=survivors)
            )
            regions.append(
                MigrationRegion(
                    root=root, drained=drained_by_root[root],
                    steps=tuple(steps), depends_on=depends_on[root],
                )
            )
    except Exception:
        return None
    if not hierarchies_equal(scratch, new):
        return None
    return MigrationPlan(
        kind="incremental",
        regions=tuple(regions),
        source_nodes=len(old),
        target_nodes=len(new),
    )


def plan_migration(old: Hierarchy | None, new: Hierarchy) -> MigrationPlan:
    """Diff ``old`` → ``new`` into a verified :class:`MigrationPlan`.

    Parameters
    ----------
    old:
        The running deployment, or ``None`` for a cold start.
    new:
        The target deployment (strictly valid).

    The incremental recipe is attempted first and verified by replaying
    it (:meth:`MigrationPlan.apply` equivalence); any diff it cannot
    realize — changed root, changed node power, unorderable moves —
    degrades to the stop-the-world ``restart`` plan, which is always
    correct.
    """
    new.validate(strict=True)
    if old is None or old.is_empty:
        return _restart_plan(None, new)
    plan = _incremental_plan(old, new)
    if plan is not None:
        return plan
    return _restart_plan(old, new)
