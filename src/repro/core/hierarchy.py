"""Deployment hierarchy data structure.

A deployment (Section 1 of the paper) is a tree of middleware elements
mapped one-to-one onto compute nodes:

* exactly one **root agent** with one or more children;
* **non-root agents**, each with exactly one parent and — in a *final*
  deployment — at least two children;
* **servers** (SeDs), always leaves, each with an agent parent;
* agent and server roles are never co-hosted on one node.

:class:`Hierarchy` stores the tree as parent/children maps keyed by opaque
node identifiers, together with each node's computing power (MFlop/s),
which is all the throughput model needs.  Mutating operations keep the
structure a tree at all times; the stricter "non-root agents have >= 2
children" rule only applies to finished deployments and is checked by
:meth:`Hierarchy.validate`.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from enum import Enum

from repro.errors import HierarchyError

__all__ = ["Role", "Hierarchy"]

NodeId = Hashable


class Role(str, Enum):
    """Middleware role hosted by a node."""

    AGENT = "agent"
    SERVER = "server"


class Hierarchy:
    """A mutable middleware deployment tree.

    Nodes are added with :meth:`set_root` / :meth:`add_server` /
    :meth:`add_agent`, and servers can be promoted in place with
    :meth:`promote` (the paper's ``shift_nodes`` step, which converts a
    server into an agent when the heuristic grows a new level).
    """

    def __init__(self) -> None:
        self._power: dict[NodeId, float] = {}
        self._role: dict[NodeId, Role] = {}
        self._parent: dict[NodeId, NodeId | None] = {}
        self._children: dict[NodeId, list[NodeId]] = {}
        self._root: NodeId | None = None

    # ------------------------------------------------------------------ #
    # construction

    def _check_new(self, node: NodeId, power: float) -> None:
        if node in self._power:
            raise HierarchyError(f"node {node!r} is already in the hierarchy")
        if power <= 0.0:
            raise HierarchyError(f"node {node!r} power must be > 0, got {power}")

    @classmethod
    def from_arrays(
        cls,
        names: list[NodeId],
        powers: list[float],
        parent_indices: list[int],
        roles: list[Role],
    ) -> "Hierarchy":
        """Bulk-construct a tree from parallel arrays (trusted input).

        ``parent_indices[i]`` is the index of node ``i``'s parent; entry 0
        is the root (its parent index is ignored).  Children are attached
        in index order, so the result is identical to the equivalent
        sequence of :meth:`set_root` / :meth:`add_agent` /
        :meth:`add_server` calls — but without per-node structural
        revalidation, which matters to planners that build thousands of
        candidate trees.  Callers must supply a sound tree: parents appear
        before children and carry :attr:`Role.AGENT`.
        """
        if not names:
            raise HierarchyError("from_arrays needs at least one node")
        if min(powers) <= 0.0:
            bad = next(
                (name, p) for name, p in zip(names, powers) if p <= 0.0
            )
            raise HierarchyError(
                f"node {bad[0]!r} power must be > 0, got {bad[1]}"
            )
        hierarchy = cls()
        power_map = hierarchy._power
        parent_map = hierarchy._parent
        children_map = hierarchy._children
        power_map.update(zip(names, map(float, powers)))
        if len(power_map) != len(names):
            raise HierarchyError("duplicate node names in from_arrays")
        hierarchy._role.update(zip(names, roles))
        for name in names:
            children_map[name] = []
        hierarchy._root = names[0]
        parent_map[names[0]] = None
        for i in range(1, len(names)):
            parent_name = names[parent_indices[i]]
            parent_map[names[i]] = parent_name
            children_map[parent_name].append(names[i])
        return hierarchy

    def set_root(self, node: NodeId, power: float) -> None:
        """Install ``node`` as the root agent of an empty hierarchy."""
        if self._root is not None:
            raise HierarchyError(f"hierarchy already has root {self._root!r}")
        self._check_new(node, power)
        self._power[node] = float(power)
        self._role[node] = Role.AGENT
        self._parent[node] = None
        self._children[node] = []
        self._root = node

    def _attach(self, node: NodeId, power: float, parent: NodeId, role: Role) -> None:
        self._check_new(node, power)
        if parent not in self._power:
            raise HierarchyError(f"parent {parent!r} is not in the hierarchy")
        if self._role[parent] is not Role.AGENT:
            raise HierarchyError(
                f"parent {parent!r} is a server; only agents may have children"
            )
        self._power[node] = float(power)
        self._role[node] = role
        self._parent[node] = parent
        self._children[node] = []
        self._children[parent].append(node)

    def add_server(self, node: NodeId, power: float, parent: NodeId) -> None:
        """Attach ``node`` as a server (leaf) child of agent ``parent``."""
        self._attach(node, power, parent, Role.SERVER)

    def add_agent(self, node: NodeId, power: float, parent: NodeId) -> None:
        """Attach ``node`` as a (for now childless) agent child of ``parent``."""
        self._attach(node, power, parent, Role.AGENT)

    def promote(self, node: NodeId) -> None:
        """Convert server ``node`` into an agent in place (``shift_nodes``)."""
        if node not in self._role:
            raise HierarchyError(f"node {node!r} is not in the hierarchy")
        if self._role[node] is not Role.SERVER:
            raise HierarchyError(f"node {node!r} is not a server")
        self._role[node] = Role.AGENT

    def demote(self, node: NodeId) -> None:
        """Convert a childless non-root agent back into a server."""
        if node not in self._role:
            raise HierarchyError(f"node {node!r} is not in the hierarchy")
        if self._role[node] is not Role.AGENT:
            raise HierarchyError(f"node {node!r} is not an agent")
        if node == self._root:
            raise HierarchyError("cannot demote the root agent")
        if self._children[node]:
            raise HierarchyError(f"agent {node!r} still has children")
        self._role[node] = Role.SERVER

    def reattach(self, node: NodeId, new_parent: NodeId) -> None:
        """Move ``node`` (and its subtree) under ``new_parent``.

        ``new_parent`` must be an agent outside the subtree of ``node``.
        """
        if node not in self._role:
            raise HierarchyError(f"node {node!r} is not in the hierarchy")
        if new_parent not in self._role:
            raise HierarchyError(f"new parent {new_parent!r} is not in the hierarchy")
        if node == self._root:
            raise HierarchyError("cannot reattach the root")
        if self._role[new_parent] is not Role.AGENT:
            raise HierarchyError(f"new parent {new_parent!r} is not an agent")
        if new_parent in self.subtree(node):
            raise HierarchyError(
                f"cannot reattach {node!r} under its own descendant {new_parent!r}"
            )
        old_parent = self._parent[node]
        if old_parent == new_parent:
            return
        assert old_parent is not None
        self._children[old_parent].remove(node)
        self._children[new_parent].append(node)
        self._parent[node] = new_parent

    def remove_leaf(self, node: NodeId) -> None:
        """Remove a leaf node (server or childless agent) from the tree."""
        if node not in self._role:
            raise HierarchyError(f"node {node!r} is not in the hierarchy")
        if self._children[node]:
            raise HierarchyError(f"node {node!r} has children; remove them first")
        parent = self._parent[node]
        if parent is None:
            self._root = None
        else:
            self._children[parent].remove(node)
        del self._power[node]
        del self._role[node]
        del self._parent[node]
        del self._children[node]

    # ------------------------------------------------------------------ #
    # inspection

    @property
    def root(self) -> NodeId:
        """The root agent.  Raises if the hierarchy is empty."""
        if self._root is None:
            raise HierarchyError("hierarchy is empty")
        return self._root

    @property
    def is_empty(self) -> bool:
        return self._root is None

    def __len__(self) -> int:
        return len(self._power)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._power

    def __iter__(self) -> Iterator[NodeId]:
        """Iterate over nodes in breadth-first order from the root."""
        return iter(self.nodes)

    @property
    def nodes(self) -> list[NodeId]:
        """All node ids in breadth-first order."""
        if self._root is None:
            return []
        return self.subtree(self._root)

    @property
    def agents(self) -> list[NodeId]:
        """All agent ids in breadth-first order."""
        role, agent = self._role, Role.AGENT
        return [n for n in self.nodes if role[n] is agent]

    @property
    def servers(self) -> list[NodeId]:
        """All server ids in breadth-first order."""
        role, server = self._role, Role.SERVER
        return [n for n in self.nodes if role[n] is server]

    @property
    def agent_count(self) -> int:
        """Number of agents (no traversal)."""
        agent = Role.AGENT
        return sum(1 for role in self._role.values() if role is agent)

    @property
    def powers(self) -> Mapping[NodeId, float]:
        """Read-only view of node powers (MFlop/s)."""
        return dict(self._power)

    def power(self, node: NodeId) -> float:
        return self._power[node]

    def role(self, node: NodeId) -> Role:
        return self._role[node]

    def parent(self, node: NodeId) -> NodeId | None:
        return self._parent[node]

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self._children[node])

    def degree(self, node: NodeId) -> int:
        """Number of children of ``node`` (the model's ``d``)."""
        return len(self._children[node])

    def depth(self, node: NodeId) -> int:
        """Distance from the root (root has depth 0)."""
        depth = 0
        current: NodeId | None = node
        while True:
            current = self._parent[current]
            if current is None:
                return depth
            depth += 1

    @property
    def height(self) -> int:
        """Maximum node depth (a star has height 1)."""
        if self._root is None:
            return 0
        return max(self.depth(n) for n in self)

    def subtree(self, node: NodeId) -> list[NodeId]:
        """Nodes of the subtree rooted at ``node`` in BFS order."""
        queue = [node]
        children = self._children
        # The loop also visits what it appends: a list iterator re-reads
        # the length at every step.
        for member in queue:
            queue.extend(children[member])
        return queue

    # ------------------------------------------------------------------ #
    # validation / export

    def validate(self, strict: bool = True) -> None:
        """Check the paper's structural constraints.

        With ``strict=True`` (a finished deployment) the check also enforces
        that the root has >= 1 child, every non-root agent has >= 2 children
        and at least one server exists.  With ``strict=False`` only tree
        consistency and role/leaf rules are verified, allowing the planner's
        intermediate states.
        """
        if self._root is None:
            raise HierarchyError("hierarchy is empty")
        seen = self.nodes
        if len(seen) != len(self._power):
            raise HierarchyError("hierarchy contains unreachable nodes")
        role_of, children, parent_of = self._role, self._children, self._parent
        root, agent, server = self._root, Role.AGENT, Role.SERVER
        has_server = False
        # First non-root agent with fewer than two children; reported
        # only by the strict check, after the structural ones.
        thin = None
        for node in seen:
            if role_of[node] is server:
                has_server = True
                if children[node]:
                    raise HierarchyError(f"server {node!r} has children")
            elif thin is None and node != root and len(children[node]) < 2:
                thin = node
            parent = parent_of[node]
            if parent is not None and role_of[parent] is not agent:
                raise HierarchyError(f"node {node!r} has a server parent")
        if not strict:
            return
        if not children[root]:
            raise HierarchyError("root agent has no children")
        if not has_server:
            raise HierarchyError("deployment has no servers")
        if thin is not None:
            raise HierarchyError(
                f"non-root agent {thin!r} has "
                f"{len(children[thin])} child(ren); needs >= 2"
            )

    def to_dot(self, title: str = "deployment") -> str:
        """Export as a Graphviz DOT digraph.

        Agents render as boxes, servers as ellipses; labels carry the
        node name and its rated power.  Handy for eyeballing plans::

            Path("plan.dot").write_text(hierarchy.to_dot())
            # dot -Tpng plan.dot -o plan.png
        """
        lines = [f'digraph "{title}" {{', "  rankdir=TB;"]
        for node in self:
            shape = "box" if self._role[node] is Role.AGENT else "ellipse"
            lines.append(
                f'  "{node}" [shape={shape}, '
                f'label="{node}\\n{self._power[node]:g} MFlop/s"];'
            )
        for node in self:
            for child in self._children[node]:
                lines.append(f'  "{node}" -> "{child}";')
        lines.append("}")
        return "\n".join(lines)

    def copy(self) -> "Hierarchy":
        """Deep copy of the tree (node ids are shared, structure is not)."""
        clone = Hierarchy()
        clone._power = dict(self._power)
        clone._role = dict(self._role)
        clone._parent = dict(self._parent)
        clone._children = {n: list(c) for n, c in self._children.items()}
        clone._root = self._root
        return clone

    # ------------------------------------------------------------------ #
    # misc

    def describe(self) -> str:
        """Multi-line human-readable sketch of the tree."""
        if self._root is None:
            return "<empty hierarchy>"
        lines: list[str] = []

        def walk(node: NodeId, indent: int) -> None:
            role = self._role[node].value
            lines.append(
                f"{'  ' * indent}{role} {node!r} "
                f"(w={self._power[node]:g}, d={len(self._children[node])})"
            )
            for child in self._children[node]:
                walk(child, indent + 1)

        walk(self._root, 0)
        return "\n".join(lines)

    def shape_signature(self) -> tuple[int, int, int, int]:
        """Compact shape: (n_nodes, n_agents, n_servers, height)."""
        return (len(self), len(self.agents), len(self.servers), self.height)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        n, a, s, h = (
            self.shape_signature() if self._root is not None else (0, 0, 0, 0)
        )
        return f"Hierarchy(nodes={n}, agents={a}, servers={s}, height={h})"
