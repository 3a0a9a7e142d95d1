"""Versioned deployment-state registry — the control plane's durable truth.

The master/executor split (:mod:`repro.control.protocol`) needs a
source of truth that is *not* anyone's in-memory tree: executors are
stateless and rebuild their view of the deployment from a registry
snapshot on every command batch, and a daemon that restarts rejoins
from the registry instead of trusting whatever it remembered.  This
module supplies that registry:

:class:`DeploymentRegistry`
    An append-only log of :class:`RegistryEntry` records, one per
    applied deployment transition (initial plan, applied redeploy,
    crash adoption, confirmed-failure excision).  Each entry carries a
    **monotonic generation number** (asserted to increase by exactly
    one per commit), the serialized deployment tree, a content digest,
    and provenance metadata (epoch, cause, the command ids of the plan
    that produced it).

Versioning discipline (after Nova's versioned-schema migrations):
every snapshot is stamped with :data:`SCHEMA_VERSION`; ``restore``
refuses snapshots from schema versions it does not understand rather
than guessing.  The snapshot/restore round-trip is **exact** — the
snapshot is plain JSON-safe data, ``json.loads(json.dumps(s)) == s``,
and a restored registry compares equal to the original entry by entry
— which the protocol test battery asserts.

Determinism: serialization walks the tree in BFS order and digests a
name-sorted row list, so equal trees always serialize to equal bytes;
nothing here reads a clock or an RNG.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.hierarchy import Hierarchy, Role
from repro.errors import ProtocolError

__all__ = [
    "SCHEMA_VERSION",
    "RegistryEntry",
    "DeploymentRegistry",
    "serialize_tree",
    "restore_tree",
    "tree_digest",
]

#: Registry snapshot schema version.  Bump on any change to the
#: snapshot layout; ``restore`` rejects versions it does not know.
SCHEMA_VERSION = 1

#: One serialized node: ``(name, parent_name | None, role, power)``.
TreeRow = tuple


def serialize_tree(tree: Hierarchy) -> tuple:
    """Flatten ``tree`` into JSON-safe ``(name, parent, role, power)`` rows.

    Rows come out in BFS order from the root, so ``restore_tree`` can
    rebuild by appending (every parent exists before its children) and
    equal trees serialize identically.
    """
    rows = []
    for node in tree:
        parent = tree.parent(node)
        rows.append(
            (
                str(node),
                str(parent) if parent is not None else None,
                tree.role(node).value,
                tree.power(node),
            )
        )
    return tuple(rows)


def restore_tree(rows) -> Hierarchy:
    """Rebuild a :class:`Hierarchy` from :func:`serialize_tree` rows."""
    tree = Hierarchy()
    for row in rows:
        if len(row) != 4:
            raise ProtocolError(f"malformed tree row {row!r}")
        name, parent, role, power = row
        if parent is None:
            tree.set_root(name, power)
        elif role == Role.AGENT.value:
            tree.add_agent(name, power, parent)
        elif role == Role.SERVER.value:
            tree.add_server(name, power, parent)
        else:
            raise ProtocolError(f"unknown role {role!r} in tree row")
    return tree


def tree_digest(tree_or_rows) -> str:
    """Content digest of a deployment tree (or its serialized rows).

    Rows are name-sorted before hashing, so the digest identifies the
    *placement* — which node sits where, in which role, at what power —
    independent of serialization order.  Used by executors to ack what
    they actually built and by the master to cross-check the ack.
    """
    rows = (
        serialize_tree(tree_or_rows)
        if isinstance(tree_or_rows, Hierarchy)
        else tree_or_rows
    )
    payload = json.dumps(
        sorted(list(row) for row in rows),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class RegistryEntry:
    """One committed deployment generation.

    ``generation`` is assigned by the registry (monotonic, dense);
    ``cause`` names the transition (``initial``, a policy action such
    as ``replan``/``improve``/``repair``/``evict``, or ``crash`` /
    ``detection`` for fault adoptions); ``epoch`` the control epoch it
    landed in (``-1`` for the initial deployment); ``command_ids`` the
    protocol commands that realized it (empty for stop-the-world
    restarts and non-plan transitions).
    """

    generation: int
    tree: tuple
    digest: str
    cause: str
    epoch: int = -1
    command_ids: tuple = ()

    def hierarchy(self) -> Hierarchy:
        """Rebuild this generation's deployment tree."""
        return restore_tree(self.tree)

    def to_wire(self) -> dict:
        """JSON-safe dict form (tuples become lists)."""
        return {
            "generation": self.generation,
            "tree": [list(row) for row in self.tree],
            "digest": self.digest,
            "cause": self.cause,
            "epoch": self.epoch,
            "command_ids": list(self.command_ids),
        }

    @classmethod
    def from_wire(cls, wire: dict) -> "RegistryEntry":
        try:
            return cls(
                generation=int(wire["generation"]),
                tree=tuple(tuple(row) for row in wire["tree"]),
                digest=str(wire["digest"]),
                cause=str(wire["cause"]),
                epoch=int(wire["epoch"]),
                command_ids=tuple(wire["command_ids"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(
                f"malformed registry entry: {exc}"
            ) from exc


class DeploymentRegistry:
    """Append-only, generation-numbered log of applied deployments.

    The registry is the durable source of truth the protocol's
    executors plan from: :meth:`snapshot` exports the whole log as
    JSON-safe data, :meth:`restore` rebuilds an identical registry in
    another process (or after a restart), and :meth:`current` yields
    the latest generation's tree.  Generations are dense and strictly
    increasing — :meth:`commit` assigns them, and a digest mismatch on
    restore is an error, never a silent repair.
    """

    def __init__(self) -> None:
        self._entries: list[RegistryEntry] = []

    # -- commits ------------------------------------------------------- #

    @property
    def generation(self) -> int:
        """Latest committed generation (``-1`` for an empty registry)."""
        return len(self._entries) - 1

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeploymentRegistry):
            return NotImplemented
        return self._entries == other._entries

    def commit(
        self,
        tree: Hierarchy,
        cause: str,
        epoch: int = -1,
        command_ids: tuple = (),
    ) -> RegistryEntry:
        """Record ``tree`` as the next generation and return its entry."""
        rows = serialize_tree(tree)
        entry = RegistryEntry(
            generation=len(self._entries),
            tree=rows,
            digest=tree_digest(rows),
            cause=str(cause),
            epoch=int(epoch),
            command_ids=tuple(str(c) for c in command_ids),
        )
        self._entries.append(entry)
        return entry

    def entry(self, generation: int) -> RegistryEntry:
        """The entry committed as ``generation``."""
        if not 0 <= generation < len(self._entries):
            raise ProtocolError(
                f"no registry entry for generation {generation} "
                f"(have 0..{len(self._entries) - 1})"
            )
        return self._entries[generation]

    def current(self) -> Hierarchy:
        """The latest generation's deployment tree, rebuilt."""
        if not self._entries:
            raise ProtocolError("registry is empty — nothing committed yet")
        return self._entries[-1].hierarchy()

    # -- snapshot / restore -------------------------------------------- #

    def snapshot(self) -> dict:
        """Export the whole registry as JSON-safe data.

        ``json.loads(json.dumps(snapshot))`` equals the snapshot, and
        :meth:`restore` rebuilds a registry equal to this one — the
        exact round-trip the durability story rests on.
        """
        return {
            "schema": SCHEMA_VERSION,
            "generation": self.generation,
            "entries": [entry.to_wire() for entry in self._entries],
        }

    @classmethod
    def restore(cls, snapshot: dict) -> "DeploymentRegistry":
        """Rebuild a registry from a :meth:`snapshot`.

        Validates the schema version, the dense generation numbering,
        and every entry's digest against its serialized tree — a
        corrupted or hand-edited snapshot fails loudly here, not as a
        wrong deployment later.
        """
        if not isinstance(snapshot, dict):
            raise ProtocolError(
                "registry snapshot must be a dict, got "
                f"{type(snapshot).__name__}"
            )
        schema = snapshot.get("schema")
        if schema != SCHEMA_VERSION:
            raise ProtocolError(
                f"unknown registry schema version {schema!r} "
                f"(this build reads version {SCHEMA_VERSION})"
            )
        registry = cls()
        for index, wire in enumerate(snapshot.get("entries", ())):
            entry = RegistryEntry.from_wire(wire)
            if entry.generation != index:
                raise ProtocolError(
                    f"registry generations must be dense: entry {index} "
                    f"claims generation {entry.generation}"
                )
            if tree_digest(entry.tree) != entry.digest:
                raise ProtocolError(
                    f"registry entry {index} digest mismatch — "
                    "snapshot is corrupt"
                )
            registry._entries.append(entry)
        if registry.generation != snapshot.get("generation"):
            raise ProtocolError(
                "registry snapshot generation header disagrees with "
                "its entry list"
            )
        return registry
