"""Fault schedules: pure, composable, seeded failure timelines.

A fault schedule plays the same role for failures that
:mod:`repro.control.traces` plays for demand: it is *data*, not
behaviour.  A schedule is an ordered tuple of :class:`FaultEvent`
records — node crashes, slow-node degradations, subtree partitions and
heals — that the control loop's injector replays against the running
:class:`~repro.middleware.system.MiddlewareSystem` at the recorded
simulation times.  Because schedules are plain data they compose with
``+``, round-trip through :func:`from_spec`, and keep every run a pure
function of ``(pool, trace, policy, params, seed, faults)``.

Targets are either literal node names (``s3``, ``a1``) or one of two
late-bound selectors resolved against the *running* system at injection
time:

* ``busiest-child`` — the root's child whose subtree has accumulated the
  most busy seconds (the paper-level "kill the hot region" scenario);
* ``busiest-server`` — the single server with the most busy seconds.

Seeded generators (:func:`crash_storm`, :func:`subtree_storm`)
materialize their randomness at construction time, so a generated
schedule serializes to — and parses back from — an explicit event list:
the round trip is exact even though the generator itself is random.

**Seeding contract.**  :func:`crash_storm` draws every crash time from
its own sub-stream keyed by ``(seed, target, draw index)`` — the draws
are *per-node independent*, so storms composed with ``+`` sample
disjoint streams whenever their targets differ (even under one shared
``seed``), and widening one storm's ``count`` never reshuffles
another's times.  :func:`subtree_storm` is the deliberate opposite: a
*correlated* (rack-scoped) generator whose draws all come from one
``random.Random(seed)`` stream, modelling whole-subtree bursts whose
members fail together rather than independently.
"""

from __future__ import annotations

import math
import random
from collections.abc import Iterable

from repro.errors import FaultError

__all__ = [
    "FAULT_KINDS",
    "SELECTORS",
    "FaultEvent",
    "FaultSchedule",
    "crash",
    "degrade",
    "partition",
    "heal",
    "crash_storm",
    "subtree_storm",
    "from_spec",
]

#: The four fault kinds the middleware surgery supports.
FAULT_KINDS = ("crash", "degrade", "partition", "heal")

#: Late-bound target selectors, resolved against the running system.
SELECTORS = ("busiest-child", "busiest-server")


class FaultEvent:
    """One scheduled fault: ``kind`` applied to ``target`` at time ``at``.

    ``factor`` is meaningful only for ``degrade`` events: the node's
    resource rate is multiplied by it (``0.25`` = the node runs at a
    quarter speed), and ``factor=1.0`` restores nominal speed.
    """

    __slots__ = ("at", "kind", "target", "factor")

    def __init__(self, at: float, kind: str, target: str, factor: float = 1.0):
        if kind not in FAULT_KINDS:
            raise FaultError(
                f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
            )
        if not 0.0 <= at < math.inf:
            raise FaultError(f"fault time must be finite and >= 0, got {at}")
        target = str(target).strip()
        if not target:
            raise FaultError("fault target must be a non-empty node name")
        if kind == "degrade":
            if not 0.0 < factor < math.inf:
                raise FaultError(
                    f"degrade factor must be finite and > 0, got {factor} "
                    "(use crash to remove the node outright)"
                )
        elif factor != 1.0:
            raise FaultError(
                f"factor only applies to degrade events, not {kind!r}"
            )
        self.at = float(at)
        self.kind = kind
        self.target = target
        self.factor = float(factor)

    @property
    def spec(self) -> str:
        """The ``kind:key=value,...`` spelling :func:`from_spec` parses."""
        # repr() round-trips floats exactly, so seeded (irrational-looking)
        # event times survive spec serialization bit-for-bit.
        parts = [f"target={self.target}", f"at={self.at!r}"]
        if self.kind == "degrade":
            parts.append(f"factor={self.factor!r}")
        return f"{self.kind}:" + ",".join(parts)

    def _key(self) -> tuple:
        return (self.at, self.kind, self.target, self.factor)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = f", factor={self.factor:g}" if self.kind == "degrade" else ""
        return f"FaultEvent({self.kind} {self.target!r} @ {self.at:g}{extra})"


class FaultSchedule:
    """An immutable, time-ordered sequence of :class:`FaultEvent`.

    Events are stably sorted by time, so composing two schedules with
    ``+`` interleaves them chronologically while same-time events keep
    their composition order (the injector applies them in sequence
    order, which keeps runs deterministic).
    """

    __slots__ = ("events",)

    def __init__(self, events: Iterable[FaultEvent] = ()):
        items = list(events)
        for event in items:
            if not isinstance(event, FaultEvent):
                raise FaultError(
                    f"fault schedule takes FaultEvent items, got {event!r}"
                )
        items.sort(key=lambda event: event.at)  # stable: ties keep order
        self.events = tuple(items)

    # -------------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __add__(self, other: "FaultSchedule") -> "FaultSchedule":
        if not isinstance(other, FaultSchedule):
            return NotImplemented
        return FaultSchedule(self.events + other.events)

    @property
    def spec(self) -> str:
        """``;``-joined event specs; ``from_spec(schedule.spec)`` round-trips."""
        return ";".join(event.spec for event in self.events)

    def describe(self) -> str:
        if not self.events:
            return "no faults"
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event.kind] = kinds.get(event.kind, 0) + 1
        summary = ", ".join(
            f"{count} {kind}" for kind, count in sorted(kinds.items())
        )
        return f"{len(self.events)} fault(s): {summary}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({self.describe()})"


# ------------------------------------------------------------------ #
# constructors


def crash(target: str, at: float) -> FaultSchedule:
    """Kill ``target`` (a server, or an agent and its whole subtree)."""
    return FaultSchedule([FaultEvent(at, "crash", target)])


def degrade(target: str, at: float, factor: float) -> FaultSchedule:
    """Multiply ``target``'s resource rate by ``factor`` (straggler)."""
    return FaultSchedule([FaultEvent(at, "degrade", target, factor=factor)])


def partition(target: str, at: float) -> FaultSchedule:
    """Cut the subtree rooted at ``target`` off the fan-out (healable)."""
    return FaultSchedule([FaultEvent(at, "partition", target)])


def heal(target: str, at: float) -> FaultSchedule:
    """Reconnect a previously partitioned subtree rooted at ``target``."""
    return FaultSchedule([FaultEvent(at, "heal", target)])


def _stream(seed: int, *scope) -> random.Random:
    """Deterministic sub-stream keyed by ``(seed, *scope)``.

    String seeding goes through CPython's version-2 init (SHA-512 over
    the bytes), which is stable across processes and platforms — unlike
    ``hash()`` of a tuple, which ``PYTHONHASHSEED`` salts.
    """
    key = ":".join((str(seed),) + tuple(str(part) for part in scope))
    return random.Random(key)


def crash_storm(
    count: int,
    start: float,
    end: float,
    seed: int = 0,
    target: str = "busiest-server",
) -> FaultSchedule:
    """``count`` crashes at seeded-uniform times in ``[start, end)``.

    **Seeding contract.**  Each crash time is drawn from its own
    sub-stream keyed by ``(seed, target, draw index)``, so the draws
    are per-node independent: two storms composed with ``+`` sample
    disjoint streams whenever their targets differ — even when they
    share one ``seed`` — and raising one storm's ``count`` only *adds*
    draws, it never reshuffles the times already generated (for this
    storm or any composed with it).

    Randomness is materialized here, so the resulting schedule is plain
    data: its :attr:`~FaultSchedule.spec` lists the concrete crash
    events and round-trips exactly through :func:`from_spec`.
    """
    if count < 1:
        raise FaultError(f"crash storm needs count >= 1, got {count}")
    if not start <= end:
        raise FaultError(
            f"crash storm window is empty: start={start} > end={end}"
        )
    times = sorted(
        _stream(seed, "crash-storm", target, index).uniform(start, end)
        for index in range(count)
    )
    return FaultSchedule(FaultEvent(at, "crash", target) for at in times)


def subtree_storm(
    targets: str | Iterable[str],
    count: int,
    start: float,
    end: float,
    seed: int = 0,
) -> FaultSchedule:
    """Correlated (rack-scoped) storm: ``count`` crashes over ``targets``.

    The deliberate opposite of :func:`crash_storm`'s independence
    contract: every draw — a crash time uniform in ``[start, end)``
    *and* the subtree root it hits — comes from **one**
    ``random.Random(seed)`` stream, so the per-target draws are
    correlated by construction (the storm models a rack or site whose
    members share fate, not independent node lotteries).  ``targets``
    is an iterable of subtree-root names, or one ``"a|b|c"``
    pipe-joined string (the spec spelling).

    Like every generator, randomness is materialized here: the schedule
    serializes to concrete crash events and
    ``from_spec(storm.spec)`` rebuilds it exactly.
    """
    if isinstance(targets, str):
        targets = tuple(part.strip() for part in targets.split("|"))
    targets = tuple(str(target).strip() for target in targets)
    if not targets or any(not target for target in targets):
        raise FaultError(
            "subtree storm needs a non-empty list of non-empty "
            f"target names, got {targets!r}"
        )
    if count < 1:
        raise FaultError(f"subtree storm needs count >= 1, got {count}")
    if not start <= end:
        raise FaultError(
            f"subtree storm window is empty: start={start} > end={end}"
        )
    rng = random.Random(seed)
    draws = sorted(
        (rng.uniform(start, end), rng.choice(targets)) for _ in range(count)
    )
    return FaultSchedule(
        FaultEvent(at, "crash", target) for at, target in draws
    )


# ------------------------------------------------------------------ #
# CLI spec parsing (mirrors repro.control.traces.from_spec)


_SPEC_FIELDS: dict[str, dict[str, type]] = {
    "crash": {"target": str, "at": float},
    "degrade": {"target": str, "at": float, "factor": float},
    "partition": {"target": str, "at": float},
    "heal": {"target": str, "at": float},
    "storm": {
        "count": int, "start": float, "end": float, "seed": int,
        "target": str,
    },
    "subtree_storm": {
        "count": int, "start": float, "end": float, "seed": int,
        "targets": str,
    },
}


def _parse_event(item: str) -> FaultSchedule:
    name, _, body = item.partition(":")
    name = name.strip().lower().replace("-", "_")
    if name not in _SPEC_FIELDS:
        raise FaultError(
            f"unknown fault kind {name!r}; expected one of "
            f"{sorted(_SPEC_FIELDS)}"
        )
    fields = _SPEC_FIELDS[name]
    kwargs: dict[str, object] = {}
    for part in body.split(","):
        if not part.strip():
            continue
        key, separator, value = part.partition("=")
        if not separator or not key.strip():
            raise FaultError(
                f"fault spec expects key=value items, got {part!r}"
            )
        # Accept dashed keys like every other key=value CLI surface.
        key = key.strip().replace("-", "_")
        if key not in fields:
            raise FaultError(
                f"unknown fault option {key!r} for {name!r}; "
                f"valid options: {sorted(fields)}"
            )
        if key in kwargs:
            raise FaultError(f"duplicate fault option {key!r} for {name!r}")
        try:
            kwargs[key] = fields[key](value.strip())
        except ValueError as exc:
            raise FaultError(
                f"fault option {key}={value.strip()!r} is not a valid "
                f"{fields[key].__name__}"
            ) from exc
    try:
        if name == "storm":
            return crash_storm(**kwargs)  # type: ignore[arg-type]
        if name == "subtree_storm":
            return subtree_storm(**kwargs)  # type: ignore[arg-type]
        builder = {
            "crash": crash, "degrade": degrade,
            "partition": partition, "heal": heal,
        }[name]
        return builder(**kwargs)  # type: ignore[operator]
    except TypeError as exc:
        raise FaultError(
            f"fault {name!r} is missing required options "
            f"(valid options: {sorted(fields)}): {exc}"
        ) from exc


def from_spec(spec: str) -> FaultSchedule:
    """Build a schedule from a compact ``;``-joined event string.

    The CLI's fault syntax::

        crash:target=s3,at=40
        crash:target=busiest-child,at=45
        degrade:target=s2,at=30,factor=0.25
        partition:target=a1,at=30;heal:target=a1,at=60
        storm:count=3,start=20,end=80,seed=7
        subtree-storm:targets=a1|a2|a3,count=2,start=20,end=80,seed=7

    Each item is ``kind:key=value,...``; items are joined by ``;`` and
    compose like ``+`` on schedules.  The storm generators materialize
    their seeded crash times immediately, so ``from_spec(schedule.spec)``
    rebuilds any schedule exactly — including generated ones.
    """
    schedule = FaultSchedule()
    saw_item = False
    for item in spec.split(";"):
        if not item.strip():
            continue
        saw_item = True
        schedule = schedule + _parse_event(item.strip())
    if not saw_item:
        raise FaultError(f"empty fault spec {spec!r}")
    return schedule
