"""Timeout-modelled failure detection.

The paper's middleware model has no failure-detection machinery: a
parent only learns a child is gone because an oracle (the fault
injector) tells it so at the instant of the fault.  This module supplies
the honest alternative — the only evidence an agent ever gets about a
child is whether its requests come back in time.

:class:`DetectionParams` configures the conversation-level machinery:

* every agent→child scheduling message starts a *watchdog* that
  expires after ``timeout`` seconds unless the child has answered; an
  expired watchdog records one *timeout* against the child in the
  shared :class:`DetectionState` and resends the request up to
  ``retries`` times, each wait stretched by ``backoff``;
* an agent keeps one timer per retry level, not one per message: the
  level's watchdogs queue in delivery order, which is deadline order,
  and only the earliest is on the engine heap.  It fires under the
  ``(time, sequence)`` key its message's own event would have had
  (:meth:`repro.sim.engine.Simulator.take`), then drops the watchdogs
  behind it whose child answered or whose round resolved, and arms the
  next.  Timelines are those of one event per message; only the
  ``engine_events`` count is smaller;
* when the ladder runs out, the parent gives up on that child for the
  round and the merge proceeds over the survivors;
* ``suspicion_threshold`` consecutive timeouts cross the child into
  *suspect* territory (``crossed_at`` is stamped with the crossing
  time); a single answered message resets the count — a slow child that
  eventually answers is a straggler, not a corpse;
* the control plane's monitor turns crossings into ``suspect`` →
  ``confirmed-dead`` transitions, holding each suspect for a ``grace``
  window so late answers re-integrate it (see
  :meth:`repro.control.monitor.SLOMonitor.observe`).

Everything here is pure bookkeeping on the deterministic simulation
clock: no wall time, no randomness, so faulted runs stay bit-identical
per seed.

Spec grammar
------------
``DetectionParams`` round-trips through a ``key=value`` spec string in
the same style as traces, policies and fault schedules::

    timeout=0.5,retries=1,backoff=2,threshold=3,grace=4

:func:`parse_detection` additionally accepts ``reserve=0.2`` — the
repair-aware spare-pool fraction — which is control-loop configuration,
not middleware configuration, and is therefore returned alongside the
params rather than stored on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ControlError

__all__ = [
    "DetectionError",
    "DetectionParams",
    "DetectionState",
    "NodeLiveness",
    "parse_detection",
]


class DetectionError(ControlError):
    """Invalid detection parameters or spec."""


@dataclass(frozen=True)
class DetectionParams:
    """Timeout/retry/suspicion configuration for inferred failure detection.

    Attributes
    ----------
    timeout:
        Seconds an agent waits for a child's reply before the watchdog
        fires (first attempt).
    retries:
        How many times a timed-out request is resent before the parent
        gives up on the child for that round.
    backoff:
        Multiplier applied to the wait on each successive attempt
        (attempt ``k`` waits ``timeout * backoff**k``).
    suspicion_threshold:
        Consecutive given-up conversations after which the child is
        considered *suspect* by the monitor.
    grace:
        Seconds a suspect is held before confirmation; a node that
        answers anything within the grace window drops back to healthy.
    """

    timeout: float = 0.5
    retries: int = 1
    backoff: float = 2.0
    suspicion_threshold: int = 3
    grace: float = 0.0

    def __post_init__(self) -> None:
        # Chained bounds reject NaN too; an infinite timeout, backoff or
        # grace would be a watchdog that never fires.
        if not 0.0 < self.timeout < math.inf:
            raise DetectionError(
                f"timeout must be finite and > 0, got {self.timeout!r}"
            )
        if self.retries < 0:
            raise DetectionError(
                f"retries must be >= 0, got {self.retries!r}"
            )
        if not 1.0 <= self.backoff < math.inf:
            raise DetectionError(
                f"backoff must be finite and >= 1, got {self.backoff!r}"
            )
        if self.suspicion_threshold < 1:
            raise DetectionError(
                "suspicion_threshold must be >= 1, got "
                f"{self.suspicion_threshold!r}"
            )
        if not 0.0 <= self.grace < math.inf:
            raise DetectionError(
                f"grace must be finite and >= 0, got {self.grace!r}"
            )

    @property
    def spec(self) -> str:
        """Canonical spec string; ``parse_detection`` round-trips it."""
        return (
            f"timeout={self.timeout!r},retries={self.retries}"
            f",backoff={self.backoff!r}"
            f",threshold={self.suspicion_threshold}"
            f",grace={self.grace!r}"
        )


class NodeLiveness:
    """Evidence accumulated about one node, purely from conversations."""

    __slots__ = (
        "timeouts", "consecutive", "answers",
        "last_timeout_at", "last_answer_at", "crossed_at",
    )

    def __init__(self) -> None:
        self.timeouts = 0          # expired watchdogs, lifetime
        self.consecutive = 0       # expired watchdogs since last answer
        self.answers = 0           # answered conversations, lifetime
        self.last_timeout_at: float | None = None
        self.last_answer_at: float | None = None
        # Simulation time at which `consecutive` reached the suspicion
        # threshold; None while below it (reset by any answer).
        self.crossed_at: float | None = None


class DetectionState:
    """Shared per-system liveness table, fed by every watching agent.

    One instance lives on the :class:`MiddlewareSystem`; every agent
    holds a reference and reports give-ups (:meth:`note_timeout`) and
    answers (:meth:`note_answer`) against child names.  The monitor
    reads ``crossed_at`` at window boundaries — it never sees who timed
    out *when*, only the standing evidence, which is exactly the
    information a real deployment's heartbeat aggregator would have.
    """

    __slots__ = ("threshold", "_nodes")

    def __init__(self, threshold: int):
        self.threshold = threshold
        self._nodes: dict[str, NodeLiveness] = {}

    def _entry(self, name: str) -> NodeLiveness:
        entry = self._nodes.get(name)
        if entry is None:
            entry = self._nodes[name] = NodeLiveness()
        return entry

    def note_timeout(self, name: str, at: float) -> None:
        entry = self._entry(name)
        entry.timeouts += 1
        entry.consecutive += 1
        entry.last_timeout_at = at
        if entry.consecutive >= self.threshold and entry.crossed_at is None:
            entry.crossed_at = at

    def note_answer(self, name: str, at: float) -> None:
        entry = self._entry(name)
        entry.answers += 1
        entry.consecutive = 0
        entry.last_answer_at = at
        entry.crossed_at = None

    def get(self, name: str) -> NodeLiveness | None:
        return self._nodes.get(name)

    def items(self) -> list[tuple[str, NodeLiveness]]:
        """Name-sorted snapshot — deterministic iteration for the monitor."""
        return sorted(self._nodes.items())

    @property
    def suspects(self) -> tuple[str, ...]:
        """Names currently past the threshold, sorted."""
        return tuple(
            name for name, entry in self.items()
            if entry.crossed_at is not None
        )


_SPEC_KEYS = {
    "timeout": ("timeout", float),
    "retries": ("retries", int),
    "backoff": ("backoff", float),
    "threshold": ("suspicion_threshold", int),
    "suspicion-threshold": ("suspicion_threshold", int),
    "suspicion_threshold": ("suspicion_threshold", int),
    "grace": ("grace", float),
}


def parse_detection(spec: str) -> tuple[DetectionParams, float | None]:
    """Parse ``timeout=…,retries=…,…[,reserve=…]`` into params + reserve.

    Returns ``(params, reserve)`` where ``reserve`` is the
    repair-reserve fraction if the spec carried one, else ``None``.
    ``DetectionParams.spec`` round-trips exactly (``reserve`` is loop
    state and intentionally not part of the canonical params spec).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise DetectionError(f"empty detection spec: {spec!r}")
    kwargs: dict[str, object] = {}
    reserve: float | None = None
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise DetectionError(
                f"malformed detection spec chunk {chunk!r} "
                "(expected key=value)"
            )
        key, _, value = chunk.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key == "reserve":
            if reserve is not None:
                raise DetectionError(f"duplicate detection spec key {key!r}")
            try:
                reserve = float(value)
            except ValueError:
                raise DetectionError(
                    f"reserve must be a float, got {value!r}"
                ) from None
            if not 0.0 <= reserve < 1.0:
                raise DetectionError(
                    f"reserve must be in [0, 1), got {reserve!r}"
                )
            continue
        mapped = _SPEC_KEYS.get(key)
        if mapped is None:
            raise DetectionError(
                f"unknown detection spec key {key!r} "
                f"(known: {sorted(set(_SPEC_KEYS))} + ['reserve'])"
            )
        field, cast = mapped
        if field in kwargs:
            raise DetectionError(f"duplicate detection spec key {key!r}")
        try:
            kwargs[field] = cast(value)
        except ValueError:
            raise DetectionError(
                f"detection spec key {key!r} needs a {cast.__name__}, "
                f"got {value!r}"
            ) from None
    return DetectionParams(**kwargs), reserve
