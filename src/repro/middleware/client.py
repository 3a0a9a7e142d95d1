"""Closed-loop clients — the paper's unit of load (§5.1).

"A unit of load is introduced via a script that runs a single request at a
time in a continual loop."  :class:`ClosedLoopClient` is exactly that: it
submits a request, waits for the service response, and immediately submits
the next one, optionally with think time.  Load generators start one such
client per second to ramp load, as the authors did.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from repro.errors import SimulationError
from repro.middleware.messages import Request
from repro.middleware.system import MiddlewareSystem

__all__ = ["ClosedLoopClient"]


class ClosedLoopClient:
    """A client running requests back-to-back against a platform.

    Parameters
    ----------
    system:
        The deployed middleware platform.
    name:
        Client identifier (appears in request records).
    think_time:
        Idle seconds between receiving a response and submitting the next
        request (0, as in the paper's load scripts).
    on_complete:
        Optional per-completion hook (called with the finished request).
    """

    __slots__ = (
        "system",
        "name",
        "think_time",
        "on_complete",
        "completed",
        "active",
        "_running",
        "_aborted",
    )

    def __init__(
        self,
        system: MiddlewareSystem,
        name: str,
        think_time: float = 0.0,
        on_complete: Callable[[Request], None] | None = None,
    ):
        # Written so NaN fails too: ``nan < 0.0`` is false, and a NaN
        # think time would otherwise behave as zero.
        if not 0.0 <= think_time < math.inf:
            raise SimulationError(
                f"think_time must be finite and >= 0, got {think_time}"
            )
        self.system = system
        self.name = name
        self.think_time = think_time
        self.on_complete = on_complete
        self.completed = 0
        self.active = False
        self._running = False
        self._aborted = False

    def start(self) -> None:
        """Begin the request loop (idempotent)."""
        if self._running:
            return
        self._running = True
        self.active = True
        self._submit()

    def stop(self) -> None:
        """Stop after the in-flight request completes."""
        self._running = False

    def abort(self) -> None:
        """Stop immediately and disown the in-flight request (teardown).

        Models a stop-the-world platform restart: the daemons serving
        the in-flight request are killed, so its completion never
        reaches the client — ``on_complete`` is detached and neither it
        nor the :attr:`completed` counter sees the request land.
        Contrast :meth:`stop`, which lets the request finish (a
        graceful drain).
        """
        self._running = False
        self._aborted = True
        self.on_complete = None
        self.active = False

    def _submit(self) -> None:
        self.system.submit(self.name, self._done)

    def _done(self, request: Request) -> None:
        if self._aborted:
            return
        self.completed += 1
        if self.on_complete is not None:
            self.on_complete(request)
        if not self._running:
            self.active = False
            return
        if self.think_time > 0.0:
            self.system.sim.schedule(self.think_time, self._submit)
        else:
            self._submit()
