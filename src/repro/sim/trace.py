"""Event tracing for the simulated middleware.

The paper's calibration campaign (§5.1) captured *wire traffic* with
tcpdump/Ethereal and per-message processing times with DIET's statistics
module.  :class:`TraceRecorder` is the simulated counterpart: middleware
components emit structured records (message sent/received, computation
started/finished) and the calibration code post-processes them exactly as
the authors post-processed packet captures.

Tracing is off by default — the recorder is only attached when an
experiment requests it, so the hot simulation path pays nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterator

__all__ = ["TraceRecord", "TraceRecorder"]


@dataclass(frozen=True)
class TraceRecord:
    """One traced middleware event.

    Attributes
    ----------
    time:
        Simulation time of the event.
    kind:
        ``"msg_sent"``, ``"msg_recv"``, ``"compute"``, or a free-form
        experiment-specific tag.
    node:
        Name of the node the event occurred on.
    detail:
        Event payload: message type and size for wire events, work amount
        for computations.
    request_id:
        The request the event belongs to, if any.
    """

    time: float
    kind: str
    node: str
    detail: dict
    request_id: int | None = None


class TraceRecorder:
    """Append-only store of :class:`TraceRecord` with simple queries."""

    def __init__(self) -> None:
        self._records: list[TraceRecord] = []

    def emit(
        self,
        time: float,
        kind: str,
        node: str,
        request_id: int | None = None,
        **detail: object,
    ) -> None:
        self._records.append(
            TraceRecord(
                time=time,
                kind=kind,
                node=node,
                detail=detail,
                request_id=request_id,
            )
        )

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def by_node(self, node: str) -> list[TraceRecord]:
        return [r for r in self._records if r.node == node]

    def clear(self) -> None:
        self._records.clear()
