"""Request bookkeeping for the simulated middleware.

A request goes through the paper's two phases (Figure 1):

1. *scheduling*: client -> root agent -> (fan-out) -> servers -> (merge)
   -> root agent -> client, yielding the selected server;
2. *service*: client -> selected server -> client.

:class:`Request` records phase timestamps so harnesses can report latency
breakdowns in addition to throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Request"]


@dataclass
class Request:
    """One client request and its lifecycle timestamps (simulation time)."""

    request_id: int
    client_name: str
    submitted_at: float
    scheduled_at: float | None = None
    service_started_at: float | None = None
    completed_at: float | None = None
    selected_server: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def scheduling_latency(self) -> float | None:
        """Seconds spent in the scheduling phase."""
        if self.scheduled_at is None:
            return None
        return self.scheduled_at - self.submitted_at

    @property
    def total_latency(self) -> float | None:
        """Seconds from submission to completion."""
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    @property
    def is_complete(self) -> bool:
        return self.completed_at is not None
