"""The §5.1 load-injection protocol.

    "A unit of load is introduced via a script that runs a single request
    at a time in a continual loop.  We then introduce load gradually by
    launching one client script every second.  We introduce new clients
    until the throughput of the platform stops improving; we then let the
    platform run with no addition of clients for 10 minutes."

:class:`ClientRamp` drives exactly that protocol against a simulated
platform: closed-loop clients start at a fixed interval; a controller
watches the completion rate and freezes the ramp once the rate has
plateaued; the platform then holds at peak load while the sustained
throughput is measured.  All time constants are configurable because
simulated minutes are cheaper than real ones but not free.

**Determinism contract.**  Every stochastic path in the load machinery
flows from an explicit integer seed — there is no hidden global RNG
anywhere between a workload description and a measurement:

* the platform's tie-breaking randomness is seeded through
  :class:`~repro.middleware.system.MiddlewareSystem` (``seed=``); the
  ramp itself draws no random numbers, starting exactly one client per
  interval as the paper does;
* the control plane's traces (:mod:`repro.control.traces`) are pure
  functions of simulation time and draw no random numbers;
* live migrations extend the contract to mid-run reconfiguration: a
  :class:`~repro.control.loop.ControlLoop` redeploy drains subtrees
  against simulation-state predicates (never wall clock) and applies
  its :class:`~repro.deploy.migration.MigrationPlan` steps in a fixed
  order, so the timeline stays a pure function of
  (pool, trace, policy, params, seed, migration mode);
* the hybrid fluid population path
  (:class:`~repro.sim.fluid.FluidPopulation` driven by a
  :class:`~repro.control.traces.HybridTrace`) is pure arithmetic on
  simulation state — no RNG, no wall clock — so a million-client fluid
  mass adds *nothing* stochastic on top of the cohort's seeded
  conversations.

Same seeds ⇒ the same event sequence ⇒ bit-identical results, which is
what lets the test suite compare whole experiment outputs by equality.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.middleware.client import ClosedLoopClient
from repro.middleware.system import MiddlewareSystem

__all__ = ["ClientRamp", "RampResult"]

#: A ramp bucket counts as progress only if its rate beats the best seen
#: by this relative margin; ``plateau_buckets`` buckets without progress
#: freeze the ramp.
_PLATEAU_TOLERANCE = 0.02


@dataclass(frozen=True)
class RampResult:
    """Outcome of one ramp experiment.

    Attributes
    ----------
    clients:
        Active client count per measurement bucket.
    rates:
        Completion rate (requests/s) per measurement bucket.
    max_sustained:
        Mean rate over the hold phase — the paper's "maximum sustained
        throughput".
    clients_at_peak:
        Number of clients running during the hold phase.
    total_completed:
        Requests completed over the whole experiment.
    """

    clients: np.ndarray = field(repr=False)
    rates: np.ndarray = field(repr=False)
    max_sustained: float
    clients_at_peak: int
    total_completed: int

    def curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(clients, requests/s) — the figures' load-curve axes."""
        return self.clients, self.rates


class ClientRamp:
    """Gradual load ramp with plateau detection and a hold phase.

    Parameters
    ----------
    client_interval:
        Seconds between client starts (1.0 in the paper).
    max_clients:
        Hard cap on the number of clients.
    window:
        Measurement bucket width in seconds.
    plateau_buckets:
        The ramp freezes when the mean rate of this many recent buckets
        fails to improve on the best seen by 2 % (relative).
    hold_duration:
        Seconds to keep running at frozen load (600 in the paper).
    think_time:
        Client think time between requests (0 in the paper).
    """

    def __init__(
        self,
        client_interval: float = 1.0,
        max_clients: int = 200,
        window: float = 1.0,
        plateau_buckets: int = 5,
        hold_duration: float = 30.0,
        think_time: float = 0.0,
    ):
        if client_interval <= 0.0:
            raise SimulationError(
                f"client_interval must be > 0, got {client_interval}"
            )
        if max_clients < 1:
            raise SimulationError(f"max_clients must be >= 1, got {max_clients}")
        if window <= 0.0:
            raise SimulationError(f"window must be > 0, got {window}")
        if plateau_buckets < 2:
            raise SimulationError(
                f"plateau_buckets must be >= 2, got {plateau_buckets}"
            )
        if hold_duration <= 0.0:
            raise SimulationError(
                f"hold_duration must be > 0, got {hold_duration}"
            )
        self.client_interval = client_interval
        self.max_clients = max_clients
        self.window = window
        self.plateau_buckets = plateau_buckets
        self.hold_duration = hold_duration
        self.think_time = think_time

    # ------------------------------------------------------------------ #

    def run(self, system: MiddlewareSystem) -> RampResult:
        """Execute the protocol on ``system`` (drives its simulator)."""
        sim = system.sim
        clients: list[ClosedLoopClient] = []
        bucket_clients: list[int] = []
        bucket_rates: list[float] = []
        best_rate = 0.0
        stale = 0
        frozen = False

        def bucket_edge_rate() -> float:
            end = sim.now
            return system.completions.rate(end - self.window, end)

        # The ramp controller runs once per client interval: record the
        # last bucket, check the plateau, maybe start a client.
        while not frozen and len(clients) < self.max_clients:
            client = ClosedLoopClient(
                system, f"client-{len(clients):04d}", think_time=self.think_time
            )
            clients.append(client)
            client.start()
            sim.run_until(sim.now + self.client_interval)
            rate = bucket_edge_rate()
            bucket_clients.append(len(clients))
            bucket_rates.append(rate)
            if rate > best_rate * (1.0 + _PLATEAU_TOLERANCE):
                best_rate = rate
                stale = 0
            else:
                stale += 1
                if stale >= self.plateau_buckets:
                    frozen = True

        # Hold phase: fixed load, measure sustained throughput.
        hold_start = sim.now
        hold_end = hold_start + self.hold_duration
        while sim.now < hold_end:
            sim.run_until(min(hold_end, sim.now + self.window))
            bucket_clients.append(len(clients))
            bucket_rates.append(bucket_edge_rate())
        max_sustained = system.completions.rate(hold_start, hold_end)

        return RampResult(
            clients=np.asarray(bucket_clients, dtype=int),
            rates=np.asarray(bucket_rates, dtype=float),
            max_sustained=float(max_sustained),
            clients_at_peak=len(clients),
            total_completed=system.total_completed(),
        )
