"""Windowed SLO observation over the simulated platform.

The control loop's *sense* stage.  :class:`SLOMonitor` watches one
:class:`~repro.middleware.system.MiddlewareSystem` at a time and, once per
control epoch, condenses the window into a :class:`WindowObservation`:
served throughput (from a completion counter the controller owns, so the
series survives redeploys), per-tier utilization (agents vs. servers,
computed over the *window* by diffing
:meth:`~repro.sim.resources.SerialResource.busy_seconds` snapshots — the
cumulative :meth:`~repro.sim.resources.SerialResource.utilization` would
smear the past into the present), and queue depth (work items waiting
across every node resource, the earliest saturation signal).

The monitor is strictly read-only with respect to the simulation: it
never schedules events, so attaching it cannot perturb a run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ControlError
from repro.middleware.system import MiddlewareSystem
from repro.sim.stats import IntervalCounter

__all__ = ["WindowObservation", "SLOMonitor", "merge_fluid"]


@dataclass(frozen=True)
class WindowObservation:
    """What the monitor saw during one control epoch.

    Attributes
    ----------
    index:
        Epoch number (0-based).
    start, end:
        Window bounds in simulation time.
    offered:
        Target client population during the window (the trace level).
    served:
        Requests completed inside the window.
    served_rate:
        ``served / (end - start)`` — requests/s.
    agent_utilization:
        Busiest agent's busy fraction over the window.
    server_utilization:
        Mean server busy fraction over the window.
    busiest_node, busiest_utilization:
        The window's bottleneck node — the live analogue of the model's
        limiting element.
    queue_depth:
        Work items waiting across all node resources at window end.
    failed_nodes:
        Nodes *newly* observed failed during this window (each failure
        is reported exactly once, in the window it happened).  Under
        oracle health this mirrors ``system.failed_nodes``; under
        timeout-modelled detection it holds *newly confirmed* suspects
        only — the monitor never reads the oracle registries.
    degraded_nodes:
        Nodes running below nominal rate at window end (oracle health
        only; empty under detection — stragglers surface through
        ``server_rates`` instead).
    partitioned_nodes:
        Roots of subtrees partitioned off the fan-out at window end
        (oracle health only; a silent partition manifests as suspicion).
    suspect_nodes:
        Detection only: nodes past the suspicion threshold at window
        end, still inside their grace window.
    reintegrated_nodes:
        Detection only: previously suspect nodes that answered within
        the grace window and dropped back to healthy this window.
    server_rates:
        ``(name, served_per_second)`` per deployed server over this
        window — the raw material of the eviction rule.
    fluid_clients:
        Mean fluid client mass carried analytically during this window
        (0.0 on ordinary all-discrete runs).  On hybrid runs the
        observation is *merged* — ``offered``/``served``/``served_rate``
        and ``server_rates`` already include the fluid contribution
        (see :func:`merge_fluid`), and this field plus ``cohort`` record
        how the total splits.
    fluid_served:
        Whole completions attributed to the fluid mass this window.
    cohort:
        Discrete sampled clients actually simulated this window (equals
        ``offered`` on all-discrete runs where it is left 0 — a 0 here
        means "no hybrid split", not "no clients").
    """

    index: int
    start: float
    end: float
    offered: int
    served: int
    served_rate: float
    agent_utilization: float
    server_utilization: float
    busiest_node: str
    busiest_utilization: float
    queue_depth: int
    failed_nodes: tuple = ()
    degraded_nodes: tuple = ()
    partitioned_nodes: tuple = ()
    suspect_nodes: tuple = ()
    reintegrated_nodes: tuple = ()
    server_rates: tuple = ()
    fluid_clients: float = 0.0
    fluid_served: int = 0
    cohort: int = 0

    @property
    def per_client_rate(self) -> float:
        """Requests/s each offered client achieved (0 when idle)."""
        if self.offered <= 0:
            return 0.0
        return self.served_rate / self.offered


def merge_fluid(
    observation: WindowObservation,
    window,
    offered: int,
    allocation: tuple,
    capacity: float,
) -> WindowObservation:
    """Fold a fluid window into a cohort-only observation.

    ``observation`` is what :meth:`SLOMonitor.observe` saw of the
    discrete sampled cohort; ``window`` the matching
    :class:`~repro.sim.fluid.FluidWindow`; ``offered`` the *total*
    population (trace level); ``allocation`` the per-server
    ``(name, rate)`` fluid shares from
    :meth:`~repro.middleware.system.MiddlewareSystem.assign_fluid_rates`;
    ``capacity`` the residual model throughput the fluid mass was
    integrated against.

    The merged observation is what policies see: ``offered`` is the
    total, ``served``/``served_rate``/``server_rates`` combine both
    halves, and ``busiest_utilization`` is raised to the fluid
    utilization (fluid served rate over residual capacity, capped at 1)
    when the fluid side is the hotter one — without this, no measured
    node utilization would ever reflect a capacity-saturated fluid mass
    and reactive scale-up could not fire at 10⁶-client scale.  The
    split itself is preserved in ``fluid_clients`` / ``fluid_served`` /
    ``cohort``.  ``served_rate`` keeps the fluid side's *fractional*
    mass (more faithful than the floor-carried integer ``served``), so
    ``served_rate * duration`` and ``served`` may differ by < 1.
    """
    if capacity > 0.0:
        fluid_utilization = min(1.0, window.served_rate / capacity)
    else:
        fluid_utilization = 1.0 if window.demand_rate > 0.0 else 0.0
    # Merge over the *union* of both key sets: a server that entered the
    # deployment between the observe snapshot and assign_fluid_rates
    # (mid-epoch repair splice) appears in `allocation` but not yet in
    # `observation.server_rates`, and dropping it would silently erase
    # its fluid share — undercounting exactly the server the eviction
    # lag rule is about to judge.  Both inputs are name-sorted, so the
    # sorted union keeps the merged tuple deterministic.
    merged = {name: rate for name, rate in observation.server_rates}
    for name, share in allocation:
        merged[name] = merged.get(name, 0.0) + share
    merged_rates = tuple(sorted(merged.items()))
    return replace(
        observation,
        offered=offered,
        served=observation.served + window.served,
        served_rate=observation.served_rate + window.served_rate,
        busiest_utilization=max(
            observation.busiest_utilization, fluid_utilization
        ),
        server_rates=merged_rates,
        fluid_clients=window.offered_mean,
        fluid_served=window.served,
        cohort=observation.offered,
    )


class SLOMonitor:
    """Windowed observer over the running (simulated) platform.

    Parameters
    ----------
    completions:
        The controller-owned completion counter.  Owning it here rather
        than reading ``system.completions`` keeps the served series
        continuous across redeploys, when the system object is replaced.
    """

    def __init__(self, completions: IntervalCounter):
        self.completions = completions
        self._system: MiddlewareSystem | None = None
        self._busy_snapshot: dict[str, float] = {}
        self._snapshot_time = 0.0
        # Failures already reported — cumulative across attaches, so a
        # redeploy (which replaces the system object) cannot make an old
        # failure look new again.
        self._failed_seen: set[str] = set()
        # Per-server completed-services snapshot (window rates).
        self._served_snapshot: dict[str, int] = {}
        # Suspicion lifecycle (timeout-modelled detection only).
        # healthy → suspect (threshold crossed) → confirmed-dead (grace
        # elapsed with no answer); an answer at any point before
        # confirmation re-integrates the node.
        self._detection = None
        self._suspect_since: dict[str, float] = {}
        self._was_suspect: set[str] = set()
        # node -> (suspected_at, confirmed_at); confirmations are final
        # and reported exactly once, in the window they happen.
        self._confirmed: dict[str, tuple[float, float]] = {}

    # ------------------------------------------------------------------ #

    def attach(self, system: MiddlewareSystem) -> None:
        """Point the monitor at a (new) platform and reset busy baselines."""
        self._system = system
        self._detection = getattr(system, "detection", None)
        # A name that re-entered the deployment (repair splices a spare,
        # a later redeploy reuses the name) is alive again: drop it from
        # the already-reported sets so a *second* failure of the reused
        # name is reported — without this, `_failed_seen` grows forever
        # and swallows every repeat failure, and a confirmed suspicion
        # would outlive the node it was about.
        deployed = set(system.agents) | set(system.servers)
        self._failed_seen -= deployed
        for name in deployed:
            self._confirmed.pop(name, None)
        self._snapshot_time = system.sim.now
        self._busy_snapshot = self._busy_now(system)
        self._served_snapshot = {
            name: server.services_done
            for name, server in system.servers.items()
        }

    @staticmethod
    def _elements(system: MiddlewareSystem):
        yield from system.agents.items()
        yield from system.servers.items()

    @classmethod
    def _busy_now(cls, system: MiddlewareSystem) -> dict[str, float]:
        """Every element's cumulative busy seconds as of now."""
        return {
            name: element.resource.busy_seconds()
            for name, element in cls._elements(system)
        }

    def _utilization(self, busy_now: dict[str, float]) -> dict[str, float]:
        """Per-node busy fraction of the window that ends at ``busy_now``."""
        elapsed = self._system.sim.now - self._snapshot_time
        if elapsed <= 0.0:
            return dict.fromkeys(busy_now, 0.0)
        before = self._busy_snapshot
        return {
            name: min(1.0, max(0.0, (busy - before.get(name, 0.0)) / elapsed))
            for name, busy in busy_now.items()
        }

    def observe(
        self, index: int, start: float, end: float, offered: int
    ) -> WindowObservation:
        """Condense the window ``(start, end]`` into one observation.

        Also advances the busy-time snapshot, so consecutive calls yield
        independent windows.
        """
        if self._system is None:
            raise ControlError("monitor is not attached to a system")
        if end <= start:
            raise ControlError(f"bad observation window: ({start}, {end})")
        system = self._system
        busy_now = self._busy_now(system)
        utilization = self._utilization(busy_now)
        agent_utils = [utilization[name] for name in system.agents]
        server_utils = [utilization[name] for name in system.servers]
        busiest = max(utilization, key=lambda k: (utilization[k], k))
        served = self.completions.count_in(start, end)
        queue_depth = sum(
            element.resource.queue_length
            for _, element in self._elements(system)
        )
        # Roll the snapshots forward for the next window.
        self._snapshot_time = system.sim.now
        self._busy_snapshot = busy_now
        duration = end - start
        served_before = self._served_snapshot
        self._served_snapshot = {
            name: server.services_done
            for name, server in system.servers.items()
        }
        server_rates = tuple(
            (name, (done - served_before.get(name, 0)) / duration)
            for name, done in sorted(self._served_snapshot.items())
        )
        if self._detection is None:
            new_failed = tuple(sorted(system.failed_nodes - self._failed_seen))
            self._failed_seen.update(system.failed_nodes)
            degraded = tuple(sorted(system.degraded))
            partitioned = tuple(sorted(system.partitioned_subtrees))
            suspects: tuple = ()
            reintegrated: tuple = ()
        else:
            suspects, reintegrated, new_failed = self._suspicion_pass(
                system, end
            )
            # Inferred health only: the oracle registries stay unread.
            degraded = ()
            partitioned = ()
        return WindowObservation(
            index=index,
            start=start,
            end=end,
            offered=offered,
            served=served,
            served_rate=served / (end - start),
            agent_utilization=max(agent_utils, default=0.0),
            server_utilization=(
                sum(server_utils) / len(server_utils) if server_utils else 0.0
            ),
            busiest_node=busiest,
            busiest_utilization=utilization[busiest],
            queue_depth=queue_depth,
            failed_nodes=new_failed,
            degraded_nodes=degraded,
            partitioned_nodes=partitioned,
            suspect_nodes=suspects,
            reintegrated_nodes=reintegrated,
            server_rates=server_rates,
        )

    # ------------------------------------------------------------------ #
    # suspicion lifecycle (timeout-modelled detection)

    def _suspicion_pass(
        self, system: MiddlewareSystem, now: float
    ) -> tuple[tuple, tuple, tuple]:
        """Advance every node's health state at a window boundary.

        Reads only the evidence a real aggregator would have — the
        liveness table the watchdogs feed — never the oracle registries.
        A node whose consecutive-timeout count crossed the threshold
        becomes *suspect*; a suspect that stays silent for the grace
        window is *confirmed* dead (final, reported once); a suspect
        that answers anything first drops back to healthy and is
        reported as re-integrated.  Returns ``(suspects, reintegrated,
        confirmed)``, each name-sorted.
        """
        grace = self._detection.grace
        suspects: list[str] = []
        reintegrated: list[str] = []
        confirmed: list[str] = []
        deployed = set(system.agents) | set(system.servers)
        for name, entry in system.liveness.items():
            if name in self._confirmed:
                continue  # confirmation is final
            if name not in deployed:
                # Excised (or migrated away) between windows: stale
                # suspicion must not outlive the node.
                self._suspect_since.pop(name, None)
                self._was_suspect.discard(name)
                continue
            if entry.crossed_at is None:
                if name in self._was_suspect:
                    reintegrated.append(name)
                    self._was_suspect.discard(name)
                self._suspect_since.pop(name, None)
                continue
            since = self._suspect_since.get(name)
            if since is None or entry.crossed_at > since:
                # First sighting — or the node answered (resetting the
                # crossing) and went silent again since the last window:
                # the grace clock restarts from the fresh crossing.
                since = self._suspect_since[name] = entry.crossed_at
            if now - since >= grace:
                confirmed.append(name)
                self._confirmed[name] = (since, now)
                self._suspect_since.pop(name, None)
                self._was_suspect.discard(name)
            else:
                suspects.append(name)
                self._was_suspect.add(name)
        return tuple(suspects), tuple(reintegrated), tuple(confirmed)

    def detection_report(self, name: str) -> tuple[float, float] | None:
        """``(suspected_at, confirmed_at)`` for a confirmed node, else None."""
        return self._confirmed.get(name)
