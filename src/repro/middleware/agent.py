"""Simulated agent element.

Per request (Figure 1 and Eqs. 1–2, 5 of the paper) an agent:

1. receives the request from its parent (``Sreq`` at agent level),
2. computes the request-processing work ``Wreq``,
3. forwards the request to each of its ``d`` children, serially (the
   single-port model) — agent-level ``Sreq`` to child agents,
   server-level ``Sreq`` to child servers,
4. receives ``d`` replies, each costing receive time on its resource,
5. computes the merge/selection work ``Wrep(d) = Wfix + Wsel*d``,
6. sends the merged reply (the best server seen) to its parent.

Selection keeps the child reply with the *earliest availability
estimate*, which reproduces DIET's pick-the-best-server behaviour and
makes the steady-state load split emerge from queue dynamics.
"""

from __future__ import annotations

import random
from collections import defaultdict, deque
from functools import partial

from repro.core.params import ModelParams
from repro.errors import SimulationError
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource
from repro.sim.trace import TraceRecorder

__all__ = ["AgentElement"]


class _PendingRequest:
    """Reply-merge state for one in-flight request at one agent.

    ``origin`` is the element the merged reply must go back to, captured
    when the request was *received* — not looked up at reply time — so a
    conversation survives the agent being re-homed mid-flight by a live
    migration.  ``None`` means the request came from the client layer.

    ``awaiting`` tracks which children have not yet *delivered* a reply
    (discarded as each reply's send lands, before the receive is
    billed): when a child crashes mid-round, the failure layer consults
    it to synthesize the exact set of replies that will never arrive.

    ``timed_out`` (detection mode only; ``None`` otherwise) holds the
    children this round gave up on after the retry ladder ran dry —
    their late replies, should they straggle in after all, must not be
    merged a second time.
    """

    __slots__ = (
        "remaining", "best_server", "best_estimate", "ties", "origin",
        "awaiting", "timed_out",
    )

    def __init__(
        self,
        remaining: int,
        origin: "AgentElement | None",
        awaiting: set | None = None,
    ):
        self.remaining = remaining
        self.best_server: str | None = None
        self.best_estimate = float("inf")
        self.ties = 0
        self.origin = origin
        self.awaiting: set = awaiting if awaiting is not None else set()
        self.timed_out: set | None = None


class AgentElement:
    """One deployed agent (root or inner)."""

    __slots__ = (
        "sim",
        "name",
        "power",
        "params",
        "bandwidth",
        "rng",
        "resource",
        "parent",
        "children",
        "client_sink",
        "trace",
        "requests_done",
        "_pending",
        "detection",
        "liveness",
        "reachable",
        "obs",
        "_watchdogs",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        power: float,
        params: ModelParams,
        trace: TraceRecorder | None = None,
        rng: "random.Random | None" = None,
        bandwidth: float | None = None,
        detection=None,
        liveness=None,
        obs=None,
    ):
        self.sim = sim
        self.name = name
        self.power = power
        self.params = params
        # Per-node access-link bandwidth (Mb/s); defaults to the uniform
        # model bandwidth.  Every transfer this node takes part in costs
        # size / self.bandwidth on this node's resource — the "each
        # endpoint pays its own link" rule of the hetcomm extension.
        self.bandwidth = params.bandwidth if bandwidth is None else bandwidth
        self.rng = rng if rng is not None else random.Random(0)
        self.resource = SerialResource(sim, name)
        self.parent = None  # None for the root; set by MiddlewareSystem
        self.children: list = []  # AgentElement | ServerElement
        # Root only: callable(request_id, server_name) delivering the
        # scheduling decision to the client layer; set by MiddlewareSystem.
        self.client_sink = None
        self.trace = trace
        self.requests_done = 0
        self._pending: dict[int, _PendingRequest] = {}
        # Detection mode (both None when failures are announced by the
        # oracle): `detection` is the system's DetectionParams, `liveness`
        # the shared DetectionState every watchdog reports into.
        self.detection = detection
        self.liveness = liveness
        # Detection mode: per retry level, the watchdogs in the order
        # their deliveries started them, as ``(key, child, request_id,
        # round)``.  A level's deadlines rise with its keys, so only its
        # head is on the engine heap: a queue is non-empty exactly while
        # its head's event is pending.
        self._watchdogs: defaultdict[int, deque] = defaultdict(deque)
        # False while a network partition severs this element from its
        # parent; deliveries to an unreachable element vanish (the sender
        # cannot tell — that is the point of modelling detection).
        self.reachable = True
        # Observability handle; the shared null handle keeps disabled
        # watchdog instrumentation at one attribute check.
        if obs is None:
            from repro.obs.probe import NULL_OBS

            obs = NULL_OBS
        self.obs = obs

    # ------------------------------------------------------------------ #

    @property
    def degree(self) -> int:
        return len(self.children)

    @property
    def in_flight(self) -> int:
        """Requests received but not yet replied (drain-quiet signal)."""
        return len(self._pending)

    def receive_request(
        self, request_id: int, origin: "AgentElement | None" = None
    ) -> None:
        """Upstream (parent agent or client) finished sending to us.

        ``origin`` is the sender the eventual merged reply belongs to;
        the default ``None`` means the client layer (root agents only).
        """
        params = self.params
        recv_time = params.agent_sizes.sreq / self.bandwidth

        def after_recv() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "msg_recv", self.name,
                    request_id=request_id,
                    size_mb=params.agent_sizes.sreq, msg="sched_req",
                )
            duration = params.wreq / self.power

            def processed() -> None:
                if self.trace is not None:
                    self.trace.emit(
                        self.sim.now, "compute", self.name,
                        request_id=request_id,
                        duration=duration, what="request_processing",
                    )
                self._fan_out(request_id, origin)

            self.resource.submit(duration, "compute", processed)

        self.resource.submit(recv_time, "recv", after_recv)

    def _fan_out(
        self, request_id: int, origin: "AgentElement | None"
    ) -> None:
        """Forward the request to every child, serially (single port).

        The agent pays agent-level send time for every child (that is how
        Eq. 2 bills it); servers pay their own (much smaller) server-level
        receive time on arrival (Eq. 3).  The asymmetry mirrors the
        paper's per-element accounting in Table 3.

        A childless agent — only possible transiently, while a live
        migration has detached its last subtree — replies "no server"
        immediately; the client layer resubmits.
        """
        if self.detection is not None and request_id in self._pending:
            # A parent's retry re-delivered a request whose first copy
            # is still being merged here — the original round answers
            # for both, so the duplicate is dropped (the recv/compute
            # cost it already incurred is the price of retrying a slow
            # but live child).
            return
        pending = _PendingRequest(
            len(self.children), origin,
            awaiting={child.name for child in self.children},
        )
        if self.detection is not None:
            pending.timed_out = set()
        self._pending[request_id] = pending
        if not self.children:
            merge_work = self.params.wrep(0)
            self.resource.submit(
                merge_work / self.power, "compute",
                lambda: self._reply_up(request_id),
            )
            return
        params = self.params
        send_time = params.agent_sizes.sreq / self.bandwidth
        for child in self.children:
            if self.detection is not None:
                deliver = self._make_watched_delivery(
                    child, request_id, 0, pending
                )
            elif isinstance(child, AgentElement):
                deliver = self._make_agent_delivery(child, request_id)
            else:
                deliver = self._make_server_delivery(child, request_id)
            self.resource.submit(send_time, "send", deliver)

    def _make_agent_delivery(self, child: "AgentElement", request_id: int):
        return lambda: child.receive_request(request_id, self)

    def _make_server_delivery(self, child, request_id: int):
        return lambda: child.receive_schedule(request_id, self)

    # ------------------------------------------------------------------ #
    # Detection mode: watched deliveries and watchdogs.

    def _deliver_to_child(self, child, request_id: int) -> None:
        """Hand the request to the child — if the network still can.

        An unreachable child (severed by a partition) simply never sees
        the message; a crashed child's halted resource black-holes it.
        Either way the sender learns nothing until the watchdog fires.
        """
        if not child.reachable:
            return
        if isinstance(child, AgentElement):
            child.receive_request(request_id, self)
        else:
            child.receive_schedule(request_id, self)

    def _make_watched_delivery(
        self, child, request_id: int, attempt: int,
        pending: _PendingRequest,
    ):
        def deliver() -> None:
            self._deliver_to_child(child, request_id)
            # Start the watchdog whether or not the message got through —
            # the sender cannot know the difference.  It queues under the
            # key its own event would take now; only the head of the
            # queue is on the engine heap.
            wait = self.detection.timeout * (self.detection.backoff**attempt)
            queue = self._watchdogs[attempt]
            key = self.sim.take(wait)
            if not queue:
                self.sim.arm(key, partial(self._expire, attempt))
            queue.append((key, child, request_id, pending))

        return deliver

    def _acts(self, child, request_id: int, pending: _PendingRequest) -> bool:
        """Whether a watchdog still has work: its round is the pending one
        (a later round under the same id, a parent's retry that arrived
        after this one replied, has timers of its own) and its child has
        not answered.  Once false, it stays false."""
        return (
            self._pending.get(request_id) is pending
            and child.name in pending.awaiting
        )

    def _expire(self, attempt: int) -> None:
        """The head of level ``attempt``'s queue fires, at its own key.

        The entries behind it that can no longer act are dropped, and
        the first that still can goes on the heap under its key.
        """
        queue = self._watchdogs[attempt]
        _, child, request_id, pending = queue.popleft()
        if self.resource.is_halted:
            queue.clear()  # a dead process has no timers
            return
        if self._acts(child, request_id, pending):
            self._time_out(child, request_id, attempt, pending)
        while queue and not self._acts(*queue[0][1:]):
            queue.popleft()
        if queue:
            self.sim.arm(queue[0][0], partial(self._expire, attempt))

    def _time_out(
        self, child, request_id: int, attempt: int,
        pending: _PendingRequest,
    ) -> None:
        """``child`` left the round's request unanswered for the wait of
        ``attempt``: resend it, or give up on the child once the retry
        ladder has run dry."""
        if self.liveness is not None:
            self.liveness.note_timeout(child.name, self.sim.now)
        if attempt < self.detection.retries:
            if self.obs.enabled:
                self.obs.tracer.event(
                    self.sim.now, "watchdog", "retry",
                    agent=self.name, child=child.name, attempt=attempt,
                )
            send_time = self.params.agent_sizes.sreq / self.bandwidth
            self.resource.submit(
                send_time, "send",
                self._make_watched_delivery(
                    child, request_id, attempt + 1, pending
                ),
            )
            return
        # Retry ladder exhausted: give up on this child for the round
        # and let the merge proceed over the survivors.
        if self.obs.enabled:
            self.obs.tracer.event(
                self.sim.now, "watchdog", "gaveup",
                agent=self.name, child=child.name,
            )
        pending.awaiting.discard(child.name)
        pending.timed_out.add(child.name)
        pending.remaining -= 1
        if pending.remaining == 0:
            merge_work = self.params.wrep(len(self.children))
            self.resource.submit(
                merge_work / self.power, "compute",
                self._make_reply_up(request_id),
            )

    # ------------------------------------------------------------------ #

    def receive_reply(
        self,
        request_id: int,
        server_name: str | None,
        estimate: float,
        sender: str | None = None,
    ) -> None:
        """A child finished sending its reply: absorb it, maybe merge.

        ``sender`` is the *child element* that produced the reply (which
        for agent replies differs from ``server_name``, the best server
        somewhere below it); it is struck off the awaiting set up front,
        so the failure layer never synthesizes a reply that was already
        delivered.
        """
        params = self.params
        if self.liveness is not None and sender is not None:
            # Any answer is proof of life, even one too late to merge.
            self.liveness.note_answer(sender, self.sim.now)
        # Reply size depends on who sent it; both agent and server replies
        # are received at the size the sender produced.  The sender already
        # paid its send time; we pay the receive time here.
        pending = self._pending.get(request_id)
        if pending is None:  # late reply for an aborted request
            return
        if (
            pending.timed_out is not None
            and sender is not None
            and sender not in pending.awaiting
        ):
            # Detection mode: the round already gave up on this child
            # (or merged its earlier reply, and this is a retry-induced
            # duplicate).  Liveness was noted above; the merge moved on.
            return
        if sender is not None:
            pending.awaiting.discard(sender)
        recv_time = params.agent_sizes.srep / self.bandwidth

        def after_recv() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "msg_recv", self.name,
                    request_id=request_id,
                    size_mb=params.agent_sizes.srep, msg="sched_rep",
                )
            if estimate < pending.best_estimate:
                pending.best_estimate = estimate
                pending.best_server = server_name
                pending.ties = 1
            elif estimate == pending.best_estimate:
                # Reservoir sampling keeps the winner uniform among ties,
                # avoiding the herd-to-first-child bias a plain "<" has.
                pending.ties += 1
                if self.rng.random() < 1.0 / pending.ties:
                    pending.best_server = server_name
            pending.remaining -= 1
            if pending.remaining == 0:
                merge_work = params.wrep(len(self.children))
                self.resource.submit(
                    merge_work / self.power, "compute",
                    lambda: self._reply_up(request_id),
                )
                return

        self.resource.submit(recv_time, "recv", after_recv)

    def child_failed(self, child_name: str) -> int:
        """Synthesize the replies a crashed child will never deliver.

        For every in-flight merge still awaiting ``child_name``, account
        the reply as arrived-with-no-candidate (no receive time is
        billed).  Under oracle detection this runs at the instant of the
        fault; under timeout-modelled detection it runs only when the
        control plane *confirms* the failure and excises the subtree —
        closing out the rounds whose watchdogs had not yet expired.
        Rounds whose last
        outstanding reply this was proceed to the merge; rounds that
        lose *every* candidate reply "no server" and the client layer
        resubmits.  Returns the number of affected merges.
        """
        affected = 0
        for request_id in sorted(self._pending):
            pending = self._pending[request_id]
            if child_name not in pending.awaiting:
                continue
            pending.awaiting.discard(child_name)
            pending.remaining -= 1
            affected += 1
            if pending.remaining == 0:
                merge_work = self.params.wrep(len(self.children))
                self.resource.submit(
                    merge_work / self.power, "compute",
                    self._make_reply_up(request_id),
                )
        return affected

    def _make_reply_up(self, request_id: int):
        return lambda: self._reply_up(request_id)

    def _reply_up(self, request_id: int) -> None:
        pending = self._pending.pop(request_id)
        self.requests_done += 1
        params = self.params
        if self.trace is not None:
            self.trace.emit(
                self.sim.now, "compute", self.name,
                request_id=request_id,
                duration=params.wrep(len(self.children)) / self.power,
                what="merge",
                degree=len(self.children),
            )
        send_time = params.agent_sizes.srep / self.bandwidth

        def after_send() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "msg_sent", self.name,
                    request_id=request_id,
                    size_mb=params.agent_sizes.srep, msg="sched_rep",
                )
            # Reply to whoever the request came from — captured at
            # receive time, so a mid-flight re-homing cannot strand the
            # conversation at an element that no longer expects it.
            if pending.origin is not None:
                pending.origin.receive_reply(
                    request_id, pending.best_server, pending.best_estimate,
                    sender=self.name,
                )
            elif self.client_sink is not None:
                # Root: hand the decision back to the system/client layer.
                self.client_sink(request_id, pending.best_server)
            else:
                raise SimulationError(
                    f"root agent {self.name!r} not wired to a client sink"
                )

        self.resource.submit(send_time, "send", after_send)
