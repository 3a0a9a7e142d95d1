"""Simulated server (SeD) element.

A server participates in both phases of every request:

* **scheduling**: receive the forwarded request, compute a performance
  prediction (``Wpre`` MFlop), and reply to the parent agent with an
  availability estimate — the server's current backlog, which is what
  DIET's prediction effectively reports;
* **service**: if selected, receive the client's service request, execute
  the application (``Wapp`` MFlop), and return the response.

All activity serializes on the node's M(r,s,w) resource, so prediction
work, service work and message transfers contend exactly as the paper's
model assumes.

The scheduling phase is declared as one recv -> predict -> send chain,
which the resource runs as a single engine event when nothing can see
its middle (:meth:`~repro.sim.resources.SerialResource.submit_chain`).
The prediction's bookkeeping then runs at the reply's end, so
``receive_service`` splits the chain first, before it commits work to
the estimate.  A traced server runs the chain one step at a time, each
step recorded at its own time.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.params import ModelParams
from repro.sim.engine import Simulator
from repro.sim.resources import SerialResource
from repro.sim.trace import TraceRecorder

__all__ = ["ServerElement"]


class ServerElement:
    """One deployed SeD.

    Parameters
    ----------
    sim, name, power:
        Engine, node name, node power (MFlop/s).
    params:
        Calibrated middleware parameters.
    app_work:
        Application work ``Wapp`` (MFlop) per service request.
    trace:
        Optional trace recorder (calibration campaigns).
    """

    __slots__ = (
        "sim",
        "name",
        "power",
        "params",
        "bandwidth",
        "app_work",
        "_schedule_work",
        "resource",
        "parent",
        "trace",
        "services_done",
        "pending_service_work",
        "reachable",
        "fluid_rate",
    )

    def __init__(
        self,
        sim: Simulator,
        name: str,
        power: float,
        params: ModelParams,
        app_work: float,
        trace: TraceRecorder | None = None,
        bandwidth: float | None = None,
    ):
        self.sim = sim
        self.name = name
        self.power = power
        self.params = params
        # Per-node access-link bandwidth; see AgentElement.bandwidth.
        self.bandwidth = params.bandwidth if bandwidth is None else bandwidth
        self.app_work = app_work
        # Seconds of the scheduling chain's recv, prediction and reply.
        self._schedule_work = (
            params.server_sizes.sreq / self.bandwidth,
            params.wpre / power,
            params.server_sizes.srep / self.bandwidth,
        )
        self.resource = SerialResource(sim, name)
        self.parent = None  # set by MiddlewareSystem wiring
        self.trace = trace
        self.services_done = 0
        # Seconds of committed service work (accepted but not finished) —
        # the quantity the availability prediction reports.
        self.pending_service_work = 0.0
        # False while a partition severs this server from the network;
        # deliveries to an unreachable server vanish (detection mode).
        self.reachable = True
        # Aggregate fluid load (req/s) assigned by the control loop's
        # hybrid-population accounting.  Pure bookkeeping: the fluid
        # mass never enters this server's resource queue, it only rides
        # along in served-rate reports
        # (MiddlewareSystem.assign_fluid_rates).
        self.fluid_rate = 0.0

    @property
    def in_flight(self) -> int:
        """Whether service work is still committed (drain-quiet signal)."""
        return 1 if self.pending_service_work > 0.0 else 0

    # ------------------------------------------------------------------ #
    # scheduling phase

    def receive_schedule(self, request_id: int, reply_to=None) -> None:
        """Parent finished sending: absorb the message, predict, reply.

        ``reply_to`` is the agent the prediction reply belongs to,
        captured by the sender at fan-out time; the default falls back
        to the current parent.  Capturing it keeps in-flight scheduling
        conversations intact while a live migration re-homes this server.
        """
        estimate = 0.0

        def after_predict() -> None:
            nonlocal estimate
            # The estimate DIET's FAST-like predictor would return: how
            # long until this node could start new service work, i.e. the
            # service work it has already accepted.  Relative (not an
            # absolute timestamp) so servers probed at slightly different
            # times during the fan-out compare fairly.
            estimate = self.pending_service_work
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "compute", self.name,
                    request_id=request_id,
                    duration=self.params.wpre / self.power, what="prediction",
                )

        def after_send() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "msg_sent", self.name,
                    request_id=request_id,
                    size_mb=self.params.server_sizes.srep, msg="sched_rep",
                )
            target = reply_to if reply_to is not None else self.parent
            target.receive_reply(
                request_id, self.name, estimate, sender=self.name
            )

        recv, predict, send = self._schedule_work
        if self.trace is None:
            self.resource.submit_chain(
                recv, predict, send, None, after_predict, after_send
            )
            return

        def after_recv() -> None:
            self.trace.emit(
                self.sim.now, "msg_recv", self.name,
                request_id=request_id,
                size_mb=self.params.server_sizes.sreq, msg="sched_req",
            )

        # A traced run records every step at its own time: no fusion.
        self.resource.submit_steps(
            recv, predict, send, after_recv, after_predict, after_send
        )

    # ------------------------------------------------------------------ #
    # service phase

    def receive_service(
        self, request_id: int, on_complete: Callable[[], None]
    ) -> None:
        """Client invokes the application on this server."""
        # A pending scheduling chain's prediction reads the committed
        # work as it stood at its compute segment's end.
        self.resource.unfuse()
        params = self.params
        recv_time = params.service_sizes.sreq / self.bandwidth
        chain_work = (
            params.service_sizes.round_trip / self.bandwidth
            + self.app_work / self.power
        )
        self.pending_service_work += chain_work

        def after_recv() -> None:
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "msg_recv", self.name,
                    request_id=request_id,
                    size_mb=params.service_sizes.sreq, msg="service_req",
                )
            # Only the application execution itself is service-class work;
            # message handling stays responsive (the SeD's comm thread).
            self.resource.submit(
                self.app_work / self.power, "compute", run_done, priority=1
            )

        def run_done() -> None:
            self.services_done += 1
            if self.trace is not None:
                self.trace.emit(
                    self.sim.now, "compute", self.name,
                    request_id=request_id,
                    duration=self.app_work / self.power, what="service",
                )
            send_time = params.service_sizes.srep / self.bandwidth

            def sent() -> None:
                self.pending_service_work -= chain_work
                on_complete()

            # The response leaves via the communication layer immediately
            # after the computation — it must not queue behind other
            # clients' pending service work.
            self.resource.submit(send_time, "send", sent)

        self.resource.submit(recv_time, "recv", after_recv)
