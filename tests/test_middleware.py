"""Simulated middleware: agents, servers, clients, assembled systems."""

import math

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.params import ModelParams
from repro.core.throughput import hierarchy_throughput
from repro.errors import SimulationError
from repro.middleware.client import ClosedLoopClient
from repro.middleware.server import ServerElement
from repro.middleware.system import MiddlewareSystem
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder


@pytest.fixture
def p() -> ModelParams:
    return ModelParams()


def star(n_servers: int, power: float = 265.0) -> Hierarchy:
    h = Hierarchy()
    h.set_root("agent", power)
    for i in range(n_servers):
        h.add_server(f"s{i}", power, "agent")
    return h


def two_level() -> Hierarchy:
    h = Hierarchy()
    h.set_root("root", 265.0)
    h.add_agent("mid", 265.0, "root")
    h.add_server("s0", 265.0, "mid")
    h.add_server("s1", 265.0, "mid")
    h.add_server("s2", 265.0, "root")
    return h


class TestRequestLifecycle:
    def test_single_request_completes(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0)
        done = []
        request = system.submit("client", on_complete=done.append)
        sim.run()
        assert done == [request]
        assert request.is_complete
        assert request.selected_server in ("s0", "s1")
        assert request.scheduled_at is not None
        assert request.completed_at >= request.scheduled_at >= request.submitted_at

    def test_latency_decomposition(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=16.0)
        done = []
        system.submit("client", on_complete=done.append)
        sim.run()
        request = done[0]
        assert request.total_latency == pytest.approx(
            request.scheduling_latency + request.service_latency
        )
        # Service latency must dominate for a 16 MFlop request.
        assert request.service_latency > request.scheduling_latency

    def test_schedule_only_phase(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(3), p, app_work=1.0)
        seen = []
        system.submit_schedule_only("client", on_scheduled=seen.append)
        sim.run()
        assert len(seen) == 1
        assert seen[0].selected_server is not None
        assert seen[0].completed_at is None  # no service phase
        assert system.total_completed() == 0

    def test_multilevel_hierarchy_routes_to_leaves(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=1.0)
        done = []
        for _ in range(30):
            system.submit("client", on_complete=done.append)
        sim.run()
        assert len(done) == 30
        served = {r.selected_server for r in done}
        assert served <= {"s0", "s1", "s2"}
        # All three servers should see work under concurrent load.
        assert len(served) >= 2

    def test_per_server_app_work(self, p):
        sim = Simulator()
        system = MiddlewareSystem(
            sim, star(2), p, app_work={"s0": 1.0, "s1": 5.0}
        )
        assert system.servers["s0"].app_work == 1.0
        assert system.servers["s1"].app_work == 5.0


class TestSelection:
    def test_idle_servers_share_load(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(4), p, app_work=16.0, seed=1)
        clients = [ClosedLoopClient(system, f"c{i}") for i in range(30)]
        for i, c in enumerate(clients):
            sim.schedule(i * 0.01, c.start)
        sim.run_until(10.0)
        counts = list(system.service_counts().values())
        assert min(counts) > 0.5 * max(counts)

    def test_faster_server_serves_more(self, p):
        h = Hierarchy()
        h.set_root("agent", 265.0)
        h.add_server("fast", 400.0, "agent")
        h.add_server("slow", 100.0, "agent")
        sim = Simulator()
        system = MiddlewareSystem(sim, h, p, app_work=16.0, seed=1)
        clients = [ClosedLoopClient(system, f"c{i}") for i in range(20)]
        for i, c in enumerate(clients):
            sim.schedule(i * 0.01, c.start)
        sim.run_until(10.0)
        counts = system.service_counts()
        assert counts["fast"] > counts["slow"]

    def test_selection_deterministic_per_seed(self, p):
        def run(seed: int) -> list[int]:
            sim = Simulator()
            system = MiddlewareSystem(sim, star(3), p, app_work=4.0, seed=seed)
            clients = [ClosedLoopClient(system, f"c{i}") for i in range(10)]
            for i, c in enumerate(clients):
                sim.schedule(i * 0.01, c.start)
            sim.run_until(5.0)
            return list(system.service_counts().values())

        assert run(42) == run(42)


class TestClosedLoopClient:
    def test_back_to_back_requests(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(2.0)
        client.stop()
        sim.run()
        assert client.completed > 10
        assert not client.active

    def test_think_time_slows_client(self, p):
        def completions(think: float) -> int:
            sim = Simulator()
            system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
            client = ClosedLoopClient(system, "c0", think_time=think)
            client.start()
            sim.run_until(5.0)
            return client.completed

        assert completions(0.5) < completions(0.0)

    @pytest.mark.parametrize("think", [-1.0, math.nan, math.inf])
    def test_bad_think_time_rejected(self, p, think):
        # NaN fails both `< 0` and `> 0`, so it used to run as zero.
        system = MiddlewareSystem(Simulator(), star(1), p, app_work=1.0)
        with pytest.raises(SimulationError, match="think_time"):
            ClosedLoopClient(system, "c0", think_time=think)

    def test_start_idempotent(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        client.start()
        sim.run_until(1.0)
        # One request in flight at a time: completions track one loop.
        assert client.completed >= 1


class TestObservability:
    def test_utilization_report_covers_all_nodes(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=4.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(3.0)
        report = system.utilization_report()
        assert set(report) == {"root", "mid", "s0", "s1", "s2"}
        assert all(0.0 <= u <= 1.0 for u in report.values())

    def test_bottleneck_is_busiest(self, p):
        sim = Simulator()
        system = MiddlewareSystem(sim, star(1), p, app_work=16.0)
        client = ClosedLoopClient(system, "c0")
        client.start()
        sim.run_until(5.0)
        node, util = system.bottleneck()
        assert node == "s0"  # service-bound: the server is the hot spot
        assert util > 0.5

    def test_trace_wiring(self, p):
        sim = Simulator()
        trace = TraceRecorder()
        system = MiddlewareSystem(sim, star(1), p, app_work=1.0, trace=trace)
        system.submit("client", on_complete=lambda r: None)
        sim.run()
        kinds = {r.kind for r in trace}
        assert {"msg_recv", "msg_sent", "compute"} <= kinds


class TestSchedulingRaces:
    """The two transparent-resubmit paths the failure layer leans on."""

    def test_zero_route_round_resubmits_until_a_server_returns(self, p):
        # Partition every server: scheduling rounds find no route and
        # must resubmit (paying a fresh round trip each time) until a
        # heal brings a server back — then exactly one completion fires.
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        system.partition("s0")
        system.partition("s1")
        done, rounds = [], []
        system.submit(
            "client", on_complete=done.append, on_scheduled=rounds.append
        )
        sim.run_until(0.01)
        assert done == []
        assert len(rounds) > 1  # kept retrying, never gave up
        assert all(r.selected_server is None for r in rounds)
        system.heal("s0")
        sim.run()
        assert len(done) == 1
        assert done[0].selected_server == "s0"
        assert rounds[-1].selected_server == "s0"
        assert system.total_completed() == 1
        assert system.lost_conversations == 0

    def test_service_race_resubmits_when_selected_server_died(self, p):
        # Measure when the scheduling reply lands on a clean same-seed
        # run, then crash the selected server inside the merge->delivery
        # send window: the reply names a dead server, and _start_service
        # must transparently reschedule through the survivors.
        def clean():
            sim = Simulator()
            system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
            done = []
            system.submit("client", on_complete=done.append)
            sim.run()
            return done[0]

        reference = clean()
        epsilon = p.agent_sizes.srep / p.bandwidth / 2
        sim = Simulator()
        system = MiddlewareSystem(sim, star(2), p, app_work=1.0, seed=1)
        done, rounds = [], []
        system.submit(
            "client", on_complete=done.append, on_scheduled=rounds.append
        )
        sim.run_until(reference.scheduled_at - epsilon)
        assert done == []  # reply still in flight
        system.fail_server(reference.selected_server)
        sim.run()
        assert len(done) == 1
        survivor = ({"s0", "s1"} - {reference.selected_server}).pop()
        assert done[0].selected_server == survivor
        # First round named the dead server, the retry round rescheduled.
        assert len(rounds) == 2
        assert rounds[0].selected_server == reference.selected_server
        assert rounds[1].selected_server == survivor
        assert system.total_completed() == 1
        assert system.lost_conversations == 0


class TestFusedSchedulingChain:
    """An untraced server runs its recv -> predict -> send chain as one
    engine event; a traced one runs it one event per step.  Nothing but
    the engine's event count may tell them apart."""

    @staticmethod
    def closed_loop(p, trace):
        sim = Simulator()
        system = MiddlewareSystem(sim, two_level(), p, app_work=50.0, trace=trace)
        done = []

        def again(request):
            done.append(
                (request.request_id, request.selected_server,
                 request.scheduled_at, request.completed_at)
            )
            system.submit(request.client_name, on_complete=again)

        for index in range(6):
            system.submit(f"c{index}", on_complete=again)
        sim.run_until(3.0)
        elements = {**system.agents, **system.servers}
        counters = {
            name: (
                element.resource.tasks_done,
                element.resource.preemptions,
                element.resource.busy_time,
                tuple(element.resource.kind_time(k) for k in ("send", "recv", "compute")),
                element.resource.busy_seconds(),
            )
            for name, element in elements.items()
        }
        predictions = {
            name: server.predictions_done for name, server in system.servers.items()
        }
        return done, counters, predictions, sim.events_processed

    def test_traced_and_fused_runs_agree(self, p):
        *fused, fused_events = self.closed_loop(p, None)
        *stepped, stepped_events = self.closed_loop(p, TraceRecorder())
        assert fused == stepped
        assert len(fused[0]) > 20
        assert fused_events < stepped_events

    @staticmethod
    def reply_with_service_mid_chain(p, trace, service_at):
        sim = Simulator()
        server = ServerElement(sim, "s0", 265.0, p, app_work=50.0, trace=trace)
        replies = []

        class Parent:
            def receive_reply(self, request_id, server_name, estimate, sender=None):
                replies.append((request_id, estimate, sim.now))

        server.receive_schedule(1, Parent())
        sim.schedule(service_at, lambda: server.receive_service(2, lambda: None))
        sim.run_until(service_at)
        predictions = server.predictions_done
        sim.run()
        return replies, predictions, sim.events_processed

    @pytest.mark.parametrize("step", [0.5, 1.5, 2.5])
    def test_a_service_request_mid_chain_leaves_the_estimate_alone(self, p, step):
        # Service arriving during the recv, the prediction or the reply
        # send: the estimate is the work committed when the prediction
        # ended, so the last one is left out of it.
        recv = p.server_sizes.sreq / p.bandwidth
        predict = p.wpre / 265.0
        send = p.server_sizes.srep / p.bandwidth
        ends = (recv, recv + predict, recv + predict + send)
        index = int(step)
        service_at = ends[index] - (ends[index] - (ends[index - 1] if index else 0.0)) / 2
        fused, fused_predictions, fused_events = self.reply_with_service_mid_chain(
            p, None, service_at
        )
        stepped, stepped_predictions, stepped_events = (
            self.reply_with_service_mid_chain(p, TraceRecorder(), service_at)
        )
        assert fused == stepped
        assert fused_predictions == stepped_predictions == (index == 2)
        assert (fused[0][1] > 0.0) == (index < 2)
        assert fused_events <= stepped_events


    def test_predictions_count_once_the_prediction_ends(self, p):
        # Read between the prediction's end and the reply's: a fused
        # chain has fired no event yet, and still counts it.
        def predictions(trace):
            sim = Simulator()
            server = ServerElement(sim, "s0", 265.0, p, app_work=50.0, trace=trace)
            server.receive_schedule(1)
            predicted = p.server_sizes.sreq / p.bandwidth + p.wpre / 265.0
            sim.run_until(predicted + p.server_sizes.srep / p.bandwidth / 2)
            return server.predictions_done

        assert predictions(None) == predictions(TraceRecorder()) == 1


class TestScheduleInstrumentation:
    def test_every_fired_event_passes_the_counted_entry_point(self, p):
        """Profilers count events by wrapping ``Simulator.schedule`` on
        the class.  Service work (priority 1) preempted by scheduling work
        exercises every start path of the serial resource; none may push
        an event around the wrapper."""
        calls = []
        original = Simulator.schedule

        def counted(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        Simulator.schedule = counted
        try:
            sim = Simulator()
            system = MiddlewareSystem(sim, star(2), p, app_work=50.0)
            clients = [ClosedLoopClient(system, f"c{i}") for i in range(6)]
            for client in clients:
                client.start()
            sim.run_until(3.0)
        finally:
            Simulator.schedule = original
        resources = [system.agents["agent"].resource] + [
            server.resource for server in system.servers.values()
        ]
        assert sum(r.preemptions for r in resources) > 0
        assert sum(client.completed for client in clients) > 0
        assert 0 < sim.events_processed <= len(calls)
