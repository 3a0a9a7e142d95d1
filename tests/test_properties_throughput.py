"""The Eq. 14–16 walk against a reference model (hypothesis).

``src/`` walks a hierarchy once, in ``HierarchyEvaluator._walk`` and
``evaluate``; ``hierarchy_throughput`` reports through it.  The reference
below is that walk written plainly: visit the nodes in BFS order through
the public accessors, price each with the scalar Eq. 14 functions, take
the first minimum with ``min()``, and price the servers with Eq. 15 in BFS
order.  The property holds ``hierarchy_throughput`` and a cold and a warm
``evaluate`` to it field for field and bit for bit over random
heterogeneous hierarchies, scalar and per-server ``app_work`` and tied
powers, so ties in the limiting node and the summation order of the
service rate are both pinned.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import Hierarchy, Role
from repro.core.kernels import HierarchyEvaluator
from repro.core.throughput import (
    ThroughputReport,
    agent_sched_throughput,
    hierarchy_throughput,
    resolve_app_work_list,
    server_sched_throughput,
    service_throughput,
)
from repro.errors import ParameterError
from test_properties_model import params_strategy


def reference_hierarchy_throughput(
    hierarchy: Hierarchy, params, app_work
) -> ThroughputReport:
    """Eq. 16 of ``hierarchy`` by the plain BFS walk."""
    hierarchy.validate(strict=False)
    servers = hierarchy.servers
    if not servers:
        raise ParameterError("deployment has no servers; throughput undefined")
    rates = {}
    for node in hierarchy:
        if hierarchy.role(node) is Role.AGENT:
            rates[node] = agent_sched_throughput(
                params, hierarchy.power(node), hierarchy.degree(node)
            )
        else:
            rates[node] = server_sched_throughput(params, hierarchy.power(node))
    # min() keeps the first of tied nodes: the limiting node is the first
    # one in BFS order.
    limiting = min(rates, key=lambda n: rates[n])
    sched = rates[limiting]
    powers = [hierarchy.power(s) for s in servers]
    works = resolve_app_work_list(servers, app_work)
    service = service_throughput(params, powers, works)
    if sched <= service:
        bottleneck = "scheduling"
        rho = sched
    else:
        bottleneck = "service"
        rho = service
    return ThroughputReport(
        throughput=rho,
        sched=sched,
        service=service,
        bottleneck=bottleneck,
        limiting_node=limiting,
        node_rates=rates,
    )


def report_fields(report: ThroughputReport) -> tuple:
    """Every field of ``report``, floats as their exact bits and the
    node rates in their key order."""
    return (
        report.throughput.hex(),
        report.sched.hex(),
        report.service.hex(),
        report.bottleneck,
        report.limiting_node,
        [(node, rate.hex()) for node, rate in report.node_rates.items()],
    )


#: A few shared values, so that rates tie between nodes.
TIED_POWERS = (40.0, 100.0, 265.0)
TIED_WORKS = (2e-3, 16.0)
node_powers = st.one_of(
    st.sampled_from(TIED_POWERS), st.floats(min_value=1.0, max_value=1e4)
)
app_works = st.one_of(
    st.sampled_from(TIED_WORKS), st.floats(min_value=1e-3, max_value=1e4)
)


@st.composite
def deployments(draw) -> tuple[Hierarchy, float | dict]:
    """A random tree whose agents all have children, with a scalar or a
    per-server ``app_work``.  Each node hangs under a random earlier
    agent, so BFS order is not insertion order."""
    hierarchy = Hierarchy()
    hierarchy.set_root("n0", draw(node_powers))
    agents = ["n0"]
    for i in range(1, draw(st.integers(min_value=1, max_value=30)) + 1):
        parent = draw(st.sampled_from(agents))
        name = f"n{i}"
        if draw(st.booleans()):
            hierarchy.add_agent(name, draw(node_powers), parent)
            agents.append(name)
        else:
            hierarchy.add_server(name, draw(node_powers), parent)
    for agent in agents:
        if hierarchy.degree(agent) == 0:
            hierarchy.add_server(f"{agent}s", draw(node_powers), agent)
    if draw(st.booleans()):
        return hierarchy, draw(app_works)
    return hierarchy, {server: draw(app_works) for server in hierarchy.servers}


class TestEvaluatorEqualsReference:
    @given(params_strategy(), deployments())
    @settings(max_examples=200)
    def test_reports_equal_the_reference_bit_for_bit(self, params, deployment):
        hierarchy, app_work = deployment
        expected = report_fields(
            reference_hierarchy_throughput(hierarchy, params, app_work)
        )
        assert report_fields(
            hierarchy_throughput(hierarchy, params, app_work)
        ) == expected
        evaluator = HierarchyEvaluator(params)
        for _ in range(2):  # the second pass answers from warm caches
            assert report_fields(
                evaluator.evaluate(hierarchy, app_work)
            ) == expected
