"""Property-based round-trip tests for plan serialization (hypothesis)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.hierarchy import Hierarchy
from repro.core.params import LevelSizes, ModelParams
from repro.deploy.plan import DeploymentPlan
from repro.deploy.xml_io import plan_from_xml, plan_to_xml


def round_trip(hierarchy: Hierarchy) -> Hierarchy:
    """``hierarchy`` written into a plan file and read back."""
    plan = DeploymentPlan(hierarchy=hierarchy, params=ModelParams(), app_work=1.0)
    return plan_from_xml(plan_to_xml(plan)).hierarchy


@st.composite
def hierarchies(draw) -> Hierarchy:
    """Random strictly-valid deployment trees.

    Construction: start from root + one server; repeatedly either add a
    server under a random agent or grow a new agent (with two servers, so
    validity is maintained at every step).
    """
    h = Hierarchy()
    h.set_root("n0", draw(st.floats(min_value=1.0, max_value=1000.0)))
    h.add_server("n1", draw(st.floats(min_value=1.0, max_value=1000.0)), "n0")
    counter = 2
    steps = draw(st.integers(min_value=0, max_value=12))
    for _ in range(steps):
        agents = h.agents
        agent = agents[draw(st.integers(min_value=0, max_value=len(agents) - 1))]
        power = draw(st.floats(min_value=1.0, max_value=1000.0))
        if draw(st.booleans()):
            h.add_server(f"n{counter}", power, agent)
            counter += 1
        else:
            new_agent = f"n{counter}"
            h.add_agent(new_agent, power, agent)
            counter += 1
            for _ in range(2):
                h.add_server(
                    f"n{counter}",
                    draw(st.floats(min_value=1.0, max_value=1000.0)),
                    new_agent,
                )
                counter += 1
    return h


@st.composite
def model_params(draw) -> ModelParams:
    sizes = st.floats(min_value=1e-8, max_value=10.0)
    return ModelParams(
        wreq=draw(st.floats(min_value=0.0, max_value=5.0)),
        wfix=draw(st.floats(min_value=0.0, max_value=1.0)),
        wsel=draw(st.floats(min_value=0.0, max_value=1.0)),
        wpre=draw(st.floats(min_value=0.0, max_value=5.0)),
        agent_sizes=LevelSizes(sreq=draw(sizes), srep=draw(sizes)),
        server_sizes=LevelSizes(sreq=draw(sizes), srep=draw(sizes)),
        bandwidth=draw(st.floats(min_value=0.1, max_value=1e5)),
    )


class TestHierarchyRoundTrip:
    @given(hierarchies())
    @settings(max_examples=60, deadline=None)
    def test_structure_preserved(self, hierarchy):
        restored = round_trip(hierarchy)
        assert restored.nodes == hierarchy.nodes
        assert restored.shape_signature() == hierarchy.shape_signature()
        for node in hierarchy:
            assert restored.role(node) == hierarchy.role(node)
            assert restored.parent(node) == hierarchy.parent(node)
            assert restored.power(node) == pytest.approx(
                hierarchy.power(node), rel=0, abs=0
            )

    @given(hierarchies())
    @settings(max_examples=40, deadline=None)
    def test_restored_tree_is_strictly_valid(self, hierarchy):
        round_trip(hierarchy).validate(strict=True)


class TestPlanRoundTrip:
    @given(hierarchies(), model_params(),
           st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=40, deadline=None)
    def test_plan_round_trip_preserves_prediction(
        self, hierarchy, params, app_work
    ):
        plan = DeploymentPlan(
            hierarchy=hierarchy, params=params, app_work=app_work,
            method="property-test",
        )
        restored = plan_from_xml(plan_to_xml(plan))
        # repr() serialization must preserve floats bit-exactly, so the
        # model prediction is reproducible from the file alone.
        assert restored.predicted_throughput == plan.predicted_throughput
        assert restored.app_work == plan.app_work
        assert restored.params == plan.params
