"""Deployment plans: serialization, validation, launching."""

import pytest

from repro.core.hierarchy import Hierarchy
from repro.core.params import LevelSizes, ModelParams
from repro.deploy.godiet import GoDIET
from repro.deploy.plan import DeploymentPlan
from repro.deploy.validation import check_plan
from repro.deploy.xml_io import plan_from_xml, plan_to_xml
from repro.errors import DeploymentError
from repro.middleware.client import ClosedLoopClient
from repro.platforms.pool import NodePool


def sample_hierarchy() -> Hierarchy:
    h = Hierarchy()
    h.set_root("root", 265.0)
    h.add_server("s1", 250.0, "root")
    h.add_agent("a1", 240.0, "root")
    h.add_server("s2", 230.0, "a1")
    h.add_server("s3", 220.0, "a1")
    return h


def sample_plan(**overrides) -> DeploymentPlan:
    defaults = dict(
        hierarchy=sample_hierarchy(),
        params=ModelParams(),
        app_work=16.0,
        method="test",
        metadata={"note": "sample"},
    )
    defaults.update(overrides)
    return DeploymentPlan(**defaults)


class TestDeploymentPlan:
    def test_predicted_throughput_positive(self):
        assert sample_plan().predicted_throughput > 0

    def test_invalid_hierarchy_rejected(self):
        h = Hierarchy()
        h.set_root("root", 1.0)  # no children
        with pytest.raises(Exception):
            DeploymentPlan(hierarchy=h, params=ModelParams(), app_work=1.0)

    def test_nonpositive_work_rejected(self):
        with pytest.raises(DeploymentError):
            sample_plan(app_work=0.0)

    def test_describe(self):
        text = sample_plan().describe()
        assert "5 nodes" in text
        assert "req/s" in text


class TestXmlRoundTrip:
    def test_hierarchy_round_trip(self):
        h = sample_hierarchy()
        restored = plan_from_xml(plan_to_xml(sample_plan(hierarchy=h))).hierarchy
        assert restored.nodes == h.nodes
        assert restored.shape_signature() == h.shape_signature()
        for node in h:
            assert restored.power(node) == h.power(node)
            assert restored.parent(node) == h.parent(node)

    def test_plan_round_trip(self):
        plan = sample_plan(
            params=ModelParams(
                wreq=0.2,
                bandwidth=500.0,
                agent_sizes=LevelSizes(sreq=0.01, srep=0.02),
            )
        )
        restored = plan_from_xml(plan_to_xml(plan))
        assert restored.app_work == plan.app_work
        assert restored.method == plan.method
        assert restored.metadata == {"note": "sample"}
        assert restored.params.wreq == plan.params.wreq
        assert restored.params.bandwidth == plan.params.bandwidth
        assert restored.params.agent_sizes == plan.params.agent_sizes
        assert restored.predicted_throughput == pytest.approx(
            plan.predicted_throughput
        )

    def test_xml_mentions_roles(self):
        text = plan_to_xml(sample_plan())
        assert "<agent" in text and "<server" in text
        assert 'name="root"' in text

    def test_malformed_xml_rejected(self):
        with pytest.raises(DeploymentError, match="malformed"):
            plan_from_xml("<oops")

    def test_missing_sections_rejected(self):
        with pytest.raises(DeploymentError, match="<resources>"):
            plan_from_xml('<diet_deployment app_work="1.0"/>')
        with pytest.raises(DeploymentError, match="<hierarchy>"):
            plan_from_xml(
                '<diet_deployment app_work="1.0"><resources/></diet_deployment>'
            )

    def test_unknown_node_in_hierarchy_rejected(self):
        text = """
        <diet_deployment app_work="1.0">
          <resources><node name="a" power="1.0"/></resources>
          <hierarchy><agent name="a"><server name="ghost"/></agent></hierarchy>
        </diet_deployment>
        """
        with pytest.raises(DeploymentError, match="ghost"):
            plan_from_xml(text)

    def test_server_root_rejected(self):
        text = """
        <diet_deployment app_work="1.0">
          <resources><node name="a" power="1.0"/></resources>
          <hierarchy><server name="a"/></hierarchy>
        </diet_deployment>
        """
        with pytest.raises(DeploymentError, match="root <agent>"):
            plan_from_xml(text)


class TestValidation:
    def test_clean_plan_has_no_errors(self):
        issues = check_plan(sample_plan())
        assert not [i for i in issues if i.is_error]

    def test_pool_cross_check_detects_unknown_node(self):
        pool = NodePool.heterogeneous([265.0], prefix="other")
        issues = check_plan(sample_plan(), pool=pool)
        codes = {i.code for i in issues if i.is_error}
        assert "unknown-node" in codes

    def test_pool_cross_check_detects_power_mismatch(self):
        h = sample_hierarchy()
        nodes = [
            (str(n), h.power(n)) for n in h
        ]
        from repro.platforms.node import Node

        pool = NodePool(
            Node(power=p * 2, name=name) for name, p in nodes
        )
        issues = check_plan(sample_plan(), pool=pool)
        assert any(i.code == "power-mismatch" for i in issues)

    def test_weak_agent_warning(self):
        h = Hierarchy()
        h.set_root("weak", 5.0)  # a 5 MFlop/s agent
        for i in range(6):
            h.add_server(f"s{i}", 500.0, "weak")
        plan = DeploymentPlan(hierarchy=h, params=ModelParams(), app_work=16.0)
        issues = check_plan(plan)
        assert any(i.code == "agent-bottleneck" for i in issues)

    def test_overprovision_warning(self):
        # Tiny requests on a big star: massively service-overprovisioned.
        h = Hierarchy()
        h.set_root("root", 265.0)
        for i in range(30):
            h.add_server(f"s{i}", 265.0, "root")
        plan = DeploymentPlan(hierarchy=h, params=ModelParams(), app_work=2e-3)
        issues = check_plan(plan)
        assert any(i.code == "overprovisioned-servers" for i in issues)


class TestGoDIET:
    def test_launch_and_run(self):
        plan = sample_plan()
        platform = GoDIET().launch(plan)
        client = ClosedLoopClient(platform.system, "c0")
        client.start()
        platform.sim.run_until(5.0)
        assert platform.system.total_completed() > 0

    def test_launch_latency_sets_ready_time(self):
        platform = GoDIET(launch_latency=0.5).launch(sample_plan())
        assert platform.ready_at == pytest.approx(0.5 * 5)

    def test_launch_rejects_invalid_pool(self):
        pool = NodePool.heterogeneous([1.0], prefix="other")
        with pytest.raises(DeploymentError):
            GoDIET().launch(sample_plan(), pool=pool)

    def test_negative_latency_rejected(self):
        with pytest.raises(DeploymentError):
            GoDIET(launch_latency=-1.0)
