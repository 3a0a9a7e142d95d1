"""Deployment hierarchy structure."""

import pytest

from repro.core.hierarchy import Hierarchy, Role
from repro.errors import HierarchyError


def build_sample() -> Hierarchy:
    """root -> (s1, a1 -> (s2, s3))."""
    h = Hierarchy()
    h.set_root("root", 100.0)
    h.add_server("s1", 90.0, "root")
    h.add_agent("a1", 80.0, "root")
    h.add_server("s2", 70.0, "a1")
    h.add_server("s3", 60.0, "a1")
    return h


class TestConstruction:
    def test_roles_and_structure(self):
        h = build_sample()
        assert h.role("root") is Role.AGENT
        assert h.role("s1") is Role.SERVER
        assert h.parent("a1") == "root"
        assert h.children("a1") == ("s2", "s3")
        assert h.degree("root") == 2
        assert len(h) == 5

    def test_double_root_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.set_root("other", 1.0)

    def test_duplicate_node_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.add_server("s1", 1.0, "root")

    def test_nonpositive_power_rejected(self):
        h = Hierarchy()
        with pytest.raises(HierarchyError):
            h.set_root("root", 0.0)

    def test_children_under_server_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.add_server("bad", 1.0, "s1")

    def test_unknown_parent_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.add_server("bad", 1.0, "ghost")


class TestTraversal:
    def test_bfs_order(self):
        h = build_sample()
        assert h.nodes == ["root", "s1", "a1", "s2", "s3"]

    def test_agents_and_servers_partition(self):
        h = build_sample()
        assert set(h.agents) | set(h.servers) == set(h.nodes)
        assert not set(h.agents) & set(h.servers)

    def test_depth_and_height(self):
        h = build_sample()
        assert h.depth("root") == 0
        assert h.depth("s3") == 2
        assert h.height == 2

    def test_subtree(self):
        h = build_sample()
        assert h.subtree("a1") == ["a1", "s2", "s3"]

    def test_contains_and_iter(self):
        h = build_sample()
        assert "s2" in h
        assert "nope" not in h
        assert list(h) == h.nodes

    def test_shape_signature(self):
        assert build_sample().shape_signature() == (5, 2, 3, 2)


class TestMutations:
    def test_promote_then_demote(self):
        h = build_sample()
        h.promote("s1")
        assert h.role("s1") is Role.AGENT
        h.demote("s1")
        assert h.role("s1") is Role.SERVER

    def test_promote_non_server_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.promote("a1")

    def test_demote_root_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.demote("root")

    def test_demote_agent_with_children_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.demote("a1")

    def test_reattach_moves_subtree(self):
        h = build_sample()
        h.promote("s1")
        h.reattach("s2", "s1")
        assert h.parent("s2") == "s1"
        assert h.children("a1") == ("s3",)

    def test_reattach_into_own_subtree_rejected(self):
        h = build_sample()
        h.promote("s2")
        with pytest.raises(HierarchyError):
            h.reattach("a1", "s2")

    def test_reattach_to_server_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.reattach("s2", "s1")

    def test_remove_leaf(self):
        h = build_sample()
        h.remove_leaf("s3")
        assert "s3" not in h
        assert h.children("a1") == ("s2",)

    def test_remove_nonleaf_rejected(self):
        h = build_sample()
        with pytest.raises(HierarchyError):
            h.remove_leaf("a1")


class TestValidation:
    def test_sample_is_strictly_valid(self):
        build_sample().validate(strict=True)

    def test_single_child_inner_agent_fails_strict(self):
        h = build_sample()
        h.remove_leaf("s3")  # a1 now has one child
        with pytest.raises(HierarchyError):
            h.validate(strict=True)
        h.validate(strict=False)  # but is structurally fine

    def test_empty_hierarchy_invalid(self):
        with pytest.raises(HierarchyError):
            Hierarchy().validate()

    def test_root_without_children_invalid(self):
        h = Hierarchy()
        h.set_root("root", 1.0)
        with pytest.raises(HierarchyError):
            h.validate(strict=True)

    def test_all_agent_deployment_invalid(self):
        h = Hierarchy()
        h.set_root("root", 1.0)
        h.add_agent("a", 1.0, "root")
        h.add_agent("b", 1.0, "a")
        h.add_agent("c", 1.0, "a")
        with pytest.raises(HierarchyError):
            h.validate(strict=True)

    def test_missing_servers_reported_before_thin_agents(self):
        h = Hierarchy()
        h.set_root("root", 1.0)
        h.add_agent("a", 1.0, "root")
        h.add_agent("b", 1.0, "a")  # "a" is thin and no server exists
        with pytest.raises(HierarchyError, match="no servers"):
            h.validate(strict=True)

    def test_first_thin_agent_in_bfs_order_is_reported(self):
        h = Hierarchy()
        h.set_root("root", 1.0)
        for agent in ("a", "b"):
            h.add_agent(agent, 1.0, "root")
            h.add_server(f"{agent}-s", 1.0, agent)
        with pytest.raises(HierarchyError, match="agent 'a' has 1 child"):
            h.validate(strict=True)
        h.validate(strict=False)


class TestExports:
    def test_copy_is_independent(self):
        h = build_sample()
        clone = h.copy()
        clone.remove_leaf("s3")
        assert "s3" in h
        assert "s3" not in clone

    def test_describe_mentions_all_nodes(self):
        text = build_sample().describe()
        for node in build_sample().nodes:
            assert repr(node) in text

    def test_to_dot_structure(self):
        h = build_sample()
        dot = h.to_dot(title="t")
        assert dot.startswith('digraph "t" {')
        assert dot.rstrip().endswith("}")
        # One node statement per node, one edge per parent-child pair.
        assert dot.count("->") == len(h) - 1
        assert dot.count("shape=box") == len(h.agents)
        assert dot.count("shape=ellipse") == len(h.servers)
        assert '"root" -> "a1";' in dot
