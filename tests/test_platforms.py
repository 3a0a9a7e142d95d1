"""Platform substrate: nodes, pools, network, background load, rating."""

import math

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.platforms.background import BackgroundWorkload, heterogenize
from repro.platforms.network import HomogeneousNetwork
from repro.platforms.node import Node
from repro.platforms.pool import NodePool
from repro.platforms.rating import rate_node, rate_pool


class TestNode:
    def test_basic_construction(self):
        node = Node(power=100.0, name="n1")
        assert node.base_power == 100.0
        assert node.background_load == 0.0

    def test_rejects_nonpositive_power(self):
        with pytest.raises(ParameterError):
            Node(power=0.0, name="n")

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_power(self, bad):
        with pytest.raises(ParameterError, match="power"):
            Node(power=bad, name="n")
        with pytest.raises(ParameterError, match="base_power"):
            Node(power=100.0, name="n", base_power=bad)
        with pytest.raises(ParameterError):
            Node(power=100.0, name="n").with_power(bad)

    def test_loaded_scales_power(self):
        node = Node(power=200.0, name="n")
        loaded = node.loaded(0.25)
        assert loaded.power == pytest.approx(150.0)
        assert loaded.base_power == 200.0
        assert loaded.background_load == 0.25

    def test_loaded_rejects_full_load(self):
        with pytest.raises(ParameterError):
            Node(power=100.0, name="n").loaded(1.0)

    def test_with_power_copies(self):
        node = Node(power=100.0, name="n")
        assert node.with_power(50.0).power == 50.0
        assert node.power == 100.0

    def test_ordering_by_power_then_name(self):
        nodes = [Node(power=2.0, name="b"), Node(power=2.0, name="a"),
                 Node(power=1.0, name="c")]
        assert [n.name for n in sorted(nodes)] == ["c", "a", "b"]


class TestNodePool:
    def test_homogeneous(self):
        pool = NodePool.homogeneous(5, 100.0)
        assert len(pool) == 5
        assert pool.is_homogeneous
        assert pool.total_power == 500.0

    def test_heterogeneous_and_indexing(self):
        pool = NodePool.heterogeneous([10.0, 20.0])
        assert pool[0].power == 10.0
        assert pool["node-1"].power == 20.0
        assert "node-0" in pool

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_heterogeneous_rejects_nonfinite_power(self, bad):
        with pytest.raises(ParameterError):
            NodePool.heterogeneous([100.0, bad, 200.0, 150.0])

    def test_duplicate_names_rejected(self):
        with pytest.raises(ParameterError):
            NodePool([Node(power=1.0, name="x"), Node(power=2.0, name="x")])

    def test_uniform_random_reproducible(self):
        a = NodePool.uniform_random(10, low=10, high=20, seed=5)
        b = NodePool.uniform_random(10, low=10, high=20, seed=5)
        assert a.powers == b.powers
        assert all(10 <= p <= 20 for p in a.powers)

    def test_uniform_random_different_seeds_differ(self):
        a = NodePool.uniform_random(10, low=10, high=20, seed=1)
        b = NodePool.uniform_random(10, low=10, high=20, seed=2)
        assert a.powers != b.powers

    def test_clustered(self):
        pool = NodePool.clustered([2, 3], [100.0, 50.0])
        assert pool.powers == [100.0, 100.0, 50.0, 50.0, 50.0]

    def test_clustered_length_mismatch(self):
        with pytest.raises(ParameterError):
            NodePool.clustered([2], [100.0, 50.0])

    def test_sorted_by_power(self):
        pool = NodePool.heterogeneous([10.0, 30.0, 20.0])
        assert pool.sorted_by_power().powers == [30.0, 20.0, 10.0]
        assert pool.sorted_by_power(descending=False).powers == [10.0, 20.0, 30.0]

    def test_take_and_without(self):
        pool = NodePool.homogeneous(5, 100.0)
        assert len(pool.take(3)) == 3
        reduced = pool.without(["node-0", "node-4"])
        assert reduced.names == ["node-1", "node-2", "node-3"]

    def test_without_unknown_rejected(self):
        with pytest.raises(ParameterError):
            NodePool.homogeneous(3, 1.0).without(["ghost"])

    def test_take_out_of_range(self):
        with pytest.raises(ParameterError):
            NodePool.homogeneous(3, 1.0).take(4)

    def test_heterogeneity_zero_for_homogeneous(self):
        assert NodePool.homogeneous(4, 123.0).heterogeneity() == 0.0

    def test_heterogeneity_positive_for_mixed(self):
        assert NodePool.heterogeneous([10.0, 1000.0]).heterogeneity() > 0.5


class TestNetwork:
    def test_transfer_time(self):
        net = HomogeneousNetwork(bandwidth=100.0)
        assert net.transfer_time(50.0) == pytest.approx(0.5)

    def test_latency_added(self):
        net = HomogeneousNetwork(bandwidth=100.0, latency=0.01)
        assert net.transfer_time(0.0) == pytest.approx(0.01)

    def test_validation(self):
        with pytest.raises(ParameterError):
            HomogeneousNetwork(bandwidth=0.0)
        with pytest.raises(ParameterError):
            HomogeneousNetwork(latency=-1.0)
        with pytest.raises(ParameterError):
            HomogeneousNetwork().transfer_time(-1.0)


class TestBackgroundWorkload:
    def test_zero_matrix_steals_nothing(self):
        assert BackgroundWorkload(matrix_size=0).stolen_share == 0.0

    def test_share_monotone_in_size(self):
        shares = [
            BackgroundWorkload(matrix_size=n).stolen_share
            for n in (100, 200, 400, 800, 1600)
        ]
        assert shares == sorted(shares)

    def test_share_bounded_by_max(self):
        big = BackgroundWorkload(matrix_size=100_000, max_share=0.9)
        assert big.stolen_share < 0.9

    def test_half_size_is_midpoint(self):
        job = BackgroundWorkload(matrix_size=400, half_size=400, max_share=0.8)
        assert job.stolen_share == pytest.approx(0.4)

    def test_apply_degrades_node(self):
        node = Node(power=200.0, name="n")
        loaded = BackgroundWorkload(matrix_size=400).apply(node)
        assert loaded.power < node.power
        assert loaded.base_power == node.base_power


class TestHeterogenize:
    def test_loads_requested_fraction(self):
        pool = NodePool.homogeneous(100, 200.0)
        het = heterogenize(pool, loaded_fraction=0.5, seed=0)
        degraded = [n for n in het if n.power < 200.0]
        assert len(degraded) == 50

    def test_preserves_names_and_count(self):
        pool = NodePool.homogeneous(20, 200.0)
        het = heterogenize(pool, loaded_fraction=0.3, seed=1)
        assert het.names == pool.names

    def test_reproducible(self):
        pool = NodePool.homogeneous(20, 200.0)
        assert heterogenize(pool, seed=7).powers == heterogenize(pool, seed=7).powers

    def test_zero_fraction_identity(self):
        pool = NodePool.homogeneous(10, 200.0)
        assert heterogenize(pool, loaded_fraction=0.0).powers == pool.powers

    def test_validation(self):
        pool = NodePool.homogeneous(4, 200.0)
        with pytest.raises(ParameterError):
            heterogenize(pool, loaded_fraction=1.5)
        with pytest.raises(ParameterError):
            heterogenize(pool, matrix_sizes=())


class TestRating:
    def test_noiseless_rating_is_exact(self):
        node = Node(power=123.0, name="n")
        assert rate_node(node) == 123.0

    def test_noisy_rating_never_exceeds_truth(self):
        node = Node(power=100.0, name="n")
        for seed in range(10):
            assert rate_node(node, noise=0.2, seed=seed) <= 100.0

    def test_more_trials_tighter_estimate(self):
        node = Node(power=100.0, name="n")
        rng = np.random.default_rng(0)
        few = np.mean([rate_node(node, noise=0.3, trials=1, seed=rng) for _ in range(50)])
        rng = np.random.default_rng(0)
        many = np.mean([rate_node(node, noise=0.3, trials=10, seed=rng) for _ in range(50)])
        assert many > few  # best-of-k approaches the true capacity

    def test_rate_pool_preserves_names(self):
        pool = NodePool.homogeneous(5, 100.0)
        rated = rate_pool(pool, noise=0.1, seed=3)
        assert rated.names == pool.names
        assert all(r.power <= 100.0 for r in rated)

    def test_validation(self):
        node = Node(power=1.0, name="n")
        with pytest.raises(ParameterError):
            rate_node(node, noise=-1.0)
        with pytest.raises(ParameterError):
            rate_node(node, trials=0)
