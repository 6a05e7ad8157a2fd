"""Tests for the regression-tree construction (paper Sec. 2.4)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.tree import RegressionTree


def step_sample():
    """A 1-D step function: y = 0 below 0.5, y = 1 above."""
    x = np.linspace(0.05, 0.95, 10)[:, None]
    y = (x[:, 0] > 0.5).astype(float)
    return x, y


class TestConstruction:
    def test_first_split_finds_step(self):
        x, y = step_sample()
        tree = RegressionTree(x, y, p_min=5)
        assert tree.root.split is not None
        assert tree.root.split.dimension == 0
        assert 0.4 < tree.root.split.value < 0.6

    def test_split_dimension_prefers_informative_axis(self, rng):
        # Column 0 is pure noise, column 1 carries a step.
        x = rng.random((40, 2))
        y = (x[:, 1] > 0.5).astype(float)
        tree = RegressionTree(x, y, p_min=20)
        assert tree.root.split.dimension == 1

    def test_p_min_stops_splitting(self, rng):
        x = rng.random((32, 2))
        y = rng.random(32)
        tree = RegressionTree(x, y, p_min=8)
        for leaf in tree.leaves():
            assert len(leaf.indices) <= 8

    def test_p_min_one_isolates_points(self, rng):
        x = rng.random((16, 2))
        y = rng.random(16)
        tree = RegressionTree(x, y, p_min=1)
        assert len(tree.leaves()) == 16

    def test_constant_response_never_splits_below_pmin(self):
        # With identical x values no split is possible regardless of y.
        x = np.full((6, 2), 0.5)
        y = np.arange(6.0)
        tree = RegressionTree(x, y, p_min=1)
        assert tree.root.is_leaf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            RegressionTree(np.zeros((0, 2)), np.zeros(0))
        with pytest.raises(ValueError):
            RegressionTree(np.zeros((3, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            RegressionTree(np.zeros((3, 2)), np.zeros(3), p_min=0)


class TestHyperRectangles:
    def test_root_covers_unit_cube(self, rng):
        x = rng.random((20, 3))
        tree = RegressionTree(x, rng.random(20), p_min=5)
        np.testing.assert_array_equal(tree.root.lower, np.zeros(3))
        np.testing.assert_array_equal(tree.root.upper, np.ones(3))

    def test_children_partition_parent(self, rng):
        x = rng.random((30, 2))
        tree = RegressionTree(x, rng.random(30), p_min=5)
        node = tree.root
        assert node.split is not None
        k = node.split.dimension
        assert node.left.upper[k] == pytest.approx(node.split.value)
        assert node.right.lower[k] == pytest.approx(node.split.value)
        # Non-split dimensions are inherited.
        other = 1 - k
        assert node.left.lower[other] == node.lower[other]
        assert node.right.upper[other] == node.upper[other]

    def test_center_and_size(self, rng):
        x = rng.random((10, 2))
        tree = RegressionTree(x, rng.random(10), p_min=10)
        np.testing.assert_allclose(tree.root.center, [0.5, 0.5])
        np.testing.assert_allclose(tree.root.size, [1.0, 1.0])

    def test_every_point_inside_its_leaf(self, rng):
        x = rng.random((40, 3))
        tree = RegressionTree(x, rng.random(40), p_min=4)
        for leaf in tree.leaves():
            pts = x[leaf.indices]
            assert np.all(pts >= leaf.lower - 1e-12)
            assert np.all(pts <= leaf.upper + 1e-12)


class TestPrediction:
    def test_leaf_means(self):
        x, y = step_sample()
        tree = RegressionTree(x, y, p_min=5)
        pred = tree.predict(np.array([[0.1], [0.9]]))
        assert pred[0] == pytest.approx(0.0)
        assert pred[1] == pytest.approx(1.0)

    def test_training_prediction_reduces_sse(self, rng):
        x = rng.random((50, 2))
        y = x[:, 0] ** 2 + rng.normal(scale=0.01, size=50)
        shallow = RegressionTree(x, y, p_min=25)
        deep = RegressionTree(x, y, p_min=2)
        sse_shallow = np.sum((shallow.predict(x) - y) ** 2)
        sse_deep = np.sum((deep.predict(x) - y) ** 2)
        assert sse_deep <= sse_shallow


class TestSplitsOrdering:
    def test_breadth_first_split_depths_nondecreasing(self, rng):
        x = rng.random((60, 3))
        y = x[:, 0] + 2 * x[:, 1] ** 2
        tree = RegressionTree(x, y, p_min=4)
        depths = [s.depth for s in tree.splits()]
        assert depths == sorted(depths)

    def test_most_variation_splits_first(self, rng):
        # Dimension 1 has 10x the effect of dimension 0.
        x = rng.random((80, 2))
        y = 0.2 * x[:, 0] + 4.0 * (x[:, 1] > 0.5)
        tree = RegressionTree(x, y, p_min=10)
        assert tree.splits()[0].dimension == 1

    def test_nodes_breadth_first_root_first(self, rng):
        x = rng.random((20, 2))
        tree = RegressionTree(x, rng.random(20), p_min=5)
        nodes = tree.nodes_breadth_first()
        assert nodes[0] is tree.root
        assert len(nodes) >= len(tree.leaves())

    def test_repr(self, rng):
        x = rng.random((10, 2))
        tree = RegressionTree(x, rng.random(10), p_min=2)
        assert "RegressionTree" in repr(tree)


class TestTruncation:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(1, 80),
           dims=st.integers(1, 4), lattice=st.booleans())
    def test_truncation_equals_fresh_tree(self, seed, size, dims, lattice):
        rng = np.random.default_rng(seed)
        x = rng.random((size, dims))
        if lattice:  # ties and duplicate points: unsplittable nodes
            x = np.round(x * 3) / 3
        y = np.sin(3.0 * x[:, 0]) + 0.2 * rng.random(size)
        probe = rng.random((16, dims))
        base = RegressionTree(x, y, p_min=1)
        for p_min in (1, 2, 3, 5, 8):
            cut = base.truncated(p_min)
            fresh = RegressionTree(x, y, p_min=p_min)
            assert cut.p_min == p_min
            got, want = cut.nodes_breadth_first(), fresh.nodes_breadth_first()
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert g.lower.tobytes() == w.lower.tobytes()
                assert g.upper.tobytes() == w.upper.tobytes()
                assert g.indices.tolist() == w.indices.tolist()
                assert (g.mean, g.depth, g.split) == (w.mean, w.depth, w.split)
                assert g.is_leaf == w.is_leaf
            assert cut.depth == fresh.depth
            assert cut.splits() == fresh.splits()
            assert ([leaf.indices.tolist() for leaf in cut.leaves()]
                    == [leaf.indices.tolist() for leaf in fresh.leaves()])
            assert cut.predict(probe).tobytes() == fresh.predict(probe).tobytes()

    def test_truncation_leaves_the_source_tree_intact(self, rng):
        x = rng.random((30, 2))
        tree = RegressionTree(x, rng.random(30), p_min=1)
        before = len(tree.nodes_breadth_first())
        tree.truncated(5)
        assert len(tree.nodes_breadth_first()) == before
        assert len(tree.leaves()) == 30

    def test_truncation_cannot_lower_p_min(self, rng):
        x = rng.random((10, 2))
        with pytest.raises(ValueError):
            RegressionTree(x, rng.random(10), p_min=3).truncated(2)
