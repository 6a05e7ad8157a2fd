"""Bitwise contract of the one vectorised ``predict`` path.

The serving acceptance criterion: a batched prediction over m points
returns CPI bitwise-identical to m sequential single-point ``predict``
calls, for every model family.  This is stronger than ``allclose`` — the
design-matrix reduction (``repro.models.base.design_dot`` /
``layer_dot``) is built so its accumulation order does not depend on the
number of rows, which is precisely what naive BLAS ``@`` does not
guarantee.  These tests pin that invariant per family, through
``predict_with_provenance``, and at the 10k-point acceptance scale, and
check the regression tree's index-array descent against a per-point walk
kept here as the oracle.
"""

import numpy as np
import pytest

from repro.models.base import design_dot, layer_dot
from repro.models.linear import LinearInteractionModel
from repro.models.mlp import MLPModel
from repro.models.rbf import build_rbf_from_tree
from repro.models.spline import SplineModel
from repro.models.tree import RegressionTree

DIM = 4


def response(x):
    return 1.0 + np.sin(2.5 * x[:, 0]) + 0.5 * x[:, 1] * x[:, 2] - x[:, 3]


@pytest.fixture(scope="module")
def training():
    rng = np.random.default_rng(1234)
    x = rng.random((90, DIM))
    y = response(x) + 0.02 * rng.standard_normal(90)
    return x, y


def fit_family(name, training):
    x, y = training
    if name == "rbf":
        model, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
    elif name == "tree":
        model = RegressionTree(x, y, p_min=2)
    elif name == "linear":
        model = LinearInteractionModel.fit(x, y)
    elif name == "spline":
        model = SplineModel.fit(x, y)
    else:
        model = MLPModel.fit(x, y, hidden=(8,), epochs=40, seed=5)
    return model


FAMILIES = ["rbf", "tree", "linear", "spline", "mlp"]


@pytest.mark.parametrize("family", FAMILIES)
class TestBatchBitwise:
    def test_batch_equals_sequential_single_point_calls(
            self, family, training, rng):
        model = fit_family(family, training)
        points = rng.random((257, DIM))  # odd size: no blocking alignment
        batched = model.predict(points)
        sequential = np.array(
            [model.predict(p[np.newaxis, :])[0] for p in points])
        np.testing.assert_array_equal(batched, sequential)

    def test_batch_size_never_perturbs_bits(self, family, training, rng):
        # The same point must produce the same bits whether it travels
        # alone, in a pair, or buried in a large batch.
        model = fit_family(family, training)
        points = rng.random((64, DIM))
        full = model.predict(points)
        alone = model.predict(points[:1])
        pair = model.predict(points[:2])
        assert full[0] == alone[0]
        np.testing.assert_array_equal(full[:2], pair)

    def test_single_point_vector_is_accepted(self, family, training, rng):
        model = fit_family(family, training)
        point = rng.random(DIM)
        flat = model.predict(point)
        assert flat.shape == (1,)
        assert flat[0] == model.predict(point[np.newaxis, :])[0]

    def test_wrong_width_is_rejected(self, family, training, rng):
        model = fit_family(family, training)
        with pytest.raises(ValueError, match="expected points of shape"):
            model.predict(rng.random((3, DIM + 1)))


@pytest.mark.parametrize("family", FAMILIES)
def test_provenance_values_ride_the_batch_path(family, training, rng):
    x, y = training
    model = fit_family(family, training)
    model.calibrate(x, y)
    points = rng.random((50, DIM))
    prov = model.predict_with_provenance(points)
    np.testing.assert_array_equal(prov.values, model.predict(points))
    assert prov.lower.shape == prov.values.shape
    assert prov.extrapolated.dtype == bool


def test_ten_thousand_point_acceptance_batch(training):
    # The serving acceptance criterion, verbatim: 10k batched CPI values
    # bitwise-identical to 10k sequential Model.predict calls, with
    # per-point uncertainty and extrapolation flags.
    x, y = training
    model, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
    model.calibrate(x, y)
    points = np.random.default_rng(20060101).random((10_000, DIM))
    prov = model.predict_with_provenance(points)
    sequential = np.array(
        [model.predict(p[np.newaxis, :])[0] for p in points])
    np.testing.assert_array_equal(prov.values, sequential)
    assert len(prov.lower) == len(prov.upper) == 10_000
    assert len(prov.extrapolated) == 10_000


def walk(tree, points):
    """The tree's prediction one point at a time: the descent's oracle."""
    out = []
    for x in points:
        node = tree.root
        while not node.is_leaf:
            go_left = x[node.split.dimension] <= node.split.value
            node = node.left if go_left else node.right
        out.append(node.mean)
    return np.array(out, dtype=float)


class TestTreeDescent:
    """``RegressionTree.predict`` equals a per-point walk, bit for bit."""

    @pytest.fixture(scope="class")
    def tree(self, training):
        x, y = training
        return RegressionTree(x, y, p_min=1)

    def test_points_on_split_values(self, tree, rng):
        # Every split value lands on its boundary in one coordinate, where
        # ``<=`` sends the point left.
        splits = tree.splits()
        points = rng.random((len(splits), DIM))
        for row, split in zip(points, splits):
            row[split.dimension] = split.value
        np.testing.assert_array_equal(tree.predict(points), walk(tree, points))

    def test_points_outside_the_unit_cube(self, tree, rng):
        points = rng.uniform(-1.5, 2.5, size=(200, DIM))
        np.testing.assert_array_equal(tree.predict(points), walk(tree, points))

    def test_single_point(self, tree, rng):
        point = rng.random((1, DIM))
        np.testing.assert_array_equal(tree.predict(point), walk(tree, point))

    def test_empty_batch(self, tree):
        points = np.empty((0, DIM))
        out = tree.predict(points)
        assert out.shape == (0,)
        np.testing.assert_array_equal(out, walk(tree, points))


class TestReductionSeams:
    def test_design_dot_matches_matmul_values(self, rng):
        matrix = rng.random((37, 9))
        weights = rng.random(9)
        np.testing.assert_allclose(
            design_dot(matrix, weights), matrix @ weights,
            rtol=1e-12, atol=0.0)

    def test_design_dot_rows_are_batch_invariant(self, rng):
        matrix = rng.random((129, 23))
        weights = rng.random(23)
        full = design_dot(matrix, weights)
        for k in (1, 2, 3, 7, 128):
            np.testing.assert_array_equal(
                design_dot(matrix[:k], weights), full[:k])

    def test_layer_dot_rows_are_batch_invariant(self, rng):
        acts = rng.random((65, 11))
        weights = rng.random((11, 6))
        full = layer_dot(acts, weights)
        for k in (1, 2, 5, 64):
            np.testing.assert_array_equal(
                layer_dot(acts[:k], weights), full[:k])
