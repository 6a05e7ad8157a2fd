"""Tests for cross-validation error estimation."""

import numpy as np
import pytest

from repro.core.crossval import kfold_error, loo_rbf_error
from repro.core.validation import prediction_errors
from repro.models.rbf import build_rbf_from_tree


def smooth_response(x):
    return 2.0 + np.sin(3 * x[:, 0]) + x[:, 1] ** 2


@pytest.fixture
def sample(rng):
    x = rng.random((60, 2))
    return x, smooth_response(x)


def rbf_fit(points, responses):
    net, _ = build_rbf_from_tree(points, responses, p_min=2, alpha=4.0)
    return net.predict


class TestKFold:
    def test_basic_estimate(self, sample):
        x, y = sample
        report = kfold_error(x, y, rbf_fit, folds=5, seed=1)
        assert 0 < report.mean < 10.0
        assert report.count == len(x)

    def test_tracks_true_generalisation_error(self, sample, rng):
        x, y = sample
        cv = kfold_error(x, y, rbf_fit, folds=5, seed=1)
        xt = rng.random((100, 2))
        model = rbf_fit(x, y)
        true = prediction_errors(smooth_response(xt), model(xt))
        # The free estimate lands within a small factor of the paid one.
        assert cv.mean < true.mean * 6 + 1.0
        assert true.mean < cv.mean * 6 + 1.0

    def test_deterministic(self, sample):
        x, y = sample
        a = kfold_error(x, y, rbf_fit, folds=4, seed=2)
        b = kfold_error(x, y, rbf_fit, folds=4, seed=2)
        assert a == b

    def test_invalid_folds(self, sample):
        x, y = sample
        with pytest.raises(ValueError):
            kfold_error(x, y, rbf_fit, folds=1)
        with pytest.raises(ValueError):
            kfold_error(x, y, rbf_fit, folds=len(x) + 1)


class TestLooRBF:
    def test_loo_exceeds_training_error(self, sample):
        x, y = sample
        net, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        loo, _ = loo_rbf_error(x, y, net)
        train = prediction_errors(y, net.predict(x))
        # Leave-one-out is a (near-)unbiased generalisation estimate; it
        # cannot be optimistic relative to the training fit.
        assert loo.mean >= train.mean * 0.9

    def test_loo_predictions_shape(self, sample):
        x, y = sample
        net, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        _, pred = loo_rbf_error(x, y, net)
        assert pred.shape == y.shape

    def test_matches_explicit_refit(self, rng):
        # Cross-check the hat-matrix identity against brute-force holdout
        # refits of the weights on a tiny sample.
        from repro.models.rbf import _RIDGE as ridge
        from repro.models.rbf import RBFNetwork, gaussian_design_matrix

        x = rng.random((12, 2))
        y = 1.0 + x[:, 0]
        centers = np.array([[0.25, 0.5], [0.75, 0.5]])
        radii = np.full((2, 2), 0.6)
        net = RBFNetwork(centers, radii, np.zeros(2))
        _, loo_pred = loo_rbf_error(x, y, net)
        for i in range(len(x)):
            mask = np.arange(len(x)) != i
            a = gaussian_design_matrix(x[mask], centers, radii)
            gram = a.T @ a
            gram[np.diag_indices_from(gram)] += ridge
            w = np.linalg.solve(gram, a.T @ y[mask])
            ai = gaussian_design_matrix(x[i][None, :], centers, radii)
            assert loo_pred[i] == pytest.approx(float((ai @ w)[0]), rel=1e-4)
