"""Tests for the linear-regression baseline with interactions."""

import numpy as np
import pytest

from repro.models.linear import LinearInteractionModel, Term, candidate_terms


class TestTerms:
    def test_candidate_counts(self):
        # 1 intercept + n mains + n(n-1)/2 interactions.
        terms = candidate_terms(9)
        assert len(terms) == 1 + 9 + 36

    def test_labels(self):
        names = ["a", "b", "c"]
        assert Term(()).label(names) == "1"
        assert Term((1,)).label(names) == "b"
        assert Term((0, 2)).label(names) == "a*c"


class TestFit:
    def test_recovers_exact_linear_function(self, rng):
        x = rng.random((60, 3))
        z = 2 * x - 1
        y = 1.0 + 2.0 * z[:, 0] - 3.0 * z[:, 2]
        model = LinearInteractionModel.fit(x, y)
        pred = model.predict(rng.random((20, 3)))
        xt = rng.random((20, 3))
        zt = 2 * xt - 1
        np.testing.assert_allclose(
            model.predict(xt), 1.0 + 2.0 * zt[:, 0] - 3.0 * zt[:, 2], atol=1e-8
        )

    def test_recovers_interaction(self, rng):
        x = rng.random((80, 2))
        z = 2 * x - 1
        y = 0.5 + 1.5 * z[:, 0] * z[:, 1]
        model = LinearInteractionModel.fit(x, y)
        labels = [t.label() for t in model.terms]
        assert "x0*x1" in labels
        xt = rng.random((30, 2))
        zt = 2 * xt - 1
        np.testing.assert_allclose(
            model.predict(xt), 0.5 + 1.5 * zt[:, 0] * zt[:, 1], atol=1e-8
        )

    def test_aic_drops_noise_terms(self, rng):
        # Only z0 matters; stepwise selection should keep a small model.
        x = rng.random((100, 5))
        z = 2 * x - 1
        y = 3.0 * z[:, 0] + rng.normal(scale=0.01, size=100)
        model = LinearInteractionModel.fit(x, y)
        assert len(model.terms) < 8

    def test_small_sample_uses_forward_selection(self, rng):
        # p=15 cannot support 46 features; the fit must still work.
        x = rng.random((15, 9))
        z = 2 * x - 1
        y = 2.0 * z[:, 1] + 1.0
        model = LinearInteractionModel.fit(x, y)
        xt = rng.random((10, 9))
        zt = 2 * xt - 1
        err = np.abs(model.predict(xt) - (2.0 * zt[:, 1] + 1.0))
        assert err.max() < 0.2

    def test_cannot_fit_nonlinear_response_well(self, rng):
        # The motivating limitation: a sharp ridge is not representable.
        x = rng.random((120, 2))
        y = np.where(x[:, 0] < 0.3, 5.0, 1.0)
        model = LinearInteractionModel.fit(x, y)
        resid = np.abs(model.predict(x) - y)
        assert resid.max() > 0.5  # large residuals remain somewhere

    def test_intercept_always_kept(self, rng):
        x = rng.random((50, 3))
        y = rng.random(50)
        model = LinearInteractionModel.fit(x, y)
        assert model.terms[0].dims == ()

    def test_mismatched_lengths(self, rng):
        with pytest.raises(ValueError):
            LinearInteractionModel.fit(rng.random((10, 2)), rng.random(9))

    def test_describe(self, rng):
        x = rng.random((30, 2))
        y = x[:, 0]
        model = LinearInteractionModel.fit(x, y)
        text = model.describe(["alpha", "beta"])
        assert text.startswith("CPI = ")
        assert "alpha" in text

    def test_predict_dimension_check(self, rng):
        x = rng.random((30, 3))
        model = LinearInteractionModel.fit(x, x[:, 0])
        with pytest.raises(ValueError):
            model.predict(rng.random((5, 2)))
