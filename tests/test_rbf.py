"""Tests for RBF networks and their tree-based construction."""

import numpy as np
import pytest

from repro.models.rbf import (
    RBFNetwork,
    build_rbf_from_tree,
    gaussian_design_matrix,
    search_rbf_model,
)


class TestDesignMatrix:
    def test_unit_response_at_center(self):
        h = gaussian_design_matrix(
            np.array([[0.3, 0.7]]), np.array([[0.3, 0.7]]), np.array([[0.1, 0.1]])
        )
        assert h[0, 0] == pytest.approx(1.0)

    def test_matches_paper_equation(self):
        # h(x) = exp(-sum_k (x_k - c_k)^2 / r_k^2)  (Eq. 2)
        x = np.array([[0.5, 0.2]])
        c = np.array([[0.1, 0.6]])
        r = np.array([[0.4, 0.8]])
        expected = np.exp(-((0.4 / 0.4) ** 2 + (0.4 / 0.8) ** 2))
        h = gaussian_design_matrix(x, c, r)
        assert h[0, 0] == pytest.approx(expected)

    def test_anisotropic_radii(self):
        # Same offset along each axis, but a larger radius in axis 1 means
        # less decay from that axis.
        x = np.array([[0.2, 0.0], [0.0, 0.2]])
        c = np.zeros((1, 2))
        r = np.array([[0.1, 1.0]])
        h = gaussian_design_matrix(x, c, r)
        assert h[0, 0] < h[1, 0]

    def test_empty_centers(self):
        h = gaussian_design_matrix(np.zeros((3, 2)), np.zeros((0, 2)), np.zeros((0, 2)))
        assert h.shape == (3, 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_design_matrix(np.zeros((2, 2)), np.zeros((1, 2)), np.zeros((1, 3)))


class TestRBFNetwork:
    def test_predict_is_weighted_sum(self):
        net = RBFNetwork(
            centers=np.array([[0.0], [1.0]]),
            radii=np.array([[0.5], [0.5]]),
            weights=np.array([2.0, -1.0]),
        )
        x = np.array([[0.0]])
        expected = 2.0 * 1.0 - 1.0 * np.exp(-4.0)
        assert net.predict(x)[0] == pytest.approx(expected)

    def test_accepts_1d_point(self):
        net = RBFNetwork(np.array([[0.5, 0.5]]), np.array([[1, 1]]), np.array([1.0]))
        assert net.predict(np.array([0.5, 0.5])).shape == (1,)

    def test_dimension_check(self):
        net = RBFNetwork(np.array([[0.5, 0.5]]), np.array([[1, 1]]), np.array([1.0]))
        with pytest.raises(ValueError):
            net.predict(np.zeros((3, 5)))

    def test_weight_count_check(self):
        with pytest.raises(ValueError):
            RBFNetwork(np.zeros((2, 2)), np.ones((2, 2)), np.array([1.0]))

    def test_describe_lists_units(self):
        net = RBFNetwork(np.zeros((2, 3)), np.ones((2, 3)), np.array([1.0, 2.0]))
        text = net.describe()
        assert "2 Gaussian units" in text
        assert "unit 0" in text and "unit 1" in text

    @pytest.mark.parametrize("points, centers, dims", [
        (1, 1, 1), (7, 3, 2), (20_000, 5, 9), (2_000, 60, 12), (3, 60, 1)])
    def test_center_distances_match_the_broadcast(self, points, centers, dims):
        rng = np.random.default_rng(points * 1000 + centers * 10 + dims)
        net = RBFNetwork(rng.random((centers, dims)),
                         0.05 + rng.random((centers, dims)),
                         rng.standard_normal(centers))
        x = rng.random((points, dims))
        # The unchunked formula is the oracle: blocking must not move a bit.
        diff = x[:, None, :] - net.centers[None, :, :]
        z2 = ((diff / net.radii[None, :, :]) ** 2).sum(axis=2)
        expected = np.sqrt(z2.min(axis=1))
        np.testing.assert_array_equal(net._scaled_center_distances(x), expected)

    def test_provenance_traced_peak_is_bounded(self):
        """The distance-to-nearest-center signal runs in point blocks: a
        20,000-point provenance prediction on a 5-center, 9-dimensional
        network peaks near plain ``predict``'s 4.95 MiB, where holding the
        whole difference array took 14.97 MiB."""
        import tracemalloc

        rng = np.random.default_rng(20060101)
        net = RBFNetwork(rng.random((5, 9)), 0.2 + rng.random((5, 9)),
                         rng.standard_normal(5))
        net.calibrate(rng.random((40, 9)), rng.random(40))
        x = rng.random((20_000, 9))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            net.predict_with_provenance(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 2**20


class TestBuildFromTree:
    def _sample(self, rng, n=60):
        x = rng.random((n, 2))
        y = 1.0 + np.sin(3 * x[:, 0]) + x[:, 1] ** 2
        return x, y

    def test_interpolates_smooth_function(self, rng):
        x, y = self._sample(rng)
        net, info = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        pred = net.predict(x)
        rmse = np.sqrt(np.mean((pred - y) ** 2))
        assert rmse < 0.1 * y.std()

    def test_generalizes_to_new_points(self, rng):
        x, y = self._sample(rng, n=80)
        net, _ = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        xt = rng.random((40, 2))
        yt = 1.0 + np.sin(3 * xt[:, 0]) + xt[:, 1] ** 2
        err = np.abs(net.predict(xt) - yt) / np.abs(yt)
        assert err.mean() < 0.05

    def test_info_consistency(self, rng):
        x, y = self._sample(rng)
        net, info = build_rbf_from_tree(x, y, p_min=3, alpha=5.0)
        assert info.p_min == 3
        assert info.alpha == 5.0
        assert info.num_centers == net.num_centers
        assert info.num_centers <= info.num_candidates
        assert len(info.selected_nodes) == info.num_centers

    def test_fewer_centers_than_sample(self, rng):
        # Paper: the number of centers stays well below the sample size
        # (AICc penalises complexity).
        x, y = self._sample(rng, n=100)
        _, info = build_rbf_from_tree(x, y, p_min=1, alpha=6.0)
        assert info.num_centers < 100

    def test_radii_scale_with_alpha(self, rng):
        x, y = self._sample(rng)
        net_small, _ = build_rbf_from_tree(x, y, p_min=2, alpha=2.0)
        net_large, _ = build_rbf_from_tree(x, y, p_min=2, alpha=8.0)
        assert net_large.radii.mean() > net_small.radii.mean()

    def test_constant_data(self):
        x = np.linspace(0, 1, 10)[:, None]
        y = np.full(10, 3.0)
        net, info = build_rbf_from_tree(x, y, p_min=2, alpha=4.0)
        assert net.predict(np.array([[0.5]]))[0] == pytest.approx(3.0, rel=1e-3)

    def test_max_candidates_cap(self, rng):
        x, y = self._sample(rng, n=80)
        _, info = build_rbf_from_tree(x, y, p_min=1, alpha=4.0, max_candidates=9)
        assert info.num_candidates <= 9

    def test_criterion_choices(self, rng):
        x, y = self._sample(rng, n=40)
        for criterion in ("aic", "aicc", "bic"):
            net, info = build_rbf_from_tree(x, y, p_min=2, alpha=4.0, criterion=criterion)
            assert info.criterion_name == criterion
            assert np.isfinite(info.criterion_value)


class TestSearch:
    def test_search_returns_lowest_criterion(self, rng):
        x = rng.random((50, 2))
        y = x[:, 0] ** 2 + 0.5 * x[:, 1]
        result = search_rbf_model(x, y, p_min_grid=(1, 3), alpha_grid=(2.0, 5.0, 8.0))
        assert len(result.tried) == 6
        best = min(result.tried, key=lambda i: i.criterion_value)
        assert result.info.criterion_value == best.criterion_value

    def test_search_best_params_within_grid(self, rng):
        x = rng.random((40, 2))
        y = np.sin(4 * x[:, 0])
        result = search_rbf_model(x, y, p_min_grid=(1, 2), alpha_grid=(3.0, 6.0))
        assert result.info.p_min in (1, 2)
        assert result.info.alpha in (3.0, 6.0)

    def test_search_fits_each_distinct_subset_once(self):
        """Pinned work for one fixed synthetic sample.  One build per grid
        point runs 8,729 fits; the search shares one tree and, per alpha,
        one fit cache across the p_min walks, and runs 5,934.  Both score
        the same 10,800 subsets (every lookup is a fit or a cache hit)."""
        from repro import obs
        from repro.models.rbf import DEFAULT_ALPHA_GRID, DEFAULT_P_MIN_GRID

        rng = np.random.default_rng(20060101)
        x = rng.random((64, 9))
        y = np.cos(x @ np.arange(1.0, 10.0)) + 0.05 * rng.random(64)
        with obs.collecting() as col:
            search_rbf_model(x, y)
        assert col.metrics.counters == {
            "fit/subset_fits": 5934.0, "fit/subset_cache_hits": 4866.0,
            "aicc_iterations": 36.0, "fit/searches": 1.0,
        }
        assert [span.name for span in col.roots] == ["fit/tree"]

        with obs.collecting() as col:
            for p_min in DEFAULT_P_MIN_GRID:
                for alpha in DEFAULT_ALPHA_GRID:
                    build_rbf_from_tree(x, y, p_min=p_min, alpha=alpha)
        assert col.metrics.counters == {
            "fit/subset_fits": 8729.0, "fit/subset_cache_hits": 2071.0,
        }

    def test_search_traced_peak_is_bounded(self):
        """The lockstep walks keep every alpha's design rows and fit cache
        alive at once.  Chunked design rows, capped fit stacks and packed
        cache keys hold a 110-point search's traced peak near the 4.06 MiB
        that searching one alpha at a time took."""
        import tracemalloc

        rng = np.random.default_rng(20060101)
        x = rng.random((110, 9))
        y = np.cos(x @ np.arange(1.0, 10.0)) + 0.05 * rng.random(110)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            search_rbf_model(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 2**20

    def test_empty_grid_rejected(self, rng):
        x = rng.random((10, 2))
        with pytest.raises(ValueError):
            search_rbf_model(x, x[:, 0], alpha_grid=())


def _fit(entry, x, y, alpha=6.0, max_candidates=255):
    if entry == "build":
        return build_rbf_from_tree(x, y, alpha=alpha, max_candidates=max_candidates)
    return search_rbf_model(x, y, alpha_grid=(6.0, alpha),
                            max_candidates=max_candidates)


class TestFitArguments:
    """Both entry points name a bad argument instead of failing deep in
    the fit (``max_candidates=0``) or fitting the radius floor (``alpha``
    of zero, below zero or not finite)."""

    @pytest.mark.parametrize("entry", ["build", "search"])
    def test_max_candidates_below_one(self, rng, entry):
        x = rng.random((20, 2))
        with pytest.raises(ValueError, match="max_candidates"):
            _fit(entry, x, x[:, 0], max_candidates=0)

    @pytest.mark.parametrize("alpha", [0.0, -2.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("entry", ["build", "search"])
    def test_alpha_positive_and_finite(self, rng, entry, alpha):
        x = rng.random((20, 2))
        with pytest.raises(ValueError, match="alpha"):
            _fit(entry, x, x[:, 0], alpha=alpha)
