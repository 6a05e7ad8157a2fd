"""Tests for the analysis layer: splits, trends, effects, optimisation."""

import numpy as np
import pytest

from repro.analysis.effects import main_effects, rank_parameters
from repro.analysis.optimize import optimize_design
from repro.analysis.splits import significant_splits, split_value_distribution
from repro.analysis.trends import interaction_grid
from repro.core.design_space import DesignSpace, Parameter
from repro.models.base import Model
from repro.models.tree import RegressionTree


@pytest.fixture
def space():
    return DesignSpace(
        [
            Parameter("lat", 5, 20, None, "linear"),
            Parameter("size_kb", 256, 8192, 6, "log", integer=True),
            Parameter("frac", 0.25, 0.75, None, "linear", fraction_of="lat"),
        ],
        name="analysis",
    )


class FakeModel(Model):
    """Analytical model: response = 1 + 2*u0 + u1^2 (u2 irrelevant)."""

    dimension = 3

    def predict(self, points):
        points = np.atleast_2d(points)
        return 1.0 + 2.0 * points[:, 0] + points[:, 1] ** 2


class TestSplits:
    def _tree(self, rng):
        x = rng.random((60, 3))
        y = 3.0 * (x[:, 0] > 0.5) + x[:, 1]
        return RegressionTree(x, y, p_min=5)

    def test_first_split_is_dominant_parameter(self, space, rng):
        splits = significant_splits(self._tree(rng), space, count=5)
        assert splits[0].parameter == "lat"
        assert splits[0].rank == 1
        assert splits[0].depth == 1

    def test_values_in_physical_units(self, space, rng):
        splits = significant_splits(self._tree(rng), space)
        lat_splits = [s for s in splits if s.parameter == "lat"]
        assert all(5 <= s.value <= 20 for s in lat_splits)

    def test_log_parameter_decoded_off_grid(self, space, rng):
        x = rng.random((60, 3))
        y = (x[:, 1] > 0.45).astype(float) * 2.0
        tree = RegressionTree(x, y, p_min=10)
        splits = significant_splits(tree, space)
        size_split = next(s for s in splits if s.parameter == "size_kb")
        assert 256 < size_split.value < 8192
        # Off-grid: not snapped onto {256, 512, ...}.
        assert size_split.value not in (256, 512, 1024, 2048, 4096, 8192)

    def test_fraction_label(self, space, rng):
        x = rng.random((40, 3))
        y = (x[:, 2] > 0.5).astype(float)
        tree = RegressionTree(x, y, p_min=10)
        splits = significant_splits(tree, space)
        frac_split = next(s for s in splits if s.parameter == "frac")
        assert frac_split.value_label().endswith("*")

    def test_distribution_covers_all_parameters(self, space, rng):
        dist = split_value_distribution(self._tree(rng).splits(), space)
        assert set(dist) == {"lat", "size_kb", "frac"}
        assert len(dist["lat"]) >= 1


class TestTrends:
    def test_grid_shape_and_values(self, space):
        model = FakeModel()

        def response(points):
            return model.predict(space.encode(points))

        base = {"lat": 10, "size_kb": 1024, "frac": 0.5}
        grid = interaction_grid(
            space, response, base,
            param_x="lat", x_values=[5, 10, 20],
            param_y="size_kb", y_values=[256, 8192],
            model=model,
        )
        assert grid.simulated.shape == (2, 3)
        assert grid.predicted.shape == (2, 3)
        # Model == response here, so agreement is perfect.
        assert grid.monotonic_agreement() == 1.0
        assert grid.max_trend_error() < 1e-9

    def test_rows_iteration(self, space):
        def response(points):
            return np.ones(len(np.atleast_2d(points)))

        base = {"lat": 10, "size_kb": 1024, "frac": 0.5}
        grid = interaction_grid(space, response, base, "lat", [5, 10],
                                "size_kb", [256])
        rows = list(grid.rows())
        assert len(rows) == 2
        assert rows[0][2] == 1.0

    def test_errors_without_predictions(self, space):
        def response(points):
            return np.ones(len(np.atleast_2d(points)))

        grid = interaction_grid(space, response,
                                {"lat": 10, "size_kb": 1024, "frac": 0.5},
                                "lat", [5, 10], "size_kb", [256])
        with pytest.raises(ValueError):
            grid.max_trend_error()


class TestEffects:
    def test_irrelevant_parameter_has_smallest_effect(self, space):
        effects = main_effects(FakeModel(), space, num_levels=5, background=128)
        assert effects["frac"].magnitude < effects["lat"].magnitude
        assert effects["frac"].magnitude < effects["size_kb"].magnitude

    def test_ranking_order(self, space):
        ranked = rank_parameters(FakeModel(), space, num_levels=5, background=128)
        assert ranked[0].parameter == "lat"  # slope 2 beats quadratic's 1
        assert ranked[-1].parameter == "frac"

    def test_invalid_levels(self, space):
        with pytest.raises(ValueError):
            main_effects(FakeModel(), space, num_levels=1)


class TestOptimize:
    def test_finds_minimum_corner(self, space):
        results = optimize_design(FakeModel(), space, minimize=True,
                                  candidates=512, refine_top=4, seed=1)
        best = results[0]
        # Minimum at u0 = u1 = 0 -> lat = 5, size = 256.
        assert best.point["lat"] < 7
        assert best.point["size_kb"] <= 512
        assert best.predicted < 1.3

    def test_maximize(self, space):
        results = optimize_design(FakeModel(), space, minimize=False,
                                  candidates=512, refine_top=4, seed=1)
        assert results[0].point["lat"] > 17

    def test_constraint_respected(self, space):
        def constraint(point):
            return point["size_kb"] <= 1024

        results = optimize_design(FakeModel(), space, minimize=False,
                                  candidates=512, refine_top=4, seed=1,
                                  constraint=constraint)
        assert all(r.point["size_kb"] <= 1024 for r in results)

    def test_impossible_constraint(self, space):
        with pytest.raises(ValueError):
            optimize_design(FakeModel(), space, candidates=16,
                            constraint=lambda p: False)

    def test_results_sorted(self, space):
        results = optimize_design(FakeModel(), space, candidates=256, seed=2)
        values = [r.predicted for r in results]
        assert values == sorted(values)
