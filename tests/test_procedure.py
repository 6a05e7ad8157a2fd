"""Tests for the BuildRBFModel procedure on cheap synthetic responses."""

import numpy as np
import pytest

from repro.core.design_space import DesignSpace, Parameter
from repro.core.procedure import BuildRBFModel
from repro.core.validation import ErrorReport, prediction_errors


@pytest.fixture
def space():
    return DesignSpace(
        [
            Parameter("a", 0, 10, None, "linear"),
            Parameter("b", 1, 100, None, "log"),
            Parameter("c", 0, 1, 4, "linear"),
        ],
        name="synthetic",
    )


@pytest.fixture
def response(space):
    """A smooth non-linear physical-space response with an interaction."""

    def f(points):
        points = np.atleast_2d(points)
        a = points[:, 0] / 10.0
        b = np.log(points[:, 1]) / np.log(100.0)
        c = points[:, 2]
        return 2.0 + np.sin(2.5 * a) + b**2 + 0.8 * a * b + 0.1 * c

    return f


def make_test_set(space, response, n=40, seed=99):
    rng = np.random.default_rng(seed)
    unit = rng.random((n, space.dimension))
    phys = space.decode(unit)
    return phys, response(phys)


class TestBuild:
    def test_accuracy_improves_with_sample_size(self, space, response):
        phys, truth = make_test_set(space, response)
        builder = BuildRBFModel(space, response, seed=1, lhs_candidates=8)
        small = builder.build(15, phys, truth)
        large = builder.build(80, phys, truth)
        assert large.errors.mean < small.errors.mean

    def test_good_absolute_accuracy(self, space, response):
        phys, truth = make_test_set(space, response)
        builder = BuildRBFModel(space, response, seed=1, lhs_candidates=8)
        result = builder.build(80, phys, truth)
        assert result.errors.mean < 2.0  # percent

    def test_result_contents(self, space, response):
        builder = BuildRBFModel(space, response, seed=2, lhs_candidates=4)
        result = builder.build(25)
        assert result.sample_size == 25
        assert result.physical_points.shape == (25, 3)
        assert result.unit_points.shape == (25, 3)
        assert len(result.responses) == 25
        assert result.errors is None  # no test set given
        assert result.info.num_centers >= 1

    def test_response_length_mismatch_detected(self, space):
        builder = BuildRBFModel(space, lambda pts: np.zeros(3), seed=0, lhs_candidates=2)
        with pytest.raises(ValueError):
            builder.build(10)

    def test_trains_on_snapped_coordinates(self, space, response):
        builder = BuildRBFModel(space, response, seed=3, lhs_candidates=4)
        result = builder.build(20)
        # Column c has 4 levels: its unit coordinates must sit on the grid.
        c_units = result.unit_points[:, 2]
        grid = np.linspace(0, 1, 4)
        assert all(min(abs(u - g) for g in grid) < 1e-9 for u in c_units)


class TestBuildUntil:
    def test_stops_at_target(self, space, response):
        phys, truth = make_test_set(space, response)
        builder = BuildRBFModel(space, response, seed=1, lhs_candidates=8)
        results = builder.build_until([15, 40, 80, 120], phys, truth,
                                      target_mean_error=2.5)
        assert results[-1].errors.mean <= 2.5
        assert len(results) < 4 or results[-1].sample_size == 120

    def test_no_target_runs_all_sizes(self, space, response):
        phys, truth = make_test_set(space, response)
        builder = BuildRBFModel(space, response, seed=1, lhs_candidates=4)
        results = builder.build_until([10, 20], phys, truth)
        assert [r.sample_size for r in results] == [10, 20]


class TestErrorReport:
    def test_prediction_errors_math(self):
        report = prediction_errors(np.array([1.0, 2.0, 4.0]), np.array([1.1, 1.8, 4.0]))
        assert report.mean == pytest.approx((10 + 10 + 0) / 3)
        assert report.max == pytest.approx(10.0)
        assert report.count == 3

    def test_row_rounding(self):
        report = ErrorReport(mean=2.345, max=17.02, std=1.99, count=50)
        assert report.row() == (2.3, 17.0, 2.0)

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError):
            prediction_errors(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            prediction_errors(np.array([]), np.array([]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            prediction_errors(np.array([1.0]), np.array([1.0, 2.0]))

    def test_str(self):
        text = str(ErrorReport(1.0, 2.0, 0.5, 10))
        assert "mean=1.00%" in text


class TestBootstrapCI:
    def test_ci_brackets_mean(self):
        import numpy as np

        report = prediction_errors(
            np.linspace(1, 2, 40), np.linspace(1, 2, 40) * 1.03
        )
        lo, hi = report.mean_ci()
        assert lo <= report.mean <= hi

    def test_ci_narrow_for_constant_errors(self):
        import numpy as np

        truth = np.full(30, 2.0)
        pred = truth * 1.05  # exactly 5% everywhere
        report = prediction_errors(truth, pred)
        lo, hi = report.mean_ci()
        assert hi - lo < 1e-9

    def test_ci_deterministic(self):
        import numpy as np

        rng = np.random.default_rng(3)
        truth = rng.random(25) + 1
        report = prediction_errors(truth, truth * (1 + rng.normal(0, 0.05, 25)))
        assert report.mean_ci(seed=1) == report.mean_ci(seed=1)
        assert report.mean_ci(seed=1) != report.mean_ci(seed=2)

    def test_missing_percentages_returns_none(self):
        report = ErrorReport(mean=1.0, max=2.0, std=0.5, count=10)
        assert report.mean_ci() is None

    def test_invalid_confidence(self):
        import numpy as np

        report = prediction_errors(np.ones(5) * 2, np.ones(5) * 2.1)
        with pytest.raises(ValueError):
            report.mean_ci(confidence=1.5)
