"""Tests for best-of-N sample selection and knee detection."""

import numpy as np
import pytest

from repro.sampling.discrepancy import centered_l2_discrepancy
from repro.sampling.lhs import latin_hypercube
from repro.sampling.optimizer import best_lhs_sample, discrepancy_curve, find_knee
from repro.util.rng import make_rng


class TestBestLhsSample:
    def test_beats_typical_single_sample(self, small_space):
        best = best_lhs_sample(small_space, 20, seed=1, candidates=16)
        singles = [
            centered_l2_discrepancy(latin_hypercube(small_space, 20, make_rng(1, "z", i)))
            for i in range(8)
        ]
        assert best.discrepancy <= np.median(singles)

    def test_monotone_in_candidates(self, small_space):
        few = best_lhs_sample(small_space, 20, seed=1, candidates=2)
        many = best_lhs_sample(small_space, 20, seed=1, candidates=32)
        # The candidate streams are nested by index, so more candidates can
        # only improve the best discrepancy.
        assert many.discrepancy <= few.discrepancy

    def test_deterministic(self, small_space):
        a = best_lhs_sample(small_space, 15, seed=3, candidates=8)
        b = best_lhs_sample(small_space, 15, seed=3, candidates=8)
        np.testing.assert_array_equal(a.points, b.points)

    def test_metadata(self, small_space):
        s = best_lhs_sample(small_space, 15, seed=3, candidates=8)
        assert s.sample_size == 15
        assert s.candidates == 8
        assert s.points.shape == (15, 3)

    def test_invalid_candidates(self, small_space):
        with pytest.raises(ValueError):
            best_lhs_sample(small_space, 10, seed=0, candidates=0)

    def test_batched_scoring_picks_what_per_candidate_calls_pick(self, small_space):
        batched = best_lhs_sample(small_space, 23, seed=5, candidates=40)
        samples = [latin_hypercube(small_space, 23,
                                   make_rng(5, "lhs-candidate", 23, i))
                   for i in range(40)]
        values = [centered_l2_discrepancy(pts) for pts in samples]
        best = min(range(40), key=values.__getitem__)  # first of the lowest
        assert batched.points.tobytes() == samples[best].tobytes()
        assert batched.discrepancy == values[best]


class TestDiscrepancyCurve:
    def test_decreasing_overall(self, small_space):
        curve = discrepancy_curve(small_space, [10, 40, 160], seed=2, candidates=8)
        values = [d for _, d in curve]
        assert values[0] > values[-1]

    def test_sizes_preserved(self, small_space):
        curve = discrepancy_curve(small_space, [10, 20], seed=2, candidates=4)
        assert [s for s, _ in curve] == [10, 20]


class TestFindKnee:
    def test_sharp_elbow(self):
        x = [1, 2, 3, 4, 5, 6, 7, 8]
        y = [10, 5, 2.5, 1.5, 1.4, 1.3, 1.2, 1.1]
        knee = find_knee(x, y)
        assert 2 <= knee <= 4

    def test_exponential_decay(self):
        x = np.arange(1, 50, dtype=float)
        y = np.exp(-x / 8.0)
        knee = find_knee(x, y)
        assert 4 <= knee <= 16

    def test_straight_line_returns_interior_point(self):
        x = [1.0, 2.0, 3.0]
        y = [3.0, 2.0, 1.0]
        knee = find_knee(x, y)
        assert 1.0 <= knee <= 3.0

    def test_short_input(self):
        assert find_knee([1, 2], [5, 3]) == 2

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            find_knee([1, 2, 3], [1, 2])

    def test_flat_curve_does_not_crash(self):
        knee = find_knee([1, 2, 3, 4], [1.0, 1.0, 1.0, 1.0])
        assert 1 <= knee <= 4

