"""Tests for the L2 discrepancy measures."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sampling import discrepancy
from repro.sampling.discrepancy import (centered_l2_discrepancies,
                                        centered_l2_discrepancy, star_l2_discrepancy)
from repro.sampling.lhs import latin_hypercube
from repro.util.rng import make_rng


def test_star_l2_single_center_point_1d():
    # Closed-form check: for P = {0.5} in 1-D, Warnock's formula gives
    # D^2 = 1/3 - (2/1)*(1-0.25)/2 + (1-0.5) = 1/3 - 0.75 + 0.5 = 1/12.
    value = star_l2_discrepancy(np.array([[0.5]]))
    assert value == pytest.approx(np.sqrt(1.0 / 12.0))


def test_centered_l2_single_center_point_1d():
    # For the centered discrepancy at x = 0.5, |x - 1/2| = 0, so
    # CD^2 = 13/12 - 2*1 + 1 = 1/12.
    value = centered_l2_discrepancy(np.array([[0.5]]))
    assert value == pytest.approx(np.sqrt(1.0 / 12.0))


def test_larger_uniform_grid_has_lower_discrepancy():
    fine = np.linspace(0.05, 0.95, 19)[:, None]
    coarse = np.linspace(0.1, 0.9, 5)[:, None]
    assert centered_l2_discrepancy(fine) < centered_l2_discrepancy(coarse)


def test_clustered_sample_is_worse_than_spread_sample():
    spread = np.linspace(0.05, 0.95, 10)[:, None]
    clustered = np.full((10, 1), 0.1) + np.linspace(0, 0.01, 10)[:, None]
    assert centered_l2_discrepancy(spread) < centered_l2_discrepancy(clustered)


def test_lhs_beats_random_on_average(small_space):
    # The motivating property from the paper: LHS covers the space better
    # than plain random sampling (Fang et al. 2002).
    lhs_vals, rand_vals = [], []
    for i in range(10):
        rng = make_rng(100, i)
        lhs_vals.append(centered_l2_discrepancy(latin_hypercube(small_space, 20, rng)))
        rand_vals.append(centered_l2_discrepancy(rng.random((20, 3))))
    assert np.mean(lhs_vals) < np.mean(rand_vals)


def test_rejects_points_outside_unit_cube():
    with pytest.raises(ValueError):
        centered_l2_discrepancy(np.array([[1.5, 0.2]]))
    with pytest.raises(ValueError):
        star_l2_discrepancy(np.array([[-0.1]]))


def test_rejects_empty_sample():
    with pytest.raises(ValueError):
        centered_l2_discrepancy(np.zeros((0, 3)))


def test_reflection_invariance_of_centered_discrepancy(rng):
    # CD2 is invariant under coordinate reflection x -> 1 - x; the star
    # discrepancy (anchored at the origin) is not.
    pts = rng.random((15, 3))
    reflected = 1.0 - pts
    assert centered_l2_discrepancy(pts) == pytest.approx(
        centered_l2_discrepancy(reflected), rel=1e-9
    )


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(min_value=1, max_value=12),
    n=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_discrepancies_are_finite_and_nonnegative(p, n, seed):
    pts = np.random.default_rng(seed).random((p, n))
    for fn in (centered_l2_discrepancy, star_l2_discrepancy):
        value = fn(pts)
        assert np.isfinite(value)
        assert value >= 0.0


def _cd2_formula(x):
    """CD2 through the whole ``(p, p, n)`` cross array, the closed form as
    written: the oracle for the chunked, batched pass."""
    p, n = x.shape
    d = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** n
    term2 = (2.0 / p) * np.prod(1.0 + 0.5 * d - 0.5 * d**2, axis=1).sum()
    di = d[:, None, :]
    dj = d[None, :, :]
    dij = np.abs(x[:, None, :] - x[None, :, :])
    cross = np.prod(1.0 + 0.5 * di + 0.5 * dj - 0.5 * dij, axis=2)
    term3 = cross.sum() / p**2
    return float(np.sqrt(max(term1 - term2 + term3, 0.0)))


@pytest.mark.parametrize("p", [2, 5, 16, 64, 110, 181, 256])
def test_batched_centered_l2_matches_the_formula_bitwise(p, monkeypatch):
    rng = np.random.default_rng(p)
    for n in (1, 2, 3, 5, 9, 12):
        samples = rng.random((7, p, n))
        # Snapped like decoded LHS points, so |x_i - x_j| ties occur.
        samples[::2] = np.round(samples[::2] * (p - 1)) / (p - 1)
        want = [_cd2_formula(x) for x in samples]
        assert [centered_l2_discrepancy(x) for x in samples] == want
        # The module's chunk, then three samples a chunk: 7 leaves one over.
        for chunk in (discrepancy._CHUNK, 3 * p * p):
            monkeypatch.setattr(discrepancy, "_CHUNK", chunk)
            assert centered_l2_discrepancies(samples).tolist() == want


def test_batched_centered_l2_checks_its_stack():
    with pytest.raises(ValueError):
        centered_l2_discrepancies(np.full((2, 3, 2), 0.5)[0])
    with pytest.raises(ValueError):
        centered_l2_discrepancies(np.full((2, 3, 2), 1.5))
