"""Space-filling (discrepancy) measures for design samples.

The paper quantifies how well a sample covers the design space with the
L2-star discrepancy, analytically derived in Hickernell (1998): the L2 norm
of the deviation between the sample's empirical distribution and the uniform
distribution over the unit cube.  Lower is better.

Two standard closed forms are provided, both O(p^2 * n):

* :func:`star_l2_discrepancy` — the classic L2-star discrepancy
  (Warnock's formula), anchored at the origin;
* :func:`centered_l2_discrepancy` — Hickernell's centered L2 discrepancy
  (CD2), which is invariant to reflections of the sample about the center
  of the cube and is the variant commonly used for comparing latin
  hypercube designs (Fang et al. 2002).  :func:`centered_l2_discrepancies`
  scores a whole stack of candidate samples in one pass; the single-sample
  function is its one-candidate case.

The sample-selection optimizer uses CD2 by default; the experiments refer to
it as "the L2-star discrepancy" exactly as the paper does.
"""

from __future__ import annotations

import numpy as np


#: Elements of one chunk of CD2 cross-term factors, ``(candidates, p, p)``.
_CHUNK = 1 << 15


def _in_unit_cube(points: np.ndarray) -> np.ndarray:
    if points.size == 0:
        raise ValueError("sample must be non-empty")
    if np.any(points < -1e-12) or np.any(points > 1 + 1e-12):
        raise ValueError("sample points must lie in the unit cube [0, 1]^n")
    return np.clip(points, 0.0, 1.0)


def _check_unit_sample(points: np.ndarray) -> np.ndarray:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2:
        raise ValueError("sample must be a 2-D array of shape (p, n)")
    return _in_unit_cube(points)


def star_l2_discrepancy(points: np.ndarray) -> float:
    """L2-star discrepancy of a unit-cube sample (Warnock's formula).

    .. math::

        D_2^*(P)^2 = 3^{-n}
            - \\frac{2^{1-n}}{p} \\sum_i \\prod_k (1 - x_{ik}^2)
            + \\frac{1}{p^2} \\sum_{i,j} \\prod_k (1 - \\max(x_{ik}, x_{jk}))
    """
    x = _check_unit_sample(points)
    p, n = x.shape
    term1 = 3.0 ** (-n)
    term2 = (2.0 ** (1 - n) / p) * np.prod(1.0 - x**2, axis=1).sum()
    cross = np.prod(1.0 - np.maximum(x[:, None, :], x[None, :, :]), axis=2)
    term3 = cross.sum() / p**2
    return float(np.sqrt(max(term1 - term2 + term3, 0.0)))


def centered_l2_discrepancy(points: np.ndarray) -> float:
    """Hickernell's centered L2 discrepancy (CD2) of a unit-cube sample.

    .. math::

        CD_2(P)^2 = (13/12)^n
            - \\frac{2}{p} \\sum_i \\prod_k
                \\left(1 + \\tfrac12 |x_{ik} - \\tfrac12|
                        - \\tfrac12 |x_{ik} - \\tfrac12|^2\\right)
            + \\frac{1}{p^2} \\sum_{i,j} \\prod_k
                \\left(1 + \\tfrac12 |x_{ik} - \\tfrac12|
                        + \\tfrac12 |x_{jk} - \\tfrac12|
                        - \\tfrac12 |x_{ik} - x_{jk}|\\right)
    """
    return float(_centered_l2(_check_unit_sample(points)[None])[0])


def centered_l2_discrepancies(samples: np.ndarray) -> np.ndarray:
    """CD2 of every ``(p, n)`` sample in a ``(c, p, n)`` stack, in one pass.

    Each value is bit for bit :func:`centered_l2_discrepancy` of that
    sample alone.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 3:
        raise ValueError("samples must be a 3-D array of shape (c, p, n)")
    return _centered_l2(_in_unit_cube(samples))


def _centered_l2(x: np.ndarray) -> np.ndarray:
    """CD2 of each sample of a checked ``(c, p, n)`` stack.

    The cross term multiplies one ``(c, p, p)`` factor per dimension, over
    chunks of about ``_CHUNK`` elements, instead of holding a
    ``(p, p, n)`` array per sample.  The factors are the closed form's
    elementwise operations in its order, and the product runs over the
    dimensions in order, as a product reduction does.
    """
    c, p, n = x.shape
    d = np.abs(x - 0.5)
    term1 = (13.0 / 12.0) ** n
    term2 = (2.0 / p) * np.prod(1.0 + 0.5 * d - 0.5 * d**2, axis=2).sum(axis=1)
    term3 = np.empty(c)
    step = max(1, _CHUNK // (p * p))
    for lo in range(0, c, step):
        cross = np.ones((min(step, c - lo), p, p))
        for k in range(n):
            xk, dk = x[lo:lo + step, :, k], d[lo:lo + step, :, k]
            half_dij = np.abs(xk[:, :, None] - xk[:, None, :])
            half_dij *= 0.5
            factor = (1.0 + 0.5 * dk)[:, :, None] + (0.5 * dk)[:, None, :]
            factor -= half_dij
            cross *= factor
        term3[lo:lo + step] = cross.reshape(len(cross), -1).sum(axis=1) / p**2
    return np.sqrt(np.maximum(term1 - term2 + term3, 0.0))
