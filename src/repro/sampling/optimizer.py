"""Discrepancy-optimised sample selection and the Figure 2 machinery.

The paper generates *"a large number of latin hypercube samples"* and keeps
the one with the best (lowest) L2-star discrepancy; the best obtained
discrepancy as a function of sample size traces the curve of Figure 2, whose
knee guides the choice of simulation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.design_space import DesignSpace
from repro.sampling.discrepancy import centered_l2_discrepancies
from repro.sampling.lhs import latin_hypercube
from repro.util.rng import make_rng

@dataclass(frozen=True)
class OptimizedSample:
    """A best-of-N latin hypercube sample and its diagnostics."""

    points: np.ndarray  # (p, n) unit-cube coordinates
    discrepancy: float
    candidates: int
    sample_size: int


def best_lhs_sample(
    space: DesignSpace,
    count: int,
    seed: int,
    candidates: int = 64,
) -> OptimizedSample:
    """Generate ``candidates`` LHS samples and keep the lowest-discrepancy one.

    All candidates are drawn first and scored by the centered L2
    discrepancy in one batched pass; the first of the lowest wins.

    Parameters
    ----------
    space:
        Design space to sample.
    count:
        Sample size ``p``.
    seed:
        Root seed; candidate ``i`` uses an independent derived stream.
    candidates:
        Number of LHS candidates to generate ("a large number" in the
        paper; 64 by default, more gives marginally better discrepancy).
    """
    if candidates < 1:
        raise ValueError("candidates must be >= 1")
    samples = [latin_hypercube(space, count, make_rng(seed, "lhs-candidate", count, i))
               for i in range(candidates)]
    values = centered_l2_discrepancies(np.stack(samples))
    best = int(np.argmin(values))
    return OptimizedSample(
        points=samples[best],
        discrepancy=float(values[best]),
        candidates=candidates,
        sample_size=count,
    )


def discrepancy_curve(
    space: DesignSpace,
    sizes: Sequence[int],
    seed: int,
    candidates: int = 64,
) -> List[Tuple[int, float]]:
    """Best obtained discrepancy for each sample size (the Figure 2 curve)."""
    curve = []
    for size in sizes:
        sample = best_lhs_sample(space, size, seed, candidates=candidates)
        curve.append((size, sample.discrepancy))
    return curve


def find_knee(x: Sequence[float], y: Sequence[float]) -> float:
    """Locate the knee of a decreasing curve by maximum distance to the chord.

    The paper picks a sample size "near the knee" of the discrepancy curve;
    this helper makes that choice reproducible: the knee is the point with
    the largest perpendicular distance to the straight line joining the
    curve's endpoints (the standard "kneedle"-style geometric criterion).
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.shape != y_arr.shape or x_arr.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if len(x_arr) < 3:
        return float(x_arr[-1])
    # Normalise both axes so the geometry is scale-free.
    xs = (x_arr - x_arr[0]) / (x_arr[-1] - x_arr[0])
    span = y_arr.max() - y_arr.min()
    ys = (y_arr - y_arr.min()) / (span if span else 1.0)
    # Distance from each point to the endpoint chord.
    x0, y0, x1, y1 = xs[0], ys[0], xs[-1], ys[-1]
    norm = np.hypot(x1 - x0, y1 - y0)
    dist = np.abs((y1 - y0) * xs - (x1 - x0) * ys + x1 * y0 - y1 * x0) / norm
    return float(x_arr[int(np.argmax(dist))])
