"""Model accuracy metrics (paper Sec. 3, last paragraph, and Sec. 4.1).

The paper scores models on an independent random test set using the *mean
absolute percentage error* in CPI, its standard deviation, and the maximum
error — the three columns of Table 3.  It also judges both its simulator
(Sec. 3) and its models (Sec. 4.1, Figure 6) by whether they follow the
*trends* of a reference: :func:`trend_agreement` is that one rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro import obs
from repro.util.rng import make_rng


@dataclass(frozen=True)
class ErrorReport:
    """Percentage-error diagnostics of a model on a test set."""

    mean: float  # mean absolute percentage error
    max: float  # maximum absolute percentage error
    std: float  # standard deviation of the absolute percentage error
    count: int
    #: Per-point absolute percentage errors (kept for resampling).
    percentages: Tuple[float, ...] = field(default=(), repr=False)

    def row(self):
        """(mean, max, std) tuple formatted like the paper's Table 3 rows."""
        return (round(self.mean, 1), round(self.max, 1), round(self.std, 1))

    def mean_ci(
        self, confidence: float = 0.95, seed: int = 0
    ) -> Optional[Tuple[float, float]]:
        """Bootstrap confidence interval for the mean error, from 2000 resamples.

        One of the paper's motivations is the "lack of statistical rigor"
        in ad-hoc exploration; the interval quantifies how much the
        50-point mean error estimate itself can be trusted.  Returns
        ``None`` when per-point errors were not retained.
        """
        if not self.percentages:
            return None
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        resamples = 2000
        rng = make_rng(seed, "error-ci", self.count, resamples)
        errors = np.asarray(self.percentages)
        idx = rng.integers(0, len(errors), size=(resamples, len(errors)))
        means = errors[idx].mean(axis=1)
        alpha = (1.0 - confidence) / 2.0
        lo, hi = np.quantile(means, [alpha, 1.0 - alpha])
        return float(lo), float(hi)

    def __str__(self) -> str:
        return f"mean={self.mean:.2f}% max={self.max:.2f}% std={self.std:.2f}% (n={self.count})"


def prediction_errors(true_values: np.ndarray, predicted: np.ndarray) -> ErrorReport:
    """Percentage-error report of ``predicted`` against ``true_values``."""
    true_values = np.asarray(true_values, dtype=float).ravel()
    predicted = np.asarray(predicted, dtype=float).ravel()
    if true_values.shape != predicted.shape:
        raise ValueError("true and predicted arrays must have equal length")
    if len(true_values) == 0:
        raise ValueError("cannot score an empty test set")
    if np.any(true_values == 0):
        raise ValueError("true responses contain zeros; percentage error undefined")
    pct = np.abs(predicted - true_values) / np.abs(true_values) * 100.0
    obs.inc("validation/points", len(pct))
    obs.observe("validation/mean_error", float(pct.mean()))
    return ErrorReport(
        mean=float(pct.mean()),
        max=float(pct.max()),
        std=float(pct.std(ddof=1)) if len(pct) > 1 else 0.0,
        count=len(pct),
        percentages=tuple(float(v) for v in pct),
    )


def trend_agreement(reference: np.ndarray, candidate: np.ndarray) -> float:
    """Fraction of steps along every axis where ``candidate`` moves like ``reference``.

    A step agrees when both series move the same way (equal signs of their
    differences), or when the reference moves by less than 0.5% of its
    value there — a flat response carries no directional information.
    Works over a 1-D sweep or an n-D grid alike; a series with no steps
    agrees fully.
    """
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    agree = total = 0
    for axis in range(reference.ndim):
        dr = np.diff(reference, axis=axis)
        dc = np.diff(candidate, axis=axis)
        flat = np.abs(dr) < 0.005 * reference.take(range(dr.shape[axis]), axis=axis)
        agree += int(np.sum((np.sign(dr) == np.sign(dc)) | flat))
        total += dr.size
    return agree / total if total else 1.0
