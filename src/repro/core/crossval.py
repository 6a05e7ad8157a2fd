"""Cross-validation error estimation for design-space models.

The paper estimates model accuracy with 50 extra simulations at random test
points — simulation the designer must pay for.  Cross-validation estimates
accuracy from the *training* sample alone, which matters in exactly the
regime the paper targets (every simulation is expensive).  The experiment
in ``benchmarks/ablations/test_ablation_crossval.py`` checks how well the
free estimate tracks the paid-for one.

Two estimators are provided:

* :func:`kfold_error` — generic k-fold cross-validation for any model
  fitting function;
* :func:`loo_rbf_error` — exact leave-one-out for a *fixed* RBF structure
  (centers/radii held, weights refit), using the hat-matrix identity
  ``e_i / (1 - H_ii)`` so no refitting loop is needed.
"""

from __future__ import annotations

from typing import Callable, Tuple

import numpy as np

from repro import obs
from repro.core.validation import ErrorReport, prediction_errors
from repro.models.rbf import RBFNetwork
from repro.util.rng import make_rng

#: Fits a model on (points, responses) and returns a predictor.
FitFn = Callable[[np.ndarray, np.ndarray], Callable[[np.ndarray], np.ndarray]]


def kfold_error(
    points: np.ndarray,
    responses: np.ndarray,
    fit_fn: FitFn,
    folds: int = 5,
    seed: int = 0,
) -> ErrorReport:
    """K-fold cross-validated percentage-error report.

    Folds are a seeded random partition; each fold's points are predicted
    by a model trained on the remaining folds.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float).ravel()
    p = len(points)
    if not 2 <= folds <= p:
        raise ValueError("folds must be between 2 and the sample size")
    order = make_rng(seed, "kfold", p, folds).permutation(p)
    predictions = np.empty(p)
    with obs.span("crossval/kfold", folds=folds, points=p):
        for f in range(folds):
            held = order[f::folds]
            train = np.setdiff1d(order, held)
            predictor = fit_fn(points[train], responses[train])
            predictions[held] = predictor(points[held])
        obs.inc("crossval/kfold_runs")
    return prediction_errors(responses, predictions)


def loo_rbf_error(
    points: np.ndarray,
    responses: np.ndarray,
    network: RBFNetwork,
) -> Tuple[ErrorReport, np.ndarray]:
    """Exact leave-one-out error for a fixed RBF basis.

    Holds the network's centers and radii fixed and treats the weight fit
    as linear regression, so the leave-one-out residuals come from the
    hat-matrix identity in :meth:`RBFNetwork.loo_residuals` — no refit
    loop.

    Returns the error report and the per-point LOO predictions.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    responses = np.asarray(responses, dtype=float).ravel()
    with obs.span("crossval/loo", points=len(points),
                  centers=network.num_centers):
        loo_pred = responses - network.loo_residuals(points, responses)
        obs.inc("crossval/loo_runs")
    return prediction_errors(responses, loo_pred), loo_pred
