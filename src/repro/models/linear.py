"""Linear regression baseline with two-factor interactions (paper Sec. 4.2).

The comparison baseline follows Joseph et al. (HPCA-12): CPI is modeled as a
linear combination of main effects and all two-parameter interactions of the
coded design variables, and insignificant terms are eliminated by stepwise
variable selection under the AIC criterion.  With ``n = 9`` parameters the
full model has ``1 + 9 + 36 = 46`` terms; small samples cannot support all of
them, so selection runs forward from the intercept when the sample is small
and backward from the full model otherwise — both directions terminate when
no single add/drop improves the criterion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import Model, design_dot, least_squares
from repro.models.selection import get_criterion


@dataclass(frozen=True)
class Term:
    """One regression term: the intercept, a main effect, or an interaction."""

    dims: Tuple[int, ...]  # () intercept, (k,) main effect, (k, l) interaction

    def label(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable term label (e.g. ``1``, ``x0``, ``a*c``)."""
        if not self.dims:
            return "1"
        if names is None:
            names = [f"x{k}" for k in range(max(self.dims) + 1)]
        return "*".join(names[k] for k in self.dims)


def candidate_terms(dimension: int) -> List[Term]:
    """Intercept + main effects + all two-factor interactions."""
    terms = [Term(())]
    terms.extend(Term((k,)) for k in range(dimension))
    for k in range(dimension):
        for l in range(k + 1, dimension):
            terms.append(Term((k, l)))
    return terms


def _columns(points: np.ndarray, terms: Sequence[Term]) -> np.ndarray:
    """Model matrix for ``terms`` over coded variables ``z = 2u - 1``."""
    z = 2.0 * points - 1.0
    cols = []
    for term in terms:
        col = np.ones(len(points))
        for k in term.dims:
            col = col * z[:, k]
        cols.append(col)
    return np.column_stack(cols)


class LinearInteractionModel(Model):
    """Fitted linear model over unit-cube points with selected terms."""

    def __init__(self, terms: Sequence[Term], coefficients: np.ndarray, dimension: int):
        if len(terms) != len(coefficients):
            raise ValueError("one coefficient per term is required")
        self.terms = list(terms)
        self.coefficients = np.asarray(coefficients, dtype=float).ravel()
        self.dimension = dimension

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        responses: np.ndarray,
        criterion: str = "aic",
    ) -> "LinearInteractionModel":
        """Fit with stepwise AIC variable selection over main effects and
        all two-factor interactions (as the paper's baseline does).

        Parameters
        ----------
        points, responses:
            The sample (unit-cube coordinates and CPIs).
        criterion:
            Selection criterion name (the paper's baseline uses AIC).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        if len(points) != len(responses):
            raise ValueError("points and responses must have equal length")
        crit_fn = get_criterion(criterion)
        p, n = points.shape
        candidates = candidate_terms(n)
        full = _columns(points, candidates)

        def score(active: List[int]) -> float:
            if not active:
                return crit_fn(p, float(responses @ responses), 0)
            if len(active) >= p - 1:
                return np.inf
            _, sse = least_squares(full[:, active], responses)
            return crit_fn(p, sse, len(active))

        # Seed: full model when the sample supports it, else intercept only.
        if p > len(candidates) + 5:
            active = list(range(len(candidates)))
        else:
            active = [0]
        current = score(active)

        improved = True
        while improved:
            improved = False
            best_move: Optional[Tuple[str, int, float]] = None
            for idx in range(len(candidates)):
                if idx in active:
                    if idx == 0:
                        continue  # keep the intercept
                    trial = [a for a in active if a != idx]
                    value = score(trial)
                    if value < current and (best_move is None or value < best_move[2]):
                        best_move = ("drop", idx, value)
                else:
                    trial = active + [idx]
                    value = score(trial)
                    if value < current and (best_move is None or value < best_move[2]):
                        best_move = ("add", idx, value)
            if best_move is not None:
                op, idx, value = best_move
                if op == "drop":
                    active = [a for a in active if a != idx]
                else:
                    active = sorted(active + [idx])
                current = value
                improved = True

        beta, _ = least_squares(full[:, active], responses)
        return cls([candidates[i] for i in active], beta, dimension=n)

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Model output over the selected terms at unit-cube points.

        Batch-size-stable via :func:`repro.models.base.design_dot`: the
        same bits for one point or ten thousand.
        """
        points = self._as_points(points, self.dimension)
        return design_dot(_columns(points, self.terms), self.coefficients)

    def diagnostics(self) -> dict:
        """Structure numbers for the model card: term counts by order."""
        orders = [len(t.dims) for t in self.terms]
        return {
            "family": "linear",
            "dimension": self.dimension,
            "num_terms": len(self.terms),
            "main_effects": sum(1 for o in orders if o == 1),
            "interactions": sum(1 for o in orders if o == 2),
            "coefficient_l2": float(
                np.sqrt(self.coefficients @ self.coefficients)
            ),
        }

    def describe(self, names: Optional[Sequence[str]] = None) -> str:
        """The fitted equation as text (terms and coefficients)."""
        parts = [
            f"{coef:+.4f}*{term.label(names)}"
            for term, coef in zip(self.terms, self.coefficients)
        ]
        return "CPI = " + " ".join(parts)

    def __repr__(self) -> str:
        return f"LinearInteractionModel(terms={len(self.terms)}, n={self.dimension})"
