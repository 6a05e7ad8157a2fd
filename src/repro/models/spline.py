"""Regression-spline models (the Lee & Brooks related-work baseline).

The paper's related work cites Lee & Brooks (ASPLOS 2006), who model
processor performance with *regression splines*.  This module implements a
MARS-style (Friedman 1991) piecewise-linear spline model so the comparison
can be run here:

* basis functions are hinge pairs ``max(0, x_k - t)`` / ``max(0, t - x_k)``
  at data-driven knots, plus pairwise products of selected hinges
  (two-factor interaction splines);
* a greedy forward pass adds the basis function (or hinge pair) that most
  reduces training error;
* a backward pruning pass deletes terms while a generalised criterion
  (AICc, matching the rest of the library) improves.

Like every model here it operates on unit-cube coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.models.base import Model, design_dot, least_squares
from repro.models.selection import get_criterion

#: Candidate knots per dimension in the forward pass.
_KNOTS_PER_DIM = 7


@dataclass(frozen=True)
class Hinge:
    """One hinge factor: ``max(0, s * (x_k - t))`` with sign s in {+1, -1}."""

    dimension: int
    knot: float
    sign: int

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        return np.maximum(0.0, self.sign * (points[:, self.dimension] - self.knot))

    def label(self) -> str:
        if self.sign > 0:
            return f"h(x{self.dimension}-{self.knot:.2f})"
        return f"h({self.knot:.2f}-x{self.dimension})"


@dataclass(frozen=True)
class SplineTerm:
    """A product of up to ``max_degree`` hinge factors (1 = additive)."""

    hinges: Tuple[Hinge, ...]

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        if not self.hinges:
            return np.ones(len(points))
        out = self.hinges[0].evaluate(points)
        for hinge in self.hinges[1:]:
            out = out * hinge.evaluate(points)
        return out

    def degree(self) -> int:
        return len(self.hinges)

    def label(self) -> str:
        if not self.hinges:
            return "1"
        return "*".join(h.label() for h in self.hinges)


class SplineModel(Model):
    """Fitted MARS-style regression spline."""

    def __init__(self, terms: Sequence[SplineTerm], coefficients: np.ndarray,
                 dimension: int):
        if len(terms) != len(coefficients):
            raise ValueError("one coefficient per term required")
        self.terms = list(terms)
        self.coefficients = np.asarray(coefficients, dtype=float).ravel()
        self.dimension = dimension

    def predict(self, points: np.ndarray) -> np.ndarray:
        """Sum of hinge-term contributions, batch-size stable
        (:func:`repro.models.base.design_dot`)."""
        points = self._as_points(points, self.dimension)
        matrix = np.column_stack([t.evaluate(points) for t in self.terms])
        return design_dot(matrix, self.coefficients)

    def describe(self) -> str:
        """The fitted spline as text (hinge terms and coefficients)."""
        parts = [
            f"{c:+.4f}*{t.label()}" for t, c in zip(self.terms, self.coefficients)
        ]
        return "y = " + " ".join(parts)

    def diagnostics(self) -> dict:
        """Structure numbers for the model card: term counts by degree."""
        degrees = [t.degree() for t in self.terms]
        return {
            "family": "spline",
            "dimension": self.dimension,
            "num_terms": len(self.terms),
            "additive_terms": sum(1 for d in degrees if d == 1),
            "interaction_terms": sum(1 for d in degrees if d >= 2),
            "coefficient_l2": float(
                np.sqrt(self.coefficients @ self.coefficients)
            ),
        }

    def __repr__(self) -> str:
        return f"SplineModel(terms={len(self.terms)}, n={self.dimension})"

    # -- construction -------------------------------------------------------

    @classmethod
    def fit(
        cls,
        points: np.ndarray,
        responses: np.ndarray,
        max_terms: int = 30,
        max_degree: int = 2,
    ) -> "SplineModel":
        """Greedy forward selection of hinge terms, AICc backward pruning.

        Candidate knots sit at :data:`_KNOTS_PER_DIM` interior quantiles of
        each dimension.

        Parameters
        ----------
        points, responses:
            Training sample (unit-cube coordinates).
        max_terms:
            Cap on basis functions added in the forward pass (including the
            intercept).
        max_degree:
            Maximum hinges per term (2 = two-factor interaction splines,
            as in Lee & Brooks).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        responses = np.asarray(responses, dtype=float).ravel()
        if len(points) != len(responses):
            raise ValueError("points and responses must have equal length")
        p, n = points.shape
        crit_fn = get_criterion("aicc")

        # Candidate knots at interior quantiles of each dimension.
        qs = np.linspace(0.1, 0.9, _KNOTS_PER_DIM)
        knots = [np.unique(np.quantile(points[:, k], qs)) for k in range(n)]

        terms: List[SplineTerm] = [SplineTerm(())]
        matrix = np.ones((p, 1))
        _, best_sse = least_squares(matrix, responses)

        # Forward pass: repeatedly add the best hinge pair.  Candidate
        # parents are existing terms (MARS grows interactions by
        # multiplying a hinge into an existing term).
        while len(terms) < max_terms:
            best_add: Optional[Tuple[SplineTerm, SplineTerm]] = None
            best_add_sse = best_sse
            for parent in terms:
                if parent.degree() >= max_degree:
                    continue
                used_dims = {h.dimension for h in parent.hinges}
                for k in range(n):
                    if k in used_dims:
                        continue
                    for t in knots[k]:
                        pair = (
                            SplineTerm(parent.hinges + (Hinge(k, float(t), +1),)),
                            SplineTerm(parent.hinges + (Hinge(k, float(t), -1),)),
                        )
                        cols = [term.evaluate(points) for term in pair]
                        if any(np.allclose(c, 0.0) for c in cols):
                            continue
                        trial = np.column_stack([matrix] + cols)
                        if trial.shape[1] >= p - 1:
                            continue
                        _, sse = least_squares(trial, responses)
                        if sse < best_add_sse * (1 - 1e-9):
                            best_add_sse = sse
                            best_add = pair
            if best_add is None:
                break
            terms.extend(best_add)
            matrix = np.column_stack(
                [matrix] + [term.evaluate(points) for term in best_add]
            )
            best_sse = best_add_sse

        # Backward pruning under the criterion.
        def score(active: List[int]) -> float:
            _, sse = least_squares(matrix[:, active], responses)
            return crit_fn(p, sse, len(active))

        active = list(range(len(terms)))
        current = score(active)
        improved = True
        while improved and len(active) > 1:
            improved = False
            best_drop = None
            for idx in active[1:]:  # keep the intercept
                trial = [a for a in active if a != idx]
                value = score(trial)
                if value < current:
                    current = value
                    best_drop = idx
                    improved = True
            if best_drop is not None:
                active = [a for a in active if a != best_drop]

        beta, _ = least_squares(matrix[:, active], responses)
        return cls([terms[i] for i in active], beta, dimension=n)
