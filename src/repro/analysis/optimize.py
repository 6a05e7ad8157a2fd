"""Model-guided design-space search.

The paper's closing claim is that the models are *"accurate enough to be
potentially used by processor architects to systematically explore the
design space for optimal design points"*.  This module does exactly that:
score a large number of candidate configurations with the (cheap) model,
locally refine the best ones, and return the winners — thousands of model
evaluations for the cost of zero additional simulations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.design_space import DesignSpace
from repro.models.base import Model
from repro.util.rng import make_rng

#: Optional feasibility predicate over physical design-point dictionaries
#: (e.g. a power or area budget).
Constraint = Callable[[Dict[str, float]], bool]

#: Rounds of shrinking-radius jitter applied to the best candidates.
_REFINE_STEPS = 64


@dataclass(frozen=True)
class Candidate:
    """One scored design point."""

    point: Dict[str, float]  # physical values
    predicted: float


def optimize_design(
    model: Model,
    space: DesignSpace,
    minimize: bool = True,
    candidates: int = 4096,
    refine_top: int = 16,
    seed: int = 0,
    constraint: Optional[Constraint] = None,
) -> List[Candidate]:
    """Search the space for extreme model responses.

    A random global scan is followed by :data:`_REFINE_STEPS` rounds of
    coordinate-jitter refinement of the ``refine_top`` best candidates.
    Returns the refined candidates sorted best-first (ascending predicted
    response when minimising).

    Note the result optimises the *model*; the intended workflow is to
    verify the few winners with detailed simulation, which is still orders
    of magnitude cheaper than simulating the whole space.
    """
    if candidates < 1:
        raise ValueError("need at least one candidate")
    rng = make_rng(seed, "optimize", space.name)
    sign = 1.0 if minimize else -1.0

    def feasible_mask(unit_pts: np.ndarray) -> np.ndarray:
        if constraint is None:
            return np.ones(len(unit_pts), dtype=bool)
        phys = space.decode(unit_pts)
        return np.array(
            [constraint(space.as_dict(row)) for row in phys], dtype=bool
        )

    unit = space.random_unit_points(candidates, rng)
    mask = feasible_mask(unit)
    if not mask.any():
        raise ValueError("constraint rejected every candidate")
    unit = unit[mask]
    scores = sign * model.predict(unit)
    order = np.argsort(scores)
    top = unit[order[:refine_top]].copy()

    # Coordinate-jitter refinement with a shrinking neighbourhood.
    for step in range(_REFINE_STEPS):
        radius = 0.25 * (1.0 - step / _REFINE_STEPS) + 0.01
        jitter = rng.normal(scale=radius, size=top.shape)
        trial = np.clip(top + jitter, 0.0, 1.0)
        t_mask = feasible_mask(trial)
        old = sign * model.predict(top)
        new = sign * model.predict(trial)
        better = (new < old) & t_mask
        top[better] = trial[better]

    final_scores = sign * model.predict(top)
    order = np.argsort(final_scores)
    results = []
    for idx in order:
        phys = space.decode(top[idx][None, :])[0]
        results.append(
            Candidate(
                point=space.as_dict(phys),
                predicted=float(model.predict(top[idx][None, :])[0]),
            )
        )
    return results
