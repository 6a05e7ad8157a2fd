"""Parameter-significance estimation from a fitted model.

One of the paper's motivations for cheap surrogate models is recovering
insights — "the significance of individual parameters and their
interactions" — without further simulation.  This module estimates main
effects by averaging the model over the design space (a grid-sampled
functional ANOVA-style decomposition) and ranks parameters by the response
range their variation induces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.core.design_space import DesignSpace
from repro.models.base import Model
from repro.util.rng import make_rng


@dataclass(frozen=True)
class MainEffect:
    """Averaged response of one parameter across the design space."""

    parameter: str
    levels: List[float]  # unit-cube settings evaluated
    response: List[float]  # mean model response at each setting
    magnitude: float  # max - min of the averaged response


def main_effects(
    model: Model,
    space: DesignSpace,
    num_levels: int = 7,
    background: int = 256,
) -> Dict[str, MainEffect]:
    """Main effect of every parameter, marginalised over the others.

    For each parameter, the model is evaluated on ``background`` random
    points (seed 0) with that parameter pinned at each of ``num_levels``
    settings; the mean response per setting is the main-effect curve.
    """
    if num_levels < 2:
        raise ValueError("need at least 2 levels")
    rng = make_rng(0, "main-effects", space.name)
    base = rng.random((background, space.dimension))
    settings = np.linspace(0.0, 1.0, num_levels)
    effects: Dict[str, MainEffect] = {}
    for k, param in enumerate(space.parameters):
        means = []
        for u in settings:
            pts = base.copy()
            pts[:, k] = u
            means.append(float(model.predict(pts).mean()))
        effects[param.name] = MainEffect(
            parameter=param.name,
            levels=list(settings),
            response=means,
            magnitude=float(max(means) - min(means)),
        )
    return effects


def rank_parameters(
    model: Model,
    space: DesignSpace,
    num_levels: int = 7,
    background: int = 256,
) -> List[MainEffect]:
    """Parameters sorted by main-effect magnitude, largest first."""
    effects = main_effects(model, space, num_levels, background)
    return sorted(effects.values(), key=lambda e: -e.magnitude)
