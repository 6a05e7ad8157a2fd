"""Design-point selection: LHS variant, discrepancy metrics, optimizers."""

from repro.sampling.adaptive import adaptive_sample
from repro.sampling.discrepancy import centered_l2_discrepancy, star_l2_discrepancy
from repro.sampling.halton import halton
from repro.sampling.lhs import latin_hypercube, lhs_levels
from repro.sampling.optimizer import (
    best_lhs_sample,
    discrepancy_curve,
    find_knee,
)
from repro.sampling.random_design import random_design
from repro.sampling.plackett_burman import plackett_burman, foldover

__all__ = [
    "adaptive_sample",
    "halton",
    "centered_l2_discrepancy",
    "star_l2_discrepancy",
    "latin_hypercube",
    "lhs_levels",
    "best_lhs_sample",
    "discrepancy_curve",
    "find_knee",
    "random_design",
    "plackett_burman",
    "foldover",
]
