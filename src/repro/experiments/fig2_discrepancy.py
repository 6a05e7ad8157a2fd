"""Figure 2: best obtained L2-star discrepancy vs number of simulations.

For each candidate sample size, many latin hypercube samples are generated
and the lowest discrepancy is recorded.  The curve decreases with a knee
(near 90 in the paper) past which extra simulations improve space coverage
only marginally — the paper's guidance for choosing the simulation budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments import common
from repro.sampling.optimizer import discrepancy_curve, find_knee
from repro.util.tables import render_series

#: Sizes swept; starts at the paper's smallest sample size (30).
SIZES = (30, 40, 50, 60, 70, 80, 90, 110, 130, 150, 175, 200)


@dataclass
class Fig2Result:
    curve: List[Tuple[int, float]]
    knee: float


def run() -> Fig2Result:
    """Compute the best-discrepancy-vs-size curve and its knee."""
    space = common.training_space()
    curve = discrepancy_curve(
        space, list(SIZES), seed=common.EXPERIMENT_SEED, candidates=64
    )
    x = [s for s, _ in curve]
    y = [d for _, d in curve]
    return Fig2Result(curve=curve, knee=find_knee(x, y))


def render(result: Fig2Result) -> str:
    """Plain-text rendering of the curve (Fig. 2 shape)."""
    x = [s for s, _ in result.curve]
    y = [d for _, d in result.curve]
    lines = [
        "Figure 2: best obtained L2-star (centered L2) discrepancy vs sample size",
        render_series(x, y, label="sample size | discrepancy"),
        "",
        f"knee of the curve at sample size ~{result.knee:.0f} "
        "(paper: knee near 90; size chosen near the knee)",
    ]
    return "\n".join(lines)
