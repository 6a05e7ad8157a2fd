"""Two-factor interaction trends: model predictions vs detailed simulation.

The paper's Sec. 4.1 checks that the RBF models capture *trends*, not just
point predictions: for a chosen pair of parameters it sweeps a grid (all
other parameters fixed), simulates the true CPI, and overlays the model's
prediction (Figure 6: instruction-cache size x L2 latency for vortex).
Figure 1 uses the same grid machinery with the simulator alone to motivate
non-linear modeling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.design_space import DesignSpace
from repro.core.validation import trend_agreement
from repro.models.base import Model


@dataclass
class TrendGrid:
    """CPI over a 2-parameter grid, simulated and (optionally) predicted."""

    param_x: str
    param_y: str
    x_values: List[float]
    y_values: List[float]
    simulated: np.ndarray  # (len(y), len(x))
    predicted: Optional[np.ndarray] = None

    def max_trend_error(self) -> float:
        """Largest |predicted - simulated| / simulated over the grid (%)."""
        if self.predicted is None:
            raise ValueError("grid has no predictions")
        return float(
            (np.abs(self.predicted - self.simulated) / self.simulated).max() * 100.0
        )

    def monotonic_agreement(self) -> float:
        """Fraction of grid steps where prediction moves like simulation.

        Steps along both axes are counted; near-flat simulated steps
        (< 0.5% relative change) count as agreement
        (:func:`repro.core.validation.trend_agreement`).
        """
        if self.predicted is None:
            raise ValueError("grid has no predictions")
        return trend_agreement(self.simulated, self.predicted)

    def rows(self):
        """Iterate (y_value, x_value, simulated, predicted) rows for tables."""
        for iy, yv in enumerate(self.y_values):
            for ix, xv in enumerate(self.x_values):
                pred = self.predicted[iy, ix] if self.predicted is not None else None
                yield (yv, xv, float(self.simulated[iy, ix]), pred)


def interaction_grid(
    space: DesignSpace,
    response_fn: Callable[[np.ndarray], np.ndarray],
    base_point: Dict[str, float],
    param_x: str,
    x_values: Sequence[float],
    param_y: str,
    y_values: Sequence[float],
    model: Optional[Model] = None,
) -> TrendGrid:
    """Simulate (and optionally predict) CPI over a 2-parameter grid.

    ``response_fn`` maps physical ``(m, n)`` points to CPIs (typically
    :meth:`repro.experiments.runner.SimulationRunner.cpi`); all parameters
    other than ``param_x`` / ``param_y`` are held at ``base_point``.
    """
    points = []
    for yv in y_values:
        for xv in x_values:
            point = dict(base_point)
            point[param_x] = xv
            point[param_y] = yv
            points.append([point[name] for name in space.names])
    phys = np.array(points, dtype=float)
    simulated = np.asarray(response_fn(phys), dtype=float).reshape(
        len(y_values), len(x_values)
    )
    predicted = None
    if model is not None:
        predicted = model.predict(space.encode(phys)).reshape(
            len(y_values), len(x_values)
        )
    return TrendGrid(
        param_x=param_x,
        param_y=param_y,
        x_values=list(x_values),
        y_values=list(y_values),
        simulated=simulated,
        predicted=predicted,
    )


def trend_comparison(grid: TrendGrid) -> str:
    """Plain-text rendering of simulated vs predicted series (Fig. 6 style)."""
    lines = [
        f"CPI vs {grid.param_x} for each {grid.param_y} "
        "(sim = simulated, prd = model prediction)"
    ]
    header = f"{grid.param_y:>12} | " + " ".join(f"{v:>12.5g}" for v in grid.x_values)
    lines.append(header)
    for iy, yv in enumerate(grid.y_values):
        sim = " ".join(f"{v:>12.3f}" for v in grid.simulated[iy])
        lines.append(f"{yv:>8.5g} sim | {sim}")
        if grid.predicted is not None:
            prd = " ".join(f"{v:>12.3f}" for v in grid.predicted[iy])
            lines.append(f"{'':>8} prd | {prd}")
    return "\n".join(lines)
