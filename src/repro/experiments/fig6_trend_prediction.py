"""Figure 6: predicted vs simulated microarchitectural trends (vortex).

Using the sample-size-200 RBF model for vortex, predict CPI over an
(icache size x L2 latency) grid and compare against fresh detailed
simulations at the same points.  The paper finds the predictions closely
mirror the simulated trends, with the largest deviation at small icache +
high L2 latency (the steepest corner of the surface).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.trends import TrendGrid, interaction_grid, trend_comparison
from repro.experiments import common
from repro.experiments.fig1_response_surface import BASE_POINT, IL1_SIZES, L2_LATENCIES

BENCHMARK = "vortex"
SAMPLE_SIZE = 200


@dataclass
class Fig6Result:
    benchmark: str
    grid: TrendGrid
    monotonic_agreement: float
    max_trend_error: float


def run() -> Fig6Result:
    """Predict and simulate the interaction grid."""
    space = common.training_space()
    model = common.rbf_model(BENCHMARK, SAMPLE_SIZE).model
    grid = interaction_grid(
        space,
        common.runner(BENCHMARK).cpi,
        BASE_POINT,
        param_x="l2_lat",
        x_values=L2_LATENCIES,
        param_y="il1_size_kb",
        y_values=IL1_SIZES,
        model=model,
    )
    return Fig6Result(
        benchmark=BENCHMARK,
        grid=grid,
        monotonic_agreement=grid.monotonic_agreement(),
        max_trend_error=grid.max_trend_error(),
    )


def render(result: Fig6Result) -> str:
    """Plain-text rendering of predicted vs simulated trends (Fig. 6)."""
    lines = [
        f"Figure 6: predicted vs simulated CPI trends ({result.benchmark}, "
        "icache size x L2 latency)",
        trend_comparison(result.grid),
        "",
        f"trend direction agreement: {result.monotonic_agreement * 100:.0f}% of grid steps",
        f"max trend error: {result.max_trend_error:.1f}% "
        "(paper: close mirror, worst at small icache + high L2 latency)",
    ]
    return "\n".join(lines)
