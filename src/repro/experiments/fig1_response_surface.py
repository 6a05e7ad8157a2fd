"""Figure 1: the CPI response surface that motivates non-linear models.

The paper varies the L1 instruction cache size and the L2 cache latency for
*vortex* with everything else fixed, and shows a curved surface: L2 latency
matters much more when the instruction cache is small (more fetch misses
reach the L2).  A linear model cannot represent that interaction.

The experiment reports the simulated surface plus a curvature statistic:
the CPI cost of high L2 latency at the smallest vs the largest icache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.trends import TrendGrid, interaction_grid, trend_comparison
from repro.experiments import common

BENCHMARK = "vortex"
IL1_SIZES = [8, 16, 32, 64]
L2_LATENCIES = [5, 8, 11, 14, 17, 20]

#: All other parameters pinned mid-range (physical units).
BASE_POINT: Dict[str, float] = {
    "pipe_depth": 15,
    "rob_size": 76,
    "iq_frac": 0.5,
    "lsq_frac": 0.5,
    "l2_size_kb": 1448,
    "l2_lat": 12,
    "il1_size_kb": 32,
    "dl1_size_kb": 32,
    "dl1_lat": 2,
}


@dataclass
class Fig1Result:
    grid: TrendGrid
    l2_lat_cost_small_il1: float  # CPI(lat=20) - CPI(lat=5) at il1 = 8KB
    l2_lat_cost_large_il1: float  # same at il1 = 64KB
    interaction_ratio: float  # small-icache cost / large-icache cost


def run() -> Fig1Result:
    """Simulate the (il1_size, l2_lat) surface."""
    space = common.training_space()
    grid = interaction_grid(
        space,
        common.runner(BENCHMARK).cpi,
        BASE_POINT,
        param_x="l2_lat",
        x_values=L2_LATENCIES,
        param_y="il1_size_kb",
        y_values=IL1_SIZES,
    )
    small = float(grid.simulated[0, -1] - grid.simulated[0, 0])
    large = float(grid.simulated[-1, -1] - grid.simulated[-1, 0])
    return Fig1Result(
        grid=grid,
        l2_lat_cost_small_il1=small,
        l2_lat_cost_large_il1=large,
        interaction_ratio=small / large if large else float("inf"),
    )


def render(result: Fig1Result) -> str:
    """Plain-text rendering of the surface and its interaction ratio."""
    lines: List[str] = [
        "Figure 1: CPI response surface (vortex), il1_size x L2 latency",
        trend_comparison(result.grid),
        "",
        f"L2-latency CPI cost at il1=8KB : {result.l2_lat_cost_small_il1:+.3f}",
        f"L2-latency CPI cost at il1=64KB: {result.l2_lat_cost_large_il1:+.3f}",
        f"interaction ratio (small/large): {result.interaction_ratio:.2f}x "
        "(paper: latency hurts much more with a small icache)",
    ]
    return "\n".join(lines)
