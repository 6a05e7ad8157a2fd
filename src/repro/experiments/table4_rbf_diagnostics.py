"""Table 4: RBF model diagnostics for mcf across sample sizes.

For each sample size, the best method parameters found by the AICc grid
search (``p_min``, ``alpha``) and the number of RBF centers selected.  The
paper's observations: best ``p_min`` is typically 1, radii are several
times the tree-region size, and the number of centers stays well below
half the sample size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.experiments import common
from repro.models.rbf import RBFBuildInfo
from repro.util.tables import format_table

BENCHMARK = "mcf"


@dataclass
class Table4Result:
    benchmark: str
    rows: List[Tuple[int, RBFBuildInfo]]  # (sample size, best build info)

    def centers_below_half(self) -> bool:
        """Paper's observation: #centers < sample size / 2 throughout."""
        return all(info.num_centers < size / 2 for size, info in self.rows)


def run() -> Table4Result:
    """Collect best (p_min, alpha, centers) per sample size."""
    rows = []
    for size in common.SAMPLE_SIZES:
        result = common.rbf_model(BENCHMARK, size)
        rows.append((size, result.info))
    return Table4Result(benchmark=BENCHMARK, rows=rows)


def render(result: Table4Result) -> str:
    """Plain-text rendering of the Table 4 rows."""
    sizes = [size for size, _ in result.rows]
    table = format_table(
        ["Sample size"] + sizes,
        [
            ["p_min"] + [info.p_min for _, info in result.rows],
            ["alpha"] + [info.alpha for _, info in result.rows],
            ["Number of RBF centers"] + [info.num_centers for _, info in result.rows],
        ],
        title=f"Table 4: RBF model diagnostics for {result.benchmark}",
    )
    paper = (
        "paper (mcf): p_min 1-2; alpha 5-12; centers 15/16/22/27/40/76 at "
        "sizes 30/50/70/90/110/200 — always well below half the sample"
    )
    return f"{table}\n{paper}"
