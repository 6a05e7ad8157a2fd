"""Figure 7: predictive accuracy of linear vs RBF network models.

For three benchmarks and increasing sample sizes, both model families are
fitted on the *same* discrepancy-optimised LHS samples and scored on the
same 50-point test set.  The paper's result: the non-linear models win
consistently at every size; for mcf at n=200 the linear model's mean error
is 6.5% vs 2.1% for the RBF network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.design_space import paper_design_space
from repro.core.validation import prediction_errors
from repro.experiments import common
from repro.util.tables import format_table

BENCHMARKS = ("mcf", "twolf", "vortex")


@dataclass
class Fig7Result:
    #: benchmark -> [(sample size, linear mean %, rbf mean %)]
    series: Dict[str, List[Tuple[int, float, float]]]

    def rbf_wins(self, benchmark: str) -> int:
        """Number of sample sizes at which the RBF model beats linear."""
        return sum(1 for _, lin, rbf in self.series[benchmark] if rbf < lin)

    def final_gap(self, benchmark: str) -> float:
        """linear / rbf mean-error ratio at the largest sample size."""
        _, lin, rbf = self.series[benchmark][-1]
        return lin / rbf if rbf else float("inf")


def run() -> Fig7Result:
    """Fit linear and RBF models at each size and score both."""
    space = paper_design_space()
    series: Dict[str, List[Tuple[int, float, float]]] = {}
    for benchmark in BENCHMARKS:
        phys, cpi = common.test_set(benchmark)
        unit_test = space.encode(phys)
        rows = []
        for size in common.SAMPLE_SIZES:
            rbf_result = common.rbf_model(benchmark, size)
            assert rbf_result.errors is not None
            linear = common.linear_model(benchmark, size)
            lin_err = prediction_errors(cpi, linear.predict(unit_test))
            rows.append((size, lin_err.mean, rbf_result.errors.mean))
        series[benchmark] = rows
    return Fig7Result(series=series)


def render(result: Fig7Result) -> str:
    """Plain-text rendering of the comparison tables (Fig. 7)."""
    lines = ["Figure 7: linear vs RBF network mean CPI error (%)"]
    for benchmark, rows in result.series.items():
        lines.append("")
        lines.append(
            format_table(
                ["sample size", "linear %", "RBF %"],
                [(s, round(l, 1), round(r, 1)) for s, l, r in rows],
                title=benchmark,
            )
        )
        lines.append(
            f"RBF wins at {result.rbf_wins(benchmark)}/{len(rows)} sizes; "
            f"final linear/RBF error ratio {result.final_gap(benchmark):.1f}x "
            "(paper mcf: 6.5% vs 2.1% ~ 3.1x)"
        )
    return "\n".join(lines)
