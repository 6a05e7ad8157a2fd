"""Table 3: error diagnostics of the predictive models at sample size 200.

Mean, maximum and standard deviation of the absolute percentage CPI error
on the 50-point random test set, for all eight benchmarks.  The paper's
headline numbers: 2.8% mean error averaged across benchmarks, 17% worst
case, with the FP benchmarks (equake, ammp) showing the lowest maxima.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.core.validation import ErrorReport
from repro.experiments import common
from repro.util.tables import format_table
from repro.workloads.spec2000 import benchmark_names, spec_label

SAMPLE_SIZE = 200


@dataclass
class Table3Result:
    reports: Dict[str, ErrorReport]
    sample_size: int

    @property
    def average_mean_error(self) -> float:
        return sum(r.mean for r in self.reports.values()) / len(self.reports)

    @property
    def worst_max_error(self) -> float:
        return max(r.max for r in self.reports.values())


def run() -> Table3Result:
    """Build all eight models at the target size and collect errors."""
    reports = {}
    for benchmark in benchmark_names():
        result = common.rbf_model(benchmark, SAMPLE_SIZE)
        assert result.errors is not None
        reports[benchmark] = result.errors
    return Table3Result(reports=reports, sample_size=SAMPLE_SIZE)


def render(result: Table3Result) -> str:
    """Plain-text rendering of the Table 3 rows (with bootstrap CIs)."""
    rows: List[tuple] = []
    for b, r in result.reports.items():
        ci = r.mean_ci()
        ci_txt = f"[{ci[0]:.1f}, {ci[1]:.1f}]" if ci else ""
        rows.append((spec_label(b), round(r.mean, 1), round(r.max, 1),
                     round(r.std, 1), ci_txt))
    rows.append(("Average", round(result.average_mean_error, 1), "", "", ""))
    table = format_table(
        ["Benchmark", "mean", "max", "std", "95% CI (mean)"],
        rows,
        title=f"Table 3: CPI error diagnostics (%) at sample size {result.sample_size}",
    )
    paper = (
        "paper: mean 2.8% avg (mcf 2.1, crafty 2.9, parser 2.2, perlbmk 4.0, "
        "vortex 3.4, twolf 3.2, equake 1.9, ammp 2.5); max <= 17%"
    )
    return f"{table}\n{paper}"
