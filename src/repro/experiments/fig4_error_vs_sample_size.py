"""Figure 4: model error vs sample size for mcf and twolf.

Mean, standard deviation and maximum of the absolute percentage CPI error
on the 50-point test set, at increasing sample sizes.  The paper's shape:
errors decrease with sample size and the improvement tapers past ~90 —
the same region as the discrepancy-curve knee (Figure 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.validation import ErrorReport
from repro.experiments import common
from repro.util.tables import format_table

BENCHMARKS = ("mcf", "twolf")

#: Sample size where the error curve tapers (the region of Figure 2's knee).
KNEE = 90


@dataclass
class Fig4Result:
    #: benchmark -> [(sample size, error report)]
    series: Dict[str, List[Tuple[int, ErrorReport]]]


def run() -> Fig4Result:
    """Build models at each size and collect error reports."""
    series: Dict[str, List[Tuple[int, ErrorReport]]] = {}
    for benchmark in BENCHMARKS:
        rows = []
        for size in common.SAMPLE_SIZES:
            result = common.rbf_model(benchmark, size)
            assert result.errors is not None
            rows.append((size, result.errors))
        series[benchmark] = rows
    return Fig4Result(series=series)


def tapering(result: Fig4Result, benchmark: str) -> Tuple[float, float]:
    """(improvement per extra sample before the knee, after the knee).

    Quantifies the paper's taper claim: the pre-knee slope of the mean
    error should be much steeper than the post-knee slope, with the knee
    at :data:`KNEE` samples.
    """
    rows = result.series[benchmark]
    before = [(s, e.mean) for s, e in rows if s <= KNEE]
    after = [(s, e.mean) for s, e in rows if s >= KNEE]
    def slope(pairs):
        if len(pairs) < 2:
            return 0.0
        (s0, e0), (s1, e1) = pairs[0], pairs[-1]
        return (e0 - e1) / (s1 - s0) if s1 != s0 else 0.0
    return slope(before), slope(after)


def render(result: Fig4Result) -> str:
    """Plain-text rendering of the error-vs-size tables (Fig. 4)."""
    lines = ["Figure 4: mean/std/max CPI error (%) vs sample size"]
    for benchmark, rows in result.series.items():
        lines.append("")
        lines.append(
            format_table(
                ["sample size", "mean %", "std %", "max %"],
                [(s, round(e.mean, 1), round(e.std, 1), round(e.max, 1)) for s, e in rows],
                title=benchmark,
            )
        )
        pre, post = tapering(result, benchmark)
        lines.append(
            f"error improvement per extra sample: {pre:.4f}%/pt before ~90, "
            f"{post:.4f}%/pt after (taper)"
        )
    return "\n".join(lines)
