"""Figure 5: distribution of parameter values at tree splits (mcf).

A different view of the Table 5 tree: for each parameter, every boundary
value at which the mcf regression tree splits.  Parameters the program is
sensitive to split often (and at multiple values); insignificant ones split
rarely or never.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.splits import split_value_distribution
from repro.experiments import common
from repro.models.tree import RegressionTree
from repro.util.tables import format_table

BENCHMARK = "mcf"
SAMPLE_SIZE = 200


#: How many of the earliest (breadth-first) splits count as "significant".
#: With p_min = 1 the tree splits all the way down to single sample points;
#: the deep splits fit residual noise, while the early ones carry the
#: bottleneck structure the paper's figure is about.
SIGNIFICANT_SPLITS = 40


@dataclass
class Fig5Result:
    benchmark: str
    distribution: Dict[str, List[float]]  # all splits
    significant: Dict[str, List[float]]  # earliest SIGNIFICANT_SPLITS only
    total_splits: int

    def significant_counts(self) -> Dict[str, int]:
        return {name: len(vals) for name, vals in self.significant.items()}


def run() -> Fig5Result:
    """Build the tree and collect its split-value distribution."""
    result = common.rbf_model(BENCHMARK, SAMPLE_SIZE)
    tree = RegressionTree(result.unit_points, result.responses, p_min=result.info.p_min)
    space = common.training_space()
    splits = tree.splits()
    distribution = split_value_distribution(splits, space)
    significant = split_value_distribution(splits[:SIGNIFICANT_SPLITS], space)
    return Fig5Result(
        benchmark=BENCHMARK,
        distribution=distribution,
        significant=significant,
        total_splits=sum(len(v) for v in distribution.values()),
    )


def render(result: Fig5Result) -> str:
    """Plain-text rendering of the split distribution (Fig. 5)."""
    rows = []
    sig_counts = result.significant_counts()
    for name, values in result.distribution.items():
        sample = ", ".join(f"{v:.3g}" for v in sorted(values)[:6])
        if len(values) > 6:
            sample += ", ..."
        rows.append((name, sig_counts[name], len(values), sample))
    rows.sort(key=lambda r: (-r[1], -r[2]))
    table = format_table(
        ["parameter", f"#splits (first {SIGNIFICANT_SPLITS})", "#splits (all)",
         "split values (sorted, first 6)"],
        rows,
        title=(
            f"Figure 5: tree split-value distribution for {result.benchmark} "
            f"({result.total_splits} splits total)"
        ),
    )
    note = (
        "paper: memory-system parameters (L2 latency/size, dl1 latency) split "
        "most often for mcf"
    )
    return f"{table}\n{note}"
