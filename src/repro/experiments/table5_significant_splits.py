"""Table 5: the most significant regression-tree splitting points.

The earliest (breadth-first) splits of the regression tree built on the
sample-size-200 data, for mcf and vortex.  The paper's qualitative result:
mcf splits first on memory-system parameters (L2 latency, dl1 latency, L2
size, then ROB size and pipeline depth), while vortex splits on dl1
latency, icache size and issue-queue size — the trees expose each
program's bottlenecks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.splits import SignificantSplit, significant_splits
from repro.experiments import common
from repro.models.tree import RegressionTree
from repro.util.tables import format_table

BENCHMARKS = ("mcf", "vortex")
SAMPLE_SIZE = 200
NUM_SPLITS = 8

#: The paper's Table 5 parameter sequences, for side-by-side comparison.
PAPER_SPLITS = {
    "mcf": ["l2_lat", "dl1_lat", "l2_size_kb", "l2_size_kb", "l2_size_kb",
            "dl1_lat", "rob_size", "pipe_depth"],
    "vortex": ["dl1_lat", "il1_size_kb", "iq_frac", "pipe_depth", "l2_lat",
               "iq_frac", "l2_lat", "rob_size"],
}


@dataclass
class Table5Result:
    splits: Dict[str, List[SignificantSplit]]
    sample_size: int

    def parameters(self, benchmark: str) -> List[str]:
        return [s.parameter for s in self.splits[benchmark]]

    def overlap_with_paper(self, benchmark: str) -> float:
        """Fraction of the paper's split-parameter *set* that also appears
        in ours (order-insensitive; the precise order depends on the
        simulator)."""
        paper = set(PAPER_SPLITS.get(benchmark, []))
        if not paper:
            return 1.0
        ours = set(self.parameters(benchmark))
        return len(paper & ours) / len(paper)


def run() -> Table5Result:
    """Build trees and extract their earliest splits."""
    space = common.training_space()
    splits: Dict[str, List[SignificantSplit]] = {}
    for benchmark in BENCHMARKS:
        result = common.rbf_model(benchmark, SAMPLE_SIZE)
        tree = RegressionTree(
            result.unit_points, result.responses, p_min=result.info.p_min
        )
        splits[benchmark] = significant_splits(tree, space, count=NUM_SPLITS)
    return Table5Result(splits=splits, sample_size=SAMPLE_SIZE)


def render(result: Table5Result) -> str:
    """Plain-text rendering of the Table 5 split tables."""
    lines = [f"Table 5: most significant splits (sample size {result.sample_size})"]
    for benchmark, splits in result.splits.items():
        lines.append("")
        lines.append(
            format_table(
                ["Number"] + [s.rank for s in splits],
                [
                    ["parameter"] + [s.parameter for s in splits],
                    ["value"] + [s.value_label() for s in splits],
                    ["depth"] + [s.depth for s in splits],
                ],
                title=benchmark,
            )
        )
        paper_seq = PAPER_SPLITS.get(benchmark)
        if paper_seq:
            lines.append(f"paper order: {', '.join(paper_seq)}")
            lines.append(
                f"parameter-set overlap with paper: "
                f"{result.overlap_with_paper(benchmark) * 100:.0f}%"
            )
    return "\n".join(lines)
