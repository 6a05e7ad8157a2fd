"""Index of all reproduced tables and figures.

Maps each experiment id to its paper location, the module that implements
it, and the benchmark file that regenerates it.  Used by documentation and
by the meta-tests that assert every paper exhibit has a harness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Experiment:
    """One reproduced exhibit of the paper."""

    exhibit: str  # e.g. "Figure 4"
    title: str
    module: str  # repro.experiments module implementing it
    bench: str  # benchmark file regenerating it
    workloads: str  # benchmarks involved


EXPERIMENTS: Dict[str, Experiment] = {
    "fig1": Experiment(
        "Figure 1",
        "CPI response surface (il1 size x L2 latency) motivating non-linear models",
        "repro.experiments.fig1_response_surface",
        "benchmarks/test_fig1_response_surface.py",
        "vortex",
    ),
    "fig2": Experiment(
        "Figure 2",
        "Best obtained L2-star discrepancy vs number of simulations (knee ~90)",
        "repro.experiments.fig2_discrepancy",
        "benchmarks/test_fig2_discrepancy_knee.py",
        "(sampling only)",
    ),
    "fig3": Experiment(
        "Figure 3",
        "RBF network structure (schematic in the paper; actual trained network here)",
        "repro.experiments.fig3_network",
        "benchmarks/test_fig3_network_structure.py",
        "mcf",
    ),
    "fig4": Experiment(
        "Figure 4",
        "Mean/std/max model error vs sample size, tapering past the knee",
        "repro.experiments.fig4_error_vs_sample_size",
        "benchmarks/test_fig4_error_vs_sample_size.py",
        "mcf, twolf",
    ),
    "fig5": Experiment(
        "Figure 5",
        "Distribution of parameter values at regression-tree splits",
        "repro.experiments.fig5_split_values",
        "benchmarks/test_fig5_split_values.py",
        "mcf",
    ),
    "fig6": Experiment(
        "Figure 6",
        "Predicted vs simulated trends for the icache x L2-latency interaction",
        "repro.experiments.fig6_trend_prediction",
        "benchmarks/test_fig6_trend_prediction.py",
        "vortex",
    ),
    "fig7": Experiment(
        "Figure 7",
        "Linear vs RBF network predictive accuracy across sample sizes",
        "repro.experiments.fig7_linear_vs_rbf",
        "benchmarks/test_fig7_linear_vs_rbf.py",
        "mcf, twolf, vortex",
    ),
    "table3": Experiment(
        "Table 3",
        "Error diagnostics for eight benchmarks at sample size 200 (avg 2.8%)",
        "repro.experiments.table3_error_diagnostics",
        "benchmarks/test_table3_error_diagnostics.py",
        "all eight",
    ),
    "table4": Experiment(
        "Table 4",
        "Best p_min/alpha and number of RBF centers vs sample size",
        "repro.experiments.table4_rbf_diagnostics",
        "benchmarks/test_table4_rbf_diagnostics.py",
        "mcf",
    ),
    "table5": Experiment(
        "Table 5",
        "Most significant regression-tree splitting points",
        "repro.experiments.table5_significant_splits",
        "benchmarks/test_table5_significant_splits.py",
        "mcf, vortex",
    ),
    "stacks": Experiment(
        "CPI stacks",
        "Cycle accounting: CPI stacks at contrasting design points (exact sums)",
        "repro.experiments.stacks_cpi_breakdown",
        "benchmarks/test_stacks_cpi_breakdown.py",
        "all eight",
    ),
}
