"""Regenerates Figure 5: distribution of tree split values for mcf.

Paper shape: the memory-system parameters split most often; split values
cluster where the response bends (e.g. low L2 sizes), and core-side
parameters split rarely.
"""

import pytest

from repro.experiments import common, fig5_split_values as exp
from repro.experiments.report import emit
from repro.analysis.splits import split_value_distribution
from repro.models.tree import RegressionTree

MEMORY_PARAMS = ("l2_lat", "l2_size_kb", "dl1_lat", "dl1_size_kb")
CORE_PARAMS = ("iq_frac", "lsq_frac")


@pytest.fixture(scope="module")
def result():
    return exp.run()


def test_fig5_split_values(result, benchmark):
    mcf = common.rbf_model("mcf", exp.SAMPLE_SIZE)
    tree = RegressionTree(mcf.unit_points, mcf.responses, p_min=1)
    space = common.training_space()
    benchmark(lambda: split_value_distribution(tree.splits(), space))

    emit("fig5_split_values", exp.render(result))

    # Among the significant (earliest) splits, memory parameters dominate;
    # deep splits fit residual noise and spread across all parameters.
    counts = result.significant_counts()
    memory_splits = sum(counts[p] for p in MEMORY_PARAMS)
    core_splits = sum(counts[p] for p in CORE_PARAMS)
    assert memory_splits > core_splits
    assert memory_splits >= sum(counts.values()) * 0.4
    # All split values lie within physical parameter ranges.
    space = common.training_space()
    for name, values in result.distribution.items():
        p = space[name]
        assert all(p.low <= v <= p.high for v in values), name
