"""Shared experiment configuration and memoised building blocks.

All experiments use the same root seeds, the same 50-point random test set
per benchmark (drawn from the paper's Table 2 restricted space), and the
same per-(benchmark, sample size) RBF models.  Models are memoised
in-process so e.g. the Figure 4 and Figure 7 harnesses don't refit what the
Table 3 harness already built; simulation results are memoised on disk by
:class:`repro.experiments.runner.SimulationRunner`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.core.design_space import DesignSpace, paper_design_space, paper_test_space
from repro.core.procedure import BuildRBFModel, ModelBuildResult
from repro.experiments.runner import SimulationRunner, resolve_jobs
from repro.models.linear import LinearInteractionModel
from repro.sampling.random_design import random_design

#: Root seed for sampling (LHS candidates, model building).
EXPERIMENT_SEED = 42
#: Seed for the independent random test designs.
TEST_SEED = 123
#: Size of the test set (the paper uses fifty points).
TEST_POINTS = 50
#: Sample sizes reported across the sample-size figures/tables.
SAMPLE_SIZES = (30, 50, 70, 90, 110, 200)
#: Method-parameter grids searched per model (paper Sec. 2.6).
P_MIN_GRID = (1, 2, 3)
ALPHA_GRID = (2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0, 12.0)

_runners: Dict[str, SimulationRunner] = {}
_test_sets: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
_builders: Dict[str, BuildRBFModel] = {}
_models: Dict[Tuple[str, int], ModelBuildResult] = {}
_linear_models: Dict[Tuple[str, int], LinearInteractionModel] = {}


@contextmanager
def stage(name: str, **attrs) -> Iterator[object]:
    """Span one pipeline stage and attribute any failure to it.

    Wraps the body in an ``obs`` span; when the body raises, the exception
    is recorded as a structured failure event naming the stage (and
    annotated with a note, see :func:`repro.obs.record_failure`) before it
    propagates.  This is how a fig/table exhibit that dies mid-run reports
    *which* stage failed rather than just a bare traceback.
    """
    with obs.span(name, **attrs) as sp:
        try:
            yield sp
        except Exception as exc:
            obs.record_failure(name, exc, **attrs)
            raise


def runner_cost_snapshot() -> Dict[str, object]:
    """Merged simulation-cost metrics across the shared memoised runners.

    ``{"benchmarks": [...], "metrics": <snapshot>}`` — the cumulative
    cost behind everything computed so far in this process, in the same
    snapshot shape :func:`repro.obs.snapshot_manifest` expects.  This is the
    public seam exhibit manifests and the run-history ledger read instead
    of poking at the memo tables.
    """
    metrics = obs.MetricsRegistry()
    for bench_runner in _runners.values():
        metrics.merge(bench_runner.metrics.snapshot())
    return {"benchmarks": sorted(_runners), "metrics": metrics.snapshot()}


def training_space() -> DesignSpace:
    """The paper's Table 1 training design space (fresh instance)."""
    return paper_design_space()


def runner(benchmark: str, jobs: Optional[int] = None) -> SimulationRunner:
    """The shared memoised simulation runner for ``benchmark``.

    ``jobs`` sets the parallel fan-out of the runner's ``metric`` path
    (``None`` defers to ``$REPRO_JOBS``, defaulting to serial).  Passing an
    explicit value retunes an already-memoised runner, so a harness can
    parallelise the grid mid-session without dropping the warm cache.
    """
    if benchmark not in _runners:
        _runners[benchmark] = SimulationRunner(benchmark, jobs=jobs)
    elif jobs is not None:
        _runners[benchmark].jobs = resolve_jobs(jobs)
    return _runners[benchmark]


def test_set(benchmark: str) -> Tuple[np.ndarray, np.ndarray]:
    """(physical test points, simulated CPIs) for ``benchmark``.

    Fifty independently random points from the Table 2 space, identical
    across all experiments touching the benchmark.
    """
    if benchmark not in _test_sets:
        with stage("test_set", benchmark=benchmark, points=TEST_POINTS):
            tspace = paper_test_space()
            unit = random_design(tspace, TEST_POINTS, seed=TEST_SEED)
            phys = tspace.decode(unit)
            cpi = runner(benchmark).cpi(phys)
        _test_sets[benchmark] = (phys, cpi)
    return _test_sets[benchmark]


def builder(benchmark: str) -> BuildRBFModel:
    """The shared BuildRBFModel procedure instance for ``benchmark``."""
    if benchmark not in _builders:
        _builders[benchmark] = BuildRBFModel(
            training_space(),
            runner(benchmark).cpi,
            seed=EXPERIMENT_SEED,
            p_min_grid=P_MIN_GRID,
            alpha_grid=ALPHA_GRID,
        )
    return _builders[benchmark]


def rbf_model(benchmark: str, sample_size: int) -> ModelBuildResult:
    """Memoised RBF model (with test-set error report) for one benchmark/size.

    The returned network is calibrated on its own training sample, so
    exhibits may call :meth:`~repro.models.base.Model.predict_with_provenance`
    directly; calibration only attaches an uncertainty record — predictions
    stay bitwise identical to the uncalibrated fit.
    """
    key = (benchmark, sample_size)
    if key not in _models:
        phys, cpi = test_set(benchmark)
        with stage("rbf_model", benchmark=benchmark, sample_size=sample_size):
            result = builder(benchmark).build(sample_size, phys, cpi)
            result.model.calibrate(result.unit_points, result.responses)
            _models[key] = result
    return _models[key]


def linear_model(benchmark: str, sample_size: int) -> LinearInteractionModel:
    """Memoised linear baseline fitted on the *same* LHS sample as the RBF.

    Per the paper's Sec. 4.2: the linear models use the identical
    space-filling samples, main effects + two-factor interactions, and AIC
    variable selection.
    """
    key = (benchmark, sample_size)
    if key not in _linear_models:
        result = rbf_model(benchmark, sample_size)
        with stage("linear_model", benchmark=benchmark,
                   sample_size=sample_size):
            _linear_models[key] = LinearInteractionModel.fit(
                result.unit_points, result.responses, criterion="aic"
            )
    return _linear_models[key]


def clear_memos() -> None:
    """Drop all in-process memoisation (used by tests)."""
    _runners.clear()
    _test_sets.clear()
    _builders.clear()
    _models.clear()
    _linear_models.clear()
