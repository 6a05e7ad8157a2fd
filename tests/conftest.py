"""Shared fixtures: scratch store roots, small design spaces, cheap
synthetic responses, traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design_space import DesignSpace, Parameter, paper_design_space
from repro.simulator.config import ProcessorConfig
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES


@pytest.fixture(autouse=True)
def _scratch_store_roots(tmp_path_factory, monkeypatch):
    """Point the results and cache roots at a per-test scratch directory.

    Without this, a test that runs a command writes ledger records,
    registry entries, manifests and simulation caches into the working
    tree's ``results/`` and ``.repro_cache/``.  Tests that set or unset
    the variables themselves override this.
    """
    root = tmp_path_factory.mktemp("store")
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(root / "results"))
    monkeypatch.setenv("REPRO_CACHE_DIR", str(root / "cache"))


@pytest.fixture
def rng():
    return np.random.default_rng(7)


@pytest.fixture
def small_space():
    """A 3-parameter space: one continuous, one leveled-log, one fraction."""
    return DesignSpace(
        [
            Parameter("depth", 4, 20, None, "linear", integer=True),
            Parameter("size_kb", 8, 64, 4, "log", integer=True),
            Parameter("frac", 0.25, 0.75, None, "linear", fraction_of="depth"),
        ],
        name="small",
    )


@pytest.fixture
def paper_space():
    return paper_design_space()


@pytest.fixture
def quadratic_response():
    """A smooth non-linear response on the unit cube, with interaction."""

    def f(unit_points: np.ndarray) -> np.ndarray:
        unit_points = np.atleast_2d(unit_points)
        x = unit_points[:, 0]
        y = unit_points[:, 1] if unit_points.shape[1] > 1 else 0.0
        return 1.0 + 2.0 * x**2 + y + 1.5 * x * y

    return f


@pytest.fixture
def tiny_trace():
    """A short deterministic mcf-profile trace for simulator tests."""
    return generate_trace(PROFILES["mcf"], 2000, seed=11)


@pytest.fixture
def default_config():
    return ProcessorConfig()
