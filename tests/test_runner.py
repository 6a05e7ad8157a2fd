"""Tests for the memoised simulation runner."""

import json
import signal

import numpy as np
import pytest

from repro.core.design_space import paper_design_space
from repro.experiments.runner import SimulationRunner


@pytest.fixture
def point():
    return {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }


def make_runner(tmp_path, **kwargs):
    kwargs.setdefault("trace_length", 2000)
    kwargs.setdefault("cache_dir", tmp_path)
    return SimulationRunner("mcf", **kwargs)


class TestMemoisation:
    def test_repeat_point_uses_memory_cache(self, tmp_path, point):
        runner = make_runner(tmp_path)
        first = runner.result_at(point)
        assert runner.simulations_run == 1
        second = runner.result_at(point)
        assert runner.simulations_run == 1
        assert runner.cache_hits == 1
        assert first == second

    def test_disk_cache_survives_process(self, tmp_path, point):
        runner = make_runner(tmp_path)
        space = paper_design_space()
        runner.cpi(space.as_array(point))
        fresh = make_runner(tmp_path)
        fresh.cpi(space.as_array(point))
        assert fresh.simulations_run == 0
        assert fresh.cache_hits == 1

    def test_result_at_reaches_the_disk_cache(self, tmp_path, point):
        summary = make_runner(tmp_path).result_at(point)
        fresh = make_runner(tmp_path)
        assert fresh.result_at(point) == summary
        assert fresh.simulations_run == 0
        assert fresh.cache_hits == 1

    def test_cache_file_is_json(self, tmp_path, point):
        runner = make_runner(tmp_path)
        space = paper_design_space()
        runner.cpi(space.as_array(point))
        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert all("cpi" in v for v in payload.values())

    def test_corrupt_cache_ignored(self, tmp_path, point):
        first = make_runner(tmp_path)
        first._cache_path.write_text("{not json")
        runner = make_runner(tmp_path)
        runner.result_at(point)
        assert runner.simulations_run == 1

    def test_no_disk_cache(self, point):
        runner = SimulationRunner("mcf", trace_length=2000, cache_dir=None)
        runner.result_at(point)
        runner.result_at(point)
        assert runner.simulations_run == 1  # memory memoisation still works


class TestMetrics:
    def test_cpi_vectorised(self, tmp_path, point):
        runner = make_runner(tmp_path)
        space = paper_design_space()
        pts = np.vstack([space.as_array(point), space.as_array(point)])
        values = runner.cpi(pts)
        assert values.shape == (2,)
        assert values[0] == values[1] > 0

    def test_power_metric(self, tmp_path, point):
        runner = make_runner(tmp_path)
        space = paper_design_space()
        power = runner.power(space.as_array(point))
        assert power[0] > 0

    def test_distinct_trace_lengths_distinct_caches(self, tmp_path, point):
        space = paper_design_space()
        a = make_runner(tmp_path, trace_length=1000)
        b = make_runner(tmp_path, trace_length=2000)
        a.cpi(space.as_array(point))
        b.cpi(space.as_array(point))
        assert len(list(tmp_path.glob("*.json"))) == 2

    def test_repr(self, tmp_path):
        assert "mcf" in repr(make_runner(tmp_path))


class TestFingerprint:
    def test_fingerprint_stable_across_instances(self, tmp_path):
        a = make_runner(tmp_path)
        b = make_runner(tmp_path)
        assert a._cache_path == b._cache_path

    def test_fingerprint_differs_across_benchmarks(self, tmp_path):
        a = SimulationRunner("mcf", trace_length=2000, cache_dir=tmp_path)
        b = SimulationRunner("twolf", trace_length=2000, cache_dir=tmp_path)
        assert a._cache_path != b._cache_path

    def test_fingerprint_differs_across_seeds(self, tmp_path):
        a = SimulationRunner("mcf", trace_length=2000, seed=0, cache_dir=tmp_path)
        b = SimulationRunner("mcf", trace_length=2000, seed=1, cache_dir=tmp_path)
        assert a._cache_path != b._cache_path


def test_pool_workers_keep_the_default_sigterm_action():
    # ``repro.cli.main`` installs a SIGTERM handler that forked workers
    # would inherit; the pool initializer drops it.
    from concurrent.futures import ProcessPoolExecutor

    from repro.experiments import runner

    def terminate(signum, frame):
        raise KeyboardInterrupt

    previous = signal.signal(signal.SIGTERM, terminate)
    try:
        with ProcessPoolExecutor(1, initializer=runner._worker_init,
                                 initargs=("mcf", 64, 0)) as pool:
            inherited = pool.submit(signal.getsignal, signal.SIGTERM).result()
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert inherited == signal.SIG_DFL
