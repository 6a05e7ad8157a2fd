"""Cache-lifecycle and concurrency tests for the simulation runner.

Covers the correctness contracts behind the parallel experiment grid:
``REPRO_CACHE_DIR`` resolved at construction (not import) time, corrupt
cache recovery, mutation-safety of returned summaries, dirty-gated
flushes, merge-on-flush between concurrent runners, and bitwise equality
of the serial and parallel ``metric`` paths.
"""

import json
import multiprocessing

import numpy as np
import pytest

from repro.core.design_space import paper_design_space
from repro.experiments.runner import SimulationRunner, resolve_jobs

TRACE_LENGTH = 2000


def point(**overrides):
    base = {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }
    base.update(overrides)
    return base


def make_runner(cache_dir, **kwargs):
    kwargs.setdefault("trace_length", TRACE_LENGTH)
    return SimulationRunner("mcf", cache_dir=cache_dir, **kwargs)


class TestCacheDirResolution:
    def test_env_var_honoured_after_import(self, tmp_path, monkeypatch):
        # The bug fixed here: a default of ``default_cache_dir()`` froze
        # the directory at *import* time, ignoring later env changes.
        monkeypatch.chdir(tmp_path)
        late = tmp_path / "set-after-import"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(late))
        runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH)
        assert runner._cache_path.parent == late

    def test_default_is_cwd_cache(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH)
        assert runner._cache_path.resolve().parent == tmp_path.resolve() / ".repro_cache"

    def test_none_still_disables_disk_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                                  cache_dir=None)
        assert runner._cache_path is None


class TestJobsResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(2) == 2
        assert resolve_jobs() == 7

    def test_default_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_invalid_values_fail_loudly(self, monkeypatch):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError):
            resolve_jobs()

    def test_runner_reads_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert make_runner(tmp_path).jobs == 3


class TestMutationSafety:
    def test_fresh_result_is_a_copy(self, tmp_path):
        runner = make_runner(tmp_path)
        summary = runner.result_at(point())
        summary["cpi"] = -1.0
        assert runner.result_at(point())["cpi"] > 0

    def test_cached_result_is_a_copy(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.result_at(point())
        cached = runner.result_at(point())
        cached.clear()
        again = runner.result_at(point())
        assert again["cpi"] > 0 and "power" in again

    def test_mutation_never_reaches_disk(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.cpi(paper_design_space().as_array(point()))
        runner.result_at(point())["cpi"] = -1.0
        runner._dirty = 1  # force a rewrite from the in-memory cache
        runner._flush()
        payload = json.loads(runner._cache_path.read_text())
        assert all(entry["cpi"] > 0 for entry in payload.values())


class TestFlushDiscipline:
    def test_corrupt_cache_recovered_and_rewritten(self, tmp_path):
        probe = make_runner(tmp_path)
        probe._cache_path.write_text('{"half a json')
        runner = make_runner(tmp_path)
        assert runner._cache == {}
        runner.cpi(paper_design_space().as_array(point()))
        payload = json.loads(runner._cache_path.read_text())
        assert len(payload) == 1

    def test_clean_runner_never_rewrites(self, tmp_path):
        space = paper_design_space()
        make_runner(tmp_path).cpi(space.as_array(point()))
        warm = make_runner(tmp_path)
        warm._cache_path.unlink()  # any write would recreate it
        warm.cpi(space.as_array(point()))
        assert warm.cache_hits == 1 and warm.simulations_run == 0
        assert not warm._cache_path.exists()

    def test_no_stale_tmp_files_left(self, tmp_path):
        runner = make_runner(tmp_path)
        runner.cpi(paper_design_space().as_array(point()))
        assert not list(tmp_path.glob("*.tmp"))

    def test_interleaved_runners_union_on_flush(self, tmp_path):
        # Two runners over the same cache file, each flushing its own
        # simulation one after the other: the second flush must not drop
        # the first runner's entry.
        space = paper_design_space()
        a, b = make_runner(tmp_path), make_runner(tmp_path)
        a.result_at(point(l2_lat=12))
        b.result_at(point(l2_lat=18))
        merged = make_runner(tmp_path)
        assert len(merged._cache) == 2
        assert merged.cpi(np.vstack([
            space.as_array(point(l2_lat=12)), space.as_array(point(l2_lat=18)),
        ])).shape == (2,)
        assert merged.simulations_run == 0


def _simulate_and_flush(args):
    """Child-process worker: simulate one point and flush the shared cache.

    ``result_at`` flushes its own simulation, so the flush is held back
    while it runs: each process reaches the barrier with one unflushed
    entry, and the two flushes race.
    """
    cache_dir, l2_lat, barrier = args
    runner = SimulationRunner("mcf", trace_length=TRACE_LENGTH,
                              cache_dir=cache_dir)
    runner._flush = lambda: None
    runner.result_at(point(l2_lat=l2_lat))
    del runner._flush
    if barrier is not None:
        barrier.wait(timeout=60)  # line up the racy flushes
    runner._flush()
    return runner.simulations_run


class TestTwoProcessMerge:
    def test_concurrent_flushes_lose_nothing(self, tmp_path):
        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)  # shared by inheritance, not pickling
        procs = [
            ctx.Process(target=_simulate_and_flush,
                        args=((tmp_path, l2_lat, barrier),))
            for l2_lat in (12, 18)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=120)
        assert all(proc.exitcode == 0 for proc in procs)
        merged = make_runner(tmp_path)
        assert len(merged._cache) == 2  # neither process dropped the other


class TestParallelMetric:
    def grid(self):
        space = paper_design_space()
        return np.vstack([
            space.as_array(point(l2_lat=lat, rob_size=rob))
            for lat in (12, 18) for rob in (48, 96)
        ] + [space.as_array(point(l2_lat=12, rob_size=48))])  # duplicate row

    def test_parallel_matches_serial_bitwise(self, tmp_path):
        serial = make_runner(tmp_path / "serial", jobs=1)
        parallel = make_runner(tmp_path / "parallel", jobs=2)
        expected = serial.cpi(self.grid())
        got = parallel.cpi(self.grid())
        assert np.array_equal(expected, got)  # exact, not approximate
        assert parallel.jobs == 2

    def test_parallel_stats_match_serial(self, tmp_path):
        serial = make_runner(tmp_path / "serial", jobs=1)
        parallel = make_runner(tmp_path / "parallel", jobs=2)
        serial.cpi(self.grid())
        parallel.cpi(self.grid())
        assert parallel.simulations_run == serial.simulations_run == 4
        assert parallel.cache_hits == serial.cache_hits == 1
        assert parallel.stats()["wall_time_s"] > 0

    def test_parallel_fills_the_shared_cache(self, tmp_path):
        make_runner(tmp_path, jobs=2).cpi(self.grid())
        rerun = make_runner(tmp_path, jobs=2)
        rerun.cpi(self.grid())
        assert rerun.simulations_run == 0
        assert rerun.cache_hits == 5

    def test_jobs_capped_by_task_count(self, tmp_path):
        # More workers than uncached points must not deadlock or error.
        space = paper_design_space()
        runner = make_runner(tmp_path, jobs=8)
        values = runner.cpi(np.vstack([
            space.as_array(point(l2_lat=12)), space.as_array(point(l2_lat=18)),
        ]))
        assert values.shape == (2,) and (values > 0).all()
