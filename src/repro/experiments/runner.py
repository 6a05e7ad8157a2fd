"""Simulation runner with on-disk memoisation and a parallel backend.

Every experiment needs the same primitive: "CPI of benchmark B at physical
design point x".  :class:`SimulationRunner` provides it as a vectorised
response function compatible with :class:`repro.core.procedure.BuildRBFModel`,
and memoises results on disk (keyed by benchmark, trace length, seed and the
full processor configuration) so the ~4000-simulation experiment grid is
paid for once per machine, not once per pytest invocation.

Uncached design points can be fanned out over a
:class:`concurrent.futures.ProcessPoolExecutor` (``jobs`` parameter, or the
``REPRO_JOBS`` environment variable; default serial).  The trace is built
once per worker process, results are merged back into the memo cache, and
the parallel path is bitwise-identical to the serial one: the simulator is
deterministic given (config, trace), and both paths run exactly the same
code on exactly the same trace.

The disk cache is a :mod:`repro.util.store` JSON object: flushes are
dirty-gated (a clean runner never rewrites the file) and merge under the
store's lock, so concurrent runners keep each other's simulations.
"""

from __future__ import annotations

import os
import signal
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.core.design_space import DesignSpace, paper_design_space
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import Simulator
from repro.util import store
from repro.workloads.spec2000 import DEFAULT_TRACE_LENGTH, get_trace

_JOBS_ENV = "REPRO_JOBS"

#: Sentinel default for ``cache_dir``: "resolve
#: :func:`repro.util.store.cache_dir` at construction time".  A call
#: expression in the parameter default would freeze ``$REPRO_CACHE_DIR``
#: at import time (lint rule API002).
_UNSET: Any = object()


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve the worker-count knob: explicit value, ``$REPRO_JOBS``, or 1.

    ``None`` means "consult the environment"; a missing/empty ``REPRO_JOBS``
    falls back to 1 (serial).  Raises :class:`ValueError` for non-integer or
    non-positive settings so misconfiguration fails loudly, not silently.
    """
    if jobs is None:
        raw = os.environ.get(_JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"{_JOBS_ENV}={raw!r} is not an integer")
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


def _summarize(result) -> Dict[str, float]:
    """The cached per-simulation summary extracted from a ``SimResult``."""
    return {
        "cpi": result.cpi,
        "power": result.power,
        "energy": result.energy,
        "il1_miss_rate": result.il1_miss_rate,
        "dl1_miss_rate": result.dl1_miss_rate,
        "l2_miss_rate": result.l2_miss_rate,
        "branch_mispredict_rate": result.branch_mispredict_rate,
    }


#: Per-worker-process trace, built once by :func:`_worker_init`.
_WORKER_TRACE = None

#: Whether worker processes should record spans/metrics for the parent.
_WORKER_OBS = False


def _worker_init(benchmark: str, trace_length: int, seed: int,
                 trace_enabled: bool = False) -> None:
    """Pool initializer: build the benchmark trace once per worker process.

    ``prepare()`` decodes the per-trace invariants (column lists, line
    ids) here, so every simulation the worker runs reuses them.  A
    worker forked from the CLI drops its SIGTERM handler: only the
    parent turns the signal into an exception.
    """
    global _WORKER_TRACE, _WORKER_OBS
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _WORKER_TRACE = get_trace(benchmark, trace_length, seed).prepare()
    _WORKER_OBS = bool(trace_enabled)


def _worker_simulate(
    task: Tuple[Any, Dict[str, int]]
) -> Tuple[Any, Dict[str, float], Optional[Dict[str, Any]]]:
    """Pool task: simulate one ``(key, config-kwargs)`` pair.

    Returns ``(key, summary, obs_payload)``.  When the parent enabled
    tracing, the simulation runs under a worker-local
    :class:`repro.obs.Collector` and the third element carries its span
    tree and metrics (plain JSON) for the parent to graft into the live
    trace; otherwise it is ``None``.
    """
    key, kwargs = task
    if not _WORKER_OBS:
        result = Simulator(ProcessorConfig(**kwargs)).run(_WORKER_TRACE)
        return key, _summarize(result), None
    with obs.collecting() as collector:
        result = Simulator(ProcessorConfig(**kwargs)).run(_WORKER_TRACE)
    return key, _summarize(result), collector.payload()


def _fan_out(
    benchmark: str,
    trace_length: int,
    seed: int,
    tasks: Iterable[Tuple[Any, Dict[str, int]]],
    jobs: int,
) -> Dict[Any, Dict[str, float]]:
    """Simulate ``(key, config-kwargs)`` tasks; ``{key: summary}`` in task order.

    With ``jobs > 1`` the tasks run on a process pool that builds the trace
    once per worker, and under tracing each worker's spans and metrics are
    adopted into the caller's open span, tagged ``worker: true``.  Otherwise
    they run serially on one prepared trace.  Both paths run the same code
    on the same trace, so they are bitwise-identical.
    """
    if jobs <= 1:
        trace = get_trace(benchmark, trace_length, seed).prepare()
        return {key: _summarize(Simulator(ProcessorConfig(**kwargs)).run(trace))
                for key, kwargs in tasks}
    collector = obs.current()
    results = {}
    with ProcessPoolExecutor(
        max_workers=jobs,
        initializer=_worker_init,
        initargs=(benchmark, trace_length, seed, obs.enabled()),
    ) as pool:
        for key, summary, payload in pool.map(_worker_simulate, tasks):
            results[key] = summary
            if collector is not None:
                collector.adopt(payload, attrs={"worker": True})
    return results


def simulate_configs(
    benchmark: str,
    configs: Sequence[ProcessorConfig],
    trace_length: int = DEFAULT_TRACE_LENGTH,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> List[Dict[str, float]]:
    """Simulate explicit configurations for one benchmark, optionally in parallel.

    Returns one summary dict per configuration, in input order.  ``jobs``
    follows :func:`resolve_jobs`; with more than one worker and more than
    one configuration the simulations fan out over a process pool (the
    trace is built once per worker), which is bitwise-identical to the
    serial path.  Used by ``repro simulate --jobs`` grid sweeps.
    """
    if not configs:
        return []
    jobs = min(resolve_jobs(jobs), len(configs))
    tasks = [(index, config.as_dict()) for index, config in enumerate(configs)]
    with obs.span("simulate_configs", benchmark=benchmark,
                  configs=len(configs), jobs=jobs):
        results = _fan_out(benchmark, trace_length, seed, tasks, jobs)
    return list(results.values())


class SimulationRunner:
    """Memoised detailed simulation at physical design points.

    Parameters
    ----------
    benchmark:
        Workload name (see :func:`repro.workloads.benchmark_names`).
    space:
        Design space whose parameter order physical points follow
        (defaults to the paper's Table 1 space).
    trace_length, seed:
        Trace construction parameters (part of the cache key).
    cache_dir:
        Directory for the JSON result cache.  Defaults to
        :func:`repro.util.store.cache_dir`, resolved *at construction
        time* so a ``REPRO_CACHE_DIR`` set after import is honoured;
        ``None`` disables disk caching (in-memory memoisation still
        applies).
    jobs:
        Worker processes for :meth:`metric` fan-out.  ``None`` consults
        ``$REPRO_JOBS`` and falls back to 1 (serial), so the default
        behaviour — and every seed test — is unchanged.
    """

    def __init__(
        self,
        benchmark: str,
        space: Optional[DesignSpace] = None,
        trace_length: int = DEFAULT_TRACE_LENGTH,
        seed: int = 0,
        cache_dir: Optional[Path] = _UNSET,
        jobs: Optional[int] = None,
    ):
        self.benchmark = benchmark
        self.space = space if space is not None else paper_design_space()
        self.trace_length = trace_length
        self.seed = seed
        self.jobs = resolve_jobs(jobs)
        #: Execution accounting lives in a metrics registry (PR 3 folded
        #: the ad-hoc ``stats()`` counters into it); :meth:`stats` and the
        #: ``simulations_run``/``cache_hits``/``wall_time`` properties are
        #: thin views over it.
        self.metrics = obs.MetricsRegistry()
        self._dirty = 0
        self._cache: Dict[str, Dict[str, float]] = {}
        self._cache_path: Optional[Path] = None
        if cache_dir is _UNSET:
            cache_dir = store.cache_dir()
        if cache_dir is not None:
            cache_dir = Path(cache_dir)
            cache_dir.mkdir(parents=True, exist_ok=True)
            # The trace fingerprint keys the cache to the trace *content*,
            # so editing a workload profile can never serve stale results.
            fp = self._trace_fingerprint()
            self._cache_path = cache_dir / f"{benchmark}-{trace_length}-{seed}-{fp}.json"
            self._cache = store.load_json(self._cache_path)

    # -- accounting --------------------------------------------------------

    def _count(self, name: str, value: float = 1.0) -> None:
        """Record into the runner's registry and mirror to any live trace."""
        self.metrics.inc(name, value)
        obs.inc(name, value)

    @property
    def simulations_run(self) -> int:
        """Detailed simulations actually executed (cache misses)."""
        return int(self.metrics.counter("simulations_run"))

    @property
    def cache_hits(self) -> int:
        """Lookups served from the memo cache."""
        return int(self.metrics.counter("cache_hits"))

    @property
    def wall_time(self) -> float:
        """Cumulative wall time spent inside :meth:`metric` (seconds)."""
        return self.metrics.counter("wall_time_s")

    def _trace_fingerprint(self) -> str:
        """Short stable hash of the benchmark trace's content."""
        import hashlib

        trace = get_trace(self.benchmark, self.trace_length, self.seed)
        digest = hashlib.sha256()
        for arr in (trace.op, trace.src1, trace.src2, trace.addr, trace.pc):
            digest.update(arr.tobytes())
        digest.update(trace.taken.tobytes())
        return digest.hexdigest()[:12]

    # -- low-level --------------------------------------------------------

    def _flush(self) -> None:
        """Merge unflushed entries into the disk cache (see the store).

        A no-op while the runner holds no unflushed entries, so cache-hit
        workloads never rewrite (or even open) the file.
        """
        if self._cache_path is None or not self._dirty:
            return
        self._cache = store.merge_json(self._cache_path, self._cache)
        self._dirty = 0

    def result_at(self, point: Mapping[str, float]) -> Dict[str, float]:
        """Simulation summary at one physical design point (dict form).

        A miss is simulated and flushed as :meth:`metric` does it.  The
        returned dict is a copy: mutating it cannot corrupt the memo
        cache (or the next flush).
        """
        resolved = self.space.resolve(dict(point))
        config = ProcessorConfig.from_design_point(resolved)
        key = config.key()
        cached = self._cache.get(key)
        if cached is not None:
            self._count("cache_hits")
            return dict(cached)
        self._simulate_batch({key: config.as_dict()})
        self._flush()
        return dict(self._cache[key])

    def _simulate_batch(self, configs: Dict[str, Dict[str, int]]) -> None:
        """Simulate the uncached configurations, fanning out when allowed."""
        workers = min(self.jobs, len(configs))
        with obs.span("simulate_batch", benchmark=self.benchmark,
                      simulations=len(configs), workers=workers):
            self._cache.update(_fan_out(self.benchmark, self.trace_length,
                                        self.seed, configs.items(), workers))
        self._dirty += len(configs)
        self._count("simulations_run", len(configs))

    # -- vectorised response functions -------------------------------------

    def metric(self, points: np.ndarray, name: str) -> np.ndarray:
        """Evaluate one summary metric at ``(m, n)`` physical points.

        Uncached points are simulated — in parallel when the runner was
        built with ``jobs > 1`` (or ``$REPRO_JOBS`` says so) — and merged
        into the memo cache, which is flushed once at the end.
        """
        start = obs.monotonic()
        points = np.atleast_2d(np.asarray(points, dtype=float))
        with obs.span("runner/metric", benchmark=self.benchmark, metric=name,
                      points=len(points)) as sp:
            keys: List[str] = []
            pending: Dict[str, Dict[str, int]] = {}
            for row in points:
                resolved = self.space.resolve(self.space.as_dict(row))
                config = ProcessorConfig.from_design_point(resolved)
                key = config.key()
                keys.append(key)
                if key not in self._cache and key not in pending:
                    pending[key] = config.as_dict()
            if pending:
                self._simulate_batch(pending)
            # Stats bookkeeping matches the serial one-point-at-a-time path:
            # each fresh key's first lookup is its simulation, all other
            # lookups are cache hits.
            consumed = set()
            hits = 0
            values = np.empty(len(points))
            for i, key in enumerate(keys):
                if key in pending and key not in consumed:
                    consumed.add(key)
                else:
                    hits += 1
                values[i] = self._cache[key][name]
            if hits:
                self._count("cache_hits", hits)
            self._flush()
            sp.set(uncached=len(pending), cache_hits=hits)
        elapsed = obs.monotonic() - start
        self.metrics.inc("wall_time_s", elapsed)
        self.metrics.observe("metric_wall_s", elapsed)
        obs.observe("runner/metric_wall_s", elapsed)
        return values

    def cpi(self, points: np.ndarray) -> np.ndarray:
        """CPI response function (the paper's modeling target)."""
        return self.metric(points, "cpi")

    def power(self, points: np.ndarray) -> np.ndarray:
        """Power response function (the future-work extension metric)."""
        return self.metric(points, "power")

    def stats(self) -> Dict[str, Any]:
        """Execution statistics: simulations, cache hits, workers, wall time.

        A thin view over :attr:`metrics` — the registry is the source of
        truth (merge it, snapshot it, fold it into a run manifest); this
        method only preserves the historical dict shape.
        """
        return {
            "benchmark": self.benchmark,
            "simulations_run": self.simulations_run,
            "cache_hits": self.cache_hits,
            "jobs": self.jobs,
            "wall_time_s": self.wall_time,
        }

    def __repr__(self) -> str:
        return (
            f"SimulationRunner({self.benchmark!r}, trace={self.trace_length}, "
            f"seed={self.seed}, jobs={self.jobs}, runs={self.simulations_run}, "
            f"hits={self.cache_hits})"
        )
