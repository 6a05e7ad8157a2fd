"""repro.obs.prof — profiling and continuous benchmarking.

Three pieces layered on the :mod:`repro.obs` trace machinery:

* **profile analysis** (:mod:`repro.obs.prof.analyze`) — turn any JSONL
  trace into per-stack *self-time* aggregates: top-N hot-span tables
  (``repro trace profile``), flamegraph-compatible folded-stack exports
  (``--folded``), and the machine-readable span summary behind
  ``repro trace summary --json``;
* **benchmark harness** (:mod:`repro.obs.prof.bench`) — a decorator
  registry of seeded hot-path benchmarks run best-of-k with warmup, an
  injectable clock, and ``tracemalloc`` peak capture.  Each benchmark
  returns deterministic *work metadata* (counts and content hashes), so
  repeated runs are comparable: only wall/CPU/memory may vary;
* **regression gate** (:mod:`repro.obs.prof.gate`) — ``repro bench``
  writes schema-versioned ``results/BENCH_<run>.json`` (machine and git
  provenance folded in from :mod:`repro.obs.manifest`);
  ``repro bench --check`` compares a run against the committed
  ``benchmarks/perf/baseline.json`` with per-benchmark noise tolerances
  and exits non-zero on regression.

The benchmark *targets* (:mod:`repro.obs.prof.targets`) import the
simulator and modeling layers, so they are loaded lazily by
:func:`~repro.obs.prof.bench.run_benchmarks` — importing this package
stays cheap and cycle-free.
"""

from repro.obs.prof.analyze import (
    hot_spans,
    parse_folded,
    render_profile,
    summarize_trace,
    to_folded,
)
from repro.obs.prof.bench import (
    BenchContext,
    BenchError,
    BenchResult,
    BenchSpec,
    benchmark,
    registered_benchmarks,
    run_benchmarks,
)
from repro.obs.prof.gate import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_BASELINE_PATH,
    check_results,
    gate_summary,
    load_baseline,
    make_baseline,
    render_bench_table,
    results_document,
    write_baseline,
    write_results,
)
from repro.obs.sinks import SpanStat, aggregate_stacks

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchContext",
    "BenchError",
    "BenchResult",
    "BenchSpec",
    "DEFAULT_BASELINE_PATH",
    "SpanStat",
    "aggregate_stacks",
    "benchmark",
    "check_results",
    "gate_summary",
    "hot_spans",
    "load_baseline",
    "make_baseline",
    "parse_folded",
    "registered_benchmarks",
    "render_bench_table",
    "render_profile",
    "results_document",
    "run_benchmarks",
    "summarize_trace",
    "to_folded",
    "write_baseline",
    "write_results",
]
