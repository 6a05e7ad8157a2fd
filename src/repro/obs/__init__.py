"""repro.obs — observability for the simulate→sample→fit→validate pipeline.

A dependency-free layer of five pieces:

* **span tracing** (:mod:`repro.obs.tracing`) — ``with span("fit", k=8):``
  context manager and ``@traced`` decorator recording a tree of named,
  timed, attributed regions against an injectable monotonic clock;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  histograms with exact cross-process merge;
* **sinks** (:mod:`repro.obs.sinks`) — the one JSONL trace writer
  (``StreamingTraceSink``, which :func:`write_trace` drives for an
  in-memory :class:`Collector`) and the tree/table summary behind
  ``repro trace summary``;
* **run manifests** (:mod:`repro.obs.manifest`) — the provenance record
  (seed, design-space hash, git SHA, version, cost, metric totals)
  written next to every result, snapshottable mid-process via
  :func:`snapshot_manifest`;
* **live telemetry** (:mod:`repro.obs.live`) — the continuous half for
  processes that never exit: a streaming trace sink with rotation, a
  memory-bounded :class:`~repro.obs.live.LiveCollector`, windowed
  metrics snapshots and a JSONL access log, serving ``repro serve``.

Tracing is off by default and costs nothing measurable: ``span`` yields a
shared no-op when no :class:`Collector` is active, and instrumentation
never touches RNG state or numerics — traced and untraced runs are
bitwise-identical.  Activate with ``with collecting() as col:`` or the
CLI's ``--trace`` / ``REPRO_TRACE``.
"""

from repro.obs.console import echo
from repro.obs.manifest import (
    build_manifest,
    cache_hit_rate,
    design_space_hash,
    git_sha,
    package_version,
    read_manifest,
    snapshot_manifest,
    write_manifest,
)
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.sinks import TraceData, read_trace, render_summary, write_trace
from repro.obs.tracing import (
    NOOP_SPAN,
    Collector,
    SpanNode,
    activate,
    collecting,
    current,
    deactivate,
    enabled,
    inc,
    monotonic,
    observe,
    recent_failures,
    record_event,
    record_failure,
    set_gauge,
    span,
    traced,
)

__all__ = [
    "Collector",
    "Histogram",
    "MetricsRegistry",
    "NOOP_SPAN",
    "SpanNode",
    "TraceData",
    "activate",
    "build_manifest",
    "cache_hit_rate",
    "collecting",
    "current",
    "deactivate",
    "design_space_hash",
    "echo",
    "enabled",
    "git_sha",
    "inc",
    "monotonic",
    "observe",
    "package_version",
    "read_manifest",
    "read_trace",
    "recent_failures",
    "record_event",
    "record_failure",
    "render_summary",
    "set_gauge",
    "snapshot_manifest",
    "span",
    "traced",
    "write_manifest",
    "write_trace",
]
