"""repro.obs.live — continuous telemetry for processes that never exit.

The batch half of :mod:`repro.obs` assumes a run that ends: manifests
measure cost once, and metrics are snapshotted when the command returns.
A serving process needs the same telemetry *while it runs*:

* :class:`StreamingTraceSink` — appends each completed request's span
  tree to a JSONL trace file the moment its root span closes, with
  size-based rotation; the file is readable mid-flight with the existing
  :func:`repro.obs.read_trace` (``strict=False`` skips at most the one
  torn line a kill can leave).  A :class:`repro.obs.Collector` built
  with ``sink=`` feeds it and drops what it emitted, so memory stays
  bounded over millions of requests.
* :class:`MetricsWindow` — rate-per-second deltas between successive
  registry snapshots plus p50/p90/p99 latency quantiles from the
  reservoir histograms: the payload behind a ``/metrics`` endpoint.
* :class:`AccessLog` — a structured JSONL access log, one flushed line
  per request.
* :func:`repro.obs.manifest.snapshot_manifest` (re-exported here) — the
  idempotent manifest refresh that makes manifests and ledger records
  work mid-process.

Everything here is the designated blocking-I/O seam for the serving
layer: lint rule OBS004 forbids blocking calls in ``repro/serve``
event-loop code precisely because this package owns them.
"""

from repro.obs.live.access import AccessLog
from repro.obs.live.window import MetricsWindow
from repro.obs.manifest import snapshot_manifest
from repro.obs.sinks import StreamingTraceSink

__all__ = [
    "AccessLog",
    "MetricsWindow",
    "StreamingTraceSink",
    "snapshot_manifest",
]
