"""Metrics primitives: counters, gauges, and histograms.

A :class:`MetricsRegistry` is a tiny, dependency-free accumulator for the
numbers the pipeline wants to account for — simulations run, cache hits,
AICc iterations, per-point simulate latency.  Registries are cheap enough
to exist always (the :class:`~repro.experiments.runner.SimulationRunner`
keeps one regardless of tracing) and are designed to cross process
boundaries: :meth:`MetricsRegistry.snapshot` produces a plain-JSON dict
that workers return through their ``ProcessPoolExecutor`` result tuples,
and :meth:`MetricsRegistry.merge` folds any number of snapshots back into
a parent registry.

Merge semantics:

* **counters** add;
* **gauges** keep the merged-in value (last writer wins — gauges are
  point-in-time readings, not totals);
* **histograms** combine count/sum/min/max exactly, so merged summaries
  equal the summary of the concatenated observations.  Percentiles
  (p50/p90/p99) come from a bounded, deterministically-decimated sample
  reservoir carried inside the summary: exact until
  :data:`Histogram.SAMPLE_CAP` observations, rank-preserving
  approximations beyond it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional


class Histogram:
    """Streaming summary of observed values: count, sum, min, max, percentiles.

    Deliberately bucket-free: the pipeline's questions ("how long does one
    simulation take?", "how many AICc evaluations per fit?") are answered
    by totals and extremes, and a bucket-free summary merges exactly
    across processes.  For tail questions ("what does a *slow* simulation
    cost?") a bounded reservoir of raw samples backs
    :meth:`percentile` — exact up to :data:`SAMPLE_CAP` observations,
    then a systematic (every ``stride``-th observation) sample whose
    stride doubles each time the reservoir fills.  Systematic decimation
    keeps every retained value at equal weight, so quantiles stay
    unbiased however the stream is ordered, and it is deterministic, so
    repeated runs and cross-process merges stay bit-reproducible.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "stride")

    #: Reservoir bound; beyond it, percentiles are approximate.
    SAMPLE_CAP = 1024

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.samples: List[float] = []
        self.stride = 1

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > self.SAMPLE_CAP:
                self._decimate()

    def _decimate(self) -> None:
        """Halve the reservoir by dropping every other (arrival-order) sample.

        The survivors are exactly the observations at multiples of the
        doubled stride, so every retained sample keeps equal weight — the
        property that makes quantiles unbiased even for monotone streams.
        """
        self.samples = self.samples[::2]
        self.stride *= 2

    @property
    def mean(self) -> float:
        """Mean of the observed values (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank ``q``-th percentile of the retained samples.

        Exact while the histogram has seen at most :data:`SAMPLE_CAP`
        observations; a rank-preserving approximation afterwards.  Returns
        0.0 for an empty histogram.
        """
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = max(1, math.ceil(q / 100.0 * len(ordered)))
        return ordered[min(rank, len(ordered)) - 1]

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable summary (used in snapshots and JSONL events).

        Includes the sample reservoir so :meth:`merge` can keep percentile
        support across process boundaries.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
            "samples": list(self.samples),
        }

    def merge(self, other: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`as_dict` summary into this one.

        Count/sum/min/max combine exactly; sample reservoirs concatenate
        (and re-decimate past the cap), so merged percentiles match the
        concatenated observations to reservoir precision.  Summaries from
        older writers without a ``samples`` list still merge; they simply
        contribute nothing to percentiles.
        """
        count = int(other.get("count", 0))
        if count == 0:
            return
        self.total += float(other.get("sum", 0.0))
        o_min, o_max = float(other["min"]), float(other["max"])
        if self.count == 0:
            self.min, self.max = o_min, o_max
        else:
            assert self.min is not None and self.max is not None
            self.min = min(self.min, o_min)
            self.max = max(self.max, o_max)
        self.count += count
        self.samples.extend(float(v) for v in other.get("samples", []))
        while len(self.samples) > self.SAMPLE_CAP:
            self._decimate()

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, sum={self.total:.6g})"


class MetricsRegistry:
    """Named counters, gauges and histograms with cross-process merge."""

    def __init__(self) -> None:
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0) -> None:
        """Add ``value`` to counter ``name`` (created at zero on first use)."""
        self.counters[name] = self.counters.get(name, 0.0) + float(value)

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to a point-in-time reading."""
        self.gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)

    # -- reading ----------------------------------------------------------

    def counter(self, name: str) -> float:
        """Current value of counter ``name`` (0.0 when never incremented)."""
        return self.counters.get(name, 0.0)

    def gauge(self, name: str) -> float:
        """Current value of gauge ``name`` (0.0 when never set)."""
        return self.gauges.get(name, 0.0)

    def histogram(self, name: str) -> Histogram:
        """Histogram ``name`` (an empty one when never observed)."""
        return self.histograms.get(name, Histogram())

    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON representation, safe to pickle across processes."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: h.as_dict() for k, h in self.histograms.items()},
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this.

        Counters add, gauges take the snapshot's value, histograms combine
        exactly.  Accepts partial snapshots (missing sections are skipped).
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, summary in snapshot.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge(summary)

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
