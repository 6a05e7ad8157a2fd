"""Trace sinks: JSONL event logs and human-readable summaries.

The JSONL schema (``version`` 1) is one JSON object per line:

* ``{"type": "trace", "version": 1, ...header...}`` — first line; carries
  the command, argv and wall-clock start of the run.
* ``{"type": "span", "id": n, "parent": m|null, "name": ..., "offset":
  seconds-from-trace-origin, "dur": seconds, "attrs": {...}}`` — one per
  recorded span, depth-first, ids in emission order so a parent always
  precedes its children.  :func:`~repro.obs.tracing.span_records` writes
  these records and :func:`~repro.obs.tracing.spans_from_records` reads
  them, here and in worker payloads alike.
* ``{"type": "failure", "stage": ..., "error": ..., "message": ...}`` —
  structured stage-failure events (and any other recorded events).
* ``{"type": "metrics", "counters": ..., "gauges": ..., "histograms":
  ...}`` — final metric totals, last line.

Every trace is written by :class:`StreamingTraceSink`: a
:class:`~repro.obs.tracing.Collector` built with ``sink=`` streams each
root span tree as it closes, and :func:`write_trace` streams a finished
collector with rotation off.  Emitting whole subtrees keeps
the parent-precedes-child invariant that an append-per-span stream would
violate (children close first), and makes every line boundary a
consistent read point: a reader at any moment sees only complete spans,
and a writer killed mid-record leaves at most one torn final line, which
``read_trace(strict=False)`` skips and counts.

Rotation is size-based and happens only between emissions, never inside
one: when the active file exceeds ``max_bytes`` it is sealed with a
metrics line (so each segment is a complete, independently readable
trace) and renamed to ``<stem>.NNN<suffix>``; a fresh header opens the
next segment at the original path.

:func:`read_trace` round-trips the file back into span trees;
:func:`aggregate_stacks` folds them into one row per call stack, in tree
order, and :func:`render_summary` renders those rows with call counts
and cumulative/self times, which is what ``repro trace summary`` prints.
The profile, folded-stack, diff and HTML views read the same rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.tracing import (Collector, SpanNode, span_records,
                               spans_from_records)

#: JSONL schema version stamped into the trace header.
TRACE_SCHEMA_VERSION = 1


class TraceData:
    """A trace read back from a JSONL file.

    ``skipped_lines`` counts unparseable trailing lines dropped by a
    lenient read (a run killed mid-write truncates its final line).
    """

    def __init__(self, header: Dict[str, Any], roots: List[SpanNode],
                 events: List[Dict[str, Any]], metrics: Dict[str, Any],
                 skipped_lines: int = 0):
        self.header = header
        self.roots = roots
        self.events = events
        self.metrics = metrics
        self.skipped_lines = skipped_lines

    @property
    def empty(self) -> bool:
        """Whether the file contained no trace content at all."""
        return not (self.header or self.roots or self.events or self.metrics)

    def __repr__(self) -> str:
        return (
            f"TraceData(roots={len(self.roots)}, events={len(self.events)})"
        )


class StreamingTraceSink:
    """Appends completed span trees to a JSONL trace file as they close.

    Parameters
    ----------
    path:
        The active trace file.  Rotated segments land next to it as
        ``<stem>.001<suffix>``, ``<stem>.002<suffix>``, …
    header:
        Extra header fields merged into the ``{"type": "trace"}`` first
        line (e.g. the command name).
    max_bytes:
        Rotate when the active file exceeds this size after an emission;
        ``None`` (default) never rotates.
    metrics_snapshot:
        Zero-argument callable returning a metrics snapshot dict; called
        for the final ``{"type": "metrics"}`` line of each sealed segment
        and of the active file at :meth:`close`.
    """

    def __init__(
        self,
        path: Union[str, Path],
        header: Optional[Mapping[str, Any]] = None,
        max_bytes: Optional[int] = None,
        metrics_snapshot: Optional[Callable[[], Mapping[str, Any]]] = None,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._header = dict(header) if header else {}
        self.max_bytes = max_bytes
        self._metrics_snapshot = metrics_snapshot
        self.rotations: List[Path] = []
        self.spans_emitted = 0
        self._counter = 0  # span ids, per segment
        self._fh = None
        self._open_segment()

    # -- segment lifecycle -------------------------------------------------

    def _open_segment(self) -> None:
        head: Dict[str, Any] = {"type": "trace",
                                "version": TRACE_SCHEMA_VERSION}
        head.update(self._header)
        self._counter = 0
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write_line(head)

    def _write_line(self, event: Mapping[str, Any]) -> None:
        assert self._fh is not None, "sink is closed"
        self._fh.write(json.dumps(dict(event), sort_keys=True) + "\n")
        self._fh.flush()

    def _seal(self) -> None:
        """Write the final metrics line and close the active handle."""
        metrics: Dict[str, Any] = {"type": "metrics"}
        if self._metrics_snapshot is not None:
            metrics.update(self._metrics_snapshot())
        self._write_line(metrics)
        self._fh.close()
        self._fh = None

    def _rotate(self) -> None:
        self._seal()
        rotated = self.path.with_name(
            f"{self.path.stem}.{len(self.rotations) + 1:03d}{self.path.suffix}"
        )
        self.path.replace(rotated)
        self.rotations.append(rotated)
        self._open_segment()

    # -- emission ----------------------------------------------------------

    def emit(self, root: SpanNode, origin: float = 0.0) -> None:
        """Append ``root``'s whole subtree (depth-first) to the trace.

        ``origin`` is the owning collector's trace origin; offsets are
        recorded relative to it.  Rotation, when due, happens after the
        subtree is fully written, so no span is ever split across
        segments.
        """
        for record in span_records([root], origin, self._counter):
            self._write_line(record)
            self._counter += 1
            self.spans_emitted += 1
        if self.max_bytes is not None and self._fh.tell() > self.max_bytes:
            self._rotate()

    def emit_event(self, event: Mapping[str, Any]) -> None:
        """Append one structured event (e.g. a failure) to the trace."""
        self._write_line(event)

    def close(self) -> None:
        """Seal the active segment; the sink cannot emit afterwards."""
        if self._fh is not None:
            self._seal()

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` (or a failed open) retired the sink."""
        return self._fh is None

    def __enter__(self) -> "StreamingTraceSink":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def write_trace(collector: Collector, path: Union[str, Path],
                header: Optional[Mapping[str, Any]] = None) -> Path:
    """Write the collector's content as a JSONL trace file.

    The collector's closed roots, then its events, stream through a
    :class:`StreamingTraceSink` with rotation off.  Adopted worker spans
    keep the clock readings their process took, so their offsets line up
    with the parent's only where both processes read one clock (on Linux
    ``time.perf_counter`` is system-wide); durations are always
    comparable, and the summary renderer uses durations only.
    """
    with StreamingTraceSink(path, header=header,
                            metrics_snapshot=collector.metrics.snapshot) as sink:
        for root in collector.roots:
            sink.emit(root, collector.origin)
        for event in collector.events:
            sink.emit_event(event)
    return sink.path


def read_trace(path: Union[str, Path], strict: bool = True) -> TraceData:
    """Parse a JSONL trace file back into span trees, events and metrics.

    Unknown event types are preserved in :attr:`TraceData.events` so newer
    writers stay readable; malformed lines raise ``ValueError`` with the
    offending line number.  With ``strict=False`` an unparseable *final*
    line — the signature of a run killed mid-write — is skipped and
    counted in :attr:`TraceData.skipped_lines` instead of raising;
    corruption anywhere else still raises.
    """
    header: Dict[str, Any] = {}
    metrics: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    spans: List[Dict[str, Any]] = []
    skipped = 0
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.readlines()
    last_content = max(
        (i for i, raw in enumerate(raw_lines) if raw.strip()), default=-1
    )
    for index, raw in enumerate(raw_lines):
        lineno = index + 1
        line = raw.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError as exc:
            if not strict and index == last_content:
                skipped += 1
                continue
            raise ValueError(f"{path}:{lineno}: not JSON: {exc}") from exc
        kind = event.get("type")
        if kind == "trace":
            header = event
        elif kind == "span":
            spans.append(event)
        elif kind == "metrics":
            metrics = event
        else:
            events.append(event)
    return TraceData(header=header, roots=spans_from_records(spans),
                     events=events, metrics=metrics, skipped_lines=skipped)


# -- summary rendering -----------------------------------------------------


@dataclass
class SpanStat:
    """Aggregate over every span sharing one call stack."""

    stack: Tuple[str, ...]  # span names from root to this span
    calls: int = 0
    cum_s: float = 0.0  # summed durations
    self_s: float = 0.0  # summed durations minus children's durations
    attrs_sample: Dict[str, Any] = field(default_factory=dict, repr=False)

    @property
    def name(self) -> str:
        """The leaf span name of this stack."""
        return self.stack[-1] if self.stack else ""

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON row (used by ``trace summary --json``)."""
        return {
            "stack": list(self.stack),
            "name": self.name,
            "calls": self.calls,
            "cum_s": self.cum_s,
            "self_s": self.self_s,
        }


def aggregate_stacks(trace: TraceData) -> List[SpanStat]:
    """Fold a trace into one :class:`SpanStat` per distinct call stack.

    Stacks are identified by the path of span *names* from the root, so
    the hundreds of ``simulate`` spans inside one batch collapse into a
    single row with ``calls=len(spans)``.  Rows come in tree order:
    sibling spans sharing a name merge into one row, placed where the
    first of them appears, and each row is followed by its children's
    rows.  A row therefore always sits under its parent, even when
    same-name siblings interleave with others.
    """
    rows: List[SpanStat] = []

    def visit(nodes: List[SpanNode], prefix: Tuple[str, ...]) -> None:
        groups: Dict[str, List[SpanNode]] = {}
        for node in nodes:
            groups.setdefault(node.name, []).append(node)
        for name, members in groups.items():
            stat = SpanStat(stack=prefix + (name,),
                            attrs_sample=dict(members[0].attrs))
            for member in members:
                stat.calls += 1
                stat.cum_s += member.duration
                stat.self_s += member.self_time
            rows.append(stat)
            visit([child for member in members for child in member.children],
                  stat.stack)

    visit(trace.roots, ())
    return rows


def render_summary(trace: TraceData) -> str:
    """Human-readable span tree with call counts and self/cumulative times.

    Sibling spans sharing a name are aggregated into one row (a model
    build runs hundreds of ``simulate`` spans; one row per simulation
    would bury the structure the summary exists to show).
    """
    lines: List[str] = []
    command = trace.header.get("command")
    if command:
        lines.append(f"trace: {command}")
    lines.append(
        f"{'span':<44} {'calls':>6} {'cum_s':>12} {'self_s':>12}"
    )
    lines.append("-" * 76)
    for stat in aggregate_stacks(trace):
        label = "  " * (len(stat.stack) - 1) + stat.name
        lines.append(f"{label:<44} {stat.calls:>6} {stat.cum_s:>12.4f} "
                     f"{stat.self_s:>12.4f}")
    failures = [e for e in trace.events if e.get("type") == "failure"]
    for failure in failures:
        lines.append(
            f"FAILURE in {failure.get('stage')}: "
            f"{failure.get('error')}: {failure.get('message')}"
        )
    counters = trace.metrics.get("counters", {})
    if counters:
        lines.append("")
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:<42} {counters[name]:>14.6g}")
    histograms = trace.metrics.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            row = (
                f"  {name:<42} n={h.get('count', 0):<6.6g} "
                f"sum={h.get('sum', 0.0):.6g} mean={h.get('mean', 0.0):.6g}"
            )
            if "p50" in h:  # older traces have no percentile columns
                row += (
                    f" p50={h['p50']:.6g} p90={h.get('p90', 0.0):.6g} "
                    f"p99={h.get('p99', 0.0):.6g}"
                )
            lines.append(row)
    return "\n".join(lines)
