"""Trace sinks: JSONL event logs and human-readable summaries.

The JSONL schema (``version`` 1) is one JSON object per line:

* ``{"type": "trace", "version": 1, ...header...}`` — first line; carries
  the command, argv and wall-clock start of the run.
* ``{"type": "span", "id": n, "parent": m|null, "name": ..., "offset":
  seconds-from-trace-origin, "dur": seconds, "attrs": {...}}`` — one per
  recorded span, depth-first, ids in emission order so a parent always
  precedes its children.
* ``{"type": "failure", "stage": ..., "error": ..., "message": ...}`` —
  structured stage-failure events (and any other recorded events).
* ``{"type": "metrics", "counters": ..., "gauges": ..., "histograms":
  ...}`` — final metric totals, last line.

Every trace is written by :class:`StreamingTraceSink`: ``repro serve``
streams each request's span tree as it closes
(:class:`repro.obs.live.LiveCollector`), and :func:`write_trace` streams
a finished collector with rotation off.  Emitting whole subtrees keeps
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
:func:`render_summary` renders the tree with per-name call counts and
cumulative/self times, which is what ``repro trace summary`` prints.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.obs.tracing import Collector, SpanNode

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
        stack = [(root, None)]
        while stack:
            node, parent_id = stack.pop()
            span_id = self._counter
            self._counter += 1
            self._write_line({
                "type": "span",
                "id": span_id,
                "parent": parent_id,
                "name": node.name,
                "offset": round(node.start - origin, 9),
                "dur": round(node.duration, 9),
                "attrs": node.attrs,
            })
            self.spans_emitted += 1
            for child in reversed(node.children):
                stack.append((child, span_id))
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
    carry clock readings from their own process; their offsets are
    relative to the *worker's* trace origin, so only durations are
    comparable across processes (the summary renderer uses durations
    exclusively).
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
    nodes: Dict[int, SpanNode] = {}
    roots: List[SpanNode] = []
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
            offset = float(event.get("offset", 0.0))
            node = SpanNode(
                str(event.get("name", "?")),
                attrs=dict(event.get("attrs", {})),
                start=offset,
                end=offset + float(event.get("dur", 0.0)),
            )
            nodes[int(event["id"])] = node
            parent = event.get("parent")
            if parent is None or int(parent) not in nodes:
                roots.append(node)
            else:
                nodes[int(parent)].children.append(node)
        elif kind == "metrics":
            metrics = event
        else:
            events.append(event)
    return TraceData(header=header, roots=roots, events=events,
                     metrics=metrics, skipped_lines=skipped)


# -- summary rendering -----------------------------------------------------


def _aggregate(nodes: List[SpanNode]) -> List[Tuple[str, int, float, float, List[SpanNode]]]:
    """Group sibling spans by name: (name, calls, cum, self, children)."""
    order: List[str] = []
    groups: Dict[str, List[SpanNode]] = {}
    for node in nodes:
        if node.name not in groups:
            order.append(node.name)
            groups[node.name] = []
        groups[node.name].append(node)
    rows = []
    for name in order:
        members = groups[name]
        cum = sum(m.duration for m in members)
        self_time = sum(m.self_time for m in members)
        children: List[SpanNode] = []
        for m in members:
            children.extend(m.children)
        rows.append((name, len(members), cum, self_time, children))
    return rows


def _render_rows(nodes: List[SpanNode], depth: int,
                 lines: List[str]) -> None:
    """Append aggregated tree rows (indented by depth) to ``lines``."""
    for name, calls, cum, self_time, children in _aggregate(nodes):
        label = "  " * depth + name
        lines.append(
            f"{label:<44} {calls:>6} {cum:>12.4f} {self_time:>12.4f}"
        )
        if children:
            _render_rows(children, depth + 1, lines)


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
    _render_rows(trace.roots, 0, lines)
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
