"""Hierarchical span tracing with an injectable monotonic clock.

The tracing model is a tree of **spans**: named, timed regions with
arbitrary attributes, nested by dynamic scope.  A :class:`Collector` owns
the tree for one run; it is *activated* for the duration of a traced
command (``with collecting() as col:``) and every ``with span(...)`` in
any instrumented module then records into it.  When no collector is
active, :func:`span` yields a shared no-op object and the instrumented
code pays essentially nothing — tracing off is the default and must never
perturb results (spans only read the clock; they never touch RNG state or
numerics).

Spans have one serialised form, the flat record of a trace file
(:func:`span_records` writes it, :func:`spans_from_records` reads it).
Worker processes get their own collectors (see :meth:`Collector.payload`
/ :meth:`Collector.adopt`): a worker ships its span records and metrics
back through the ``ProcessPoolExecutor`` result tuple, and the parent
grafts them into the live trace under the current span.

The clock is injectable (``Collector(clock=...)``) so tests can assert
exact, deterministic durations.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from functools import wraps
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional

from repro.obs.metrics import MetricsRegistry


class SpanNode:
    """One recorded span: a named, timed region with attributes.

    ``start``/``end`` are clock readings local to the recording process;
    :attr:`duration` is the authoritative quantity (clock origins differ
    across processes, durations do not).
    """

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None,
                 start: float = 0.0, end: Optional[float] = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start = start
        self.end = end
        self.children: List["SpanNode"] = []

    @property
    def duration(self) -> float:
        """Wall-clock duration in clock units (0.0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def self_time(self) -> float:
        """Duration minus the children's durations (clamped at zero)."""
        return max(0.0, self.duration - sum(c.duration for c in self.children))

    def set(self, **attrs: Any) -> "SpanNode":
        """Attach attributes to the span; returns ``self`` for chaining."""
        self.attrs.update(attrs)
        return self

    def walk(self) -> Iterator["SpanNode"]:
        """Depth-first iteration over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def __repr__(self) -> str:
        return (
            f"SpanNode({self.name!r}, dur={self.duration:.6g}, "
            f"children={len(self.children)})"
        )


def span_records(roots: Iterable[SpanNode], origin: float,
                 first_id: int) -> Iterator[Dict[str, Any]]:
    """The flat records of the trees under ``roots``, parents first.

    ``{"type": "span", "id", "parent", "name", "offset", "dur",
    "attrs"}``: ids count up from ``first_id`` depth-first, ``offset`` is
    the start relative to ``origin``, and times are rounded to 1 ns.
    Trace files and worker payloads both hold these records.
    """
    next_id = first_id
    for root in roots:
        stack = [(root, None)]
        while stack:
            node, parent_id = stack.pop()
            yield {
                "type": "span",
                "id": next_id,
                "parent": parent_id,
                "name": node.name,
                "offset": round(node.start - origin, 9),
                "dur": round(node.duration, 9),
                "attrs": node.attrs,
            }
            stack.extend((child, next_id) for child in reversed(node.children))
            next_id += 1


def spans_from_records(records: Iterable[Mapping[str, Any]]) -> List[SpanNode]:
    """Rebuild span trees from :func:`span_records` output; returns the roots.

    A record whose parent id is absent or not seen yet becomes a root.
    """
    nodes: Dict[int, SpanNode] = {}
    roots: List[SpanNode] = []
    for record in records:
        offset = float(record.get("offset", 0.0))
        node = SpanNode(
            str(record.get("name", "?")),
            attrs=dict(record.get("attrs", {})),
            start=offset,
            end=offset + float(record.get("dur", 0.0)),
        )
        parent = record.get("parent")
        if parent is None or int(parent) not in nodes:
            roots.append(node)
        else:
            nodes[int(parent)].children.append(node)
        nodes[int(record["id"])] = node
    return roots


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}

    def set(self, **attrs: Any) -> "_NoopSpan":
        """Ignore attributes (tracing is off)."""
        return self


#: The singleton no-op span; identity-comparable in tests.
NOOP_SPAN = _NoopSpan()


class Collector:
    """Trace collector: span tree, metrics, structured events.

    Parameters
    ----------
    clock:
        Zero-argument monotonic time source.  Defaults to
        :func:`time.perf_counter`; tests inject a fake clock for
        deterministic durations.
    sink:
        Optional :class:`~repro.obs.sinks.StreamingTraceSink`: whenever
        the span stack unwinds to empty, the completed roots and buffered
        events go to it and are dropped (:meth:`flush`).
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 sink: Any = None):
        self.clock: Callable[[], float] = clock if clock is not None else time.perf_counter
        self.origin = self.clock()
        self.roots: List[SpanNode] = []
        self._stack: List[SpanNode] = []
        self.metrics = MetricsRegistry()
        self.events: List[Dict[str, Any]] = []
        self.sink = sink

    # -- span lifecycle ---------------------------------------------------

    def start_span(self, name: str, attrs: Optional[Dict[str, Any]] = None) -> SpanNode:
        """Open a span nested under the currently open one (if any)."""
        node = SpanNode(name, attrs=attrs, start=self.clock())
        if self._stack:
            self._stack[-1].children.append(node)
        else:
            self.roots.append(node)
        self._stack.append(node)
        return node

    def end_span(self, node: SpanNode) -> None:
        """Close ``node`` (and any unclosed spans opened inside it)."""
        now = self.clock()
        while self._stack:
            top = self._stack.pop()
            if top.end is None:
                top.end = now
            if top is node:
                break
        if self.sink is not None and not self._stack:
            self.flush()

    def flush(self) -> None:
        """Emit the completed roots, then the buffered events, and drop them."""
        while self.roots:
            self.sink.emit(self.roots.pop(0), self.origin)
        while self.events:
            self.sink.emit_event(self.events.pop(0))

    def current_span(self) -> Optional[SpanNode]:
        """The innermost open span, or ``None`` at the trace root."""
        return self._stack[-1] if self._stack else None

    # -- cross-process funneling ------------------------------------------

    def payload(self) -> Dict[str, Any]:
        """Plain-JSON trace content for shipping to a parent process.

        ``spans`` holds the :func:`span_records` of the roots with
        origin 0.0, so adopted spans keep their clock readings.
        """
        return {
            "spans": list(span_records(self.roots, origin=0.0, first_id=0)),
            "metrics": self.metrics.snapshot(),
            "events": list(self.events),
        }

    def adopt(self, payload: Optional[Mapping[str, Any]],
              attrs: Optional[Dict[str, Any]] = None) -> None:
        """Graft a worker's :meth:`payload` into the live trace.

        Span trees attach as children of the currently open span (or as
        roots), tagged with ``attrs`` (e.g. the worker pid); metrics merge
        into this collector's registry; events append.
        """
        if not payload:
            return
        for node in spans_from_records(payload.get("spans", [])):
            if attrs:
                node.attrs.update(attrs)
            parent = self.current_span()
            if parent is not None:
                parent.children.append(node)
            else:
                self.roots.append(node)
        self.metrics.merge(payload.get("metrics", {}))
        self.events.extend(payload.get("events", []))

    # -- structured events ------------------------------------------------

    def record_event(self, kind: str, **fields: Any) -> Dict[str, Any]:
        """Append a structured event (e.g. a stage failure) to the trace."""
        event = {"type": kind, "at": self.clock() - self.origin}
        event.update(fields)
        self.events.append(event)
        return event

    def __repr__(self) -> str:
        return (
            f"Collector(roots={len(self.roots)}, open={len(self._stack)}, "
            f"events={len(self.events)})"
        )


#: Stack of activated collectors (innermost last).  A stack rather than a
#: single slot so nested activations (e.g. a traced CLI command calling a
#: helper that opens its own scope in tests) unwind correctly.
_ACTIVE: List[Collector] = []

#: Recent structured failures, kept even when tracing is off so a crashed
#: exhibit can always report which stage failed.
_RECENT_FAILURES: "deque[Dict[str, Any]]" = deque(maxlen=16)


def activate(collector: Collector) -> Collector:
    """Make ``collector`` the active trace target; returns it."""
    _ACTIVE.append(collector)
    return collector


def deactivate(collector: Optional[Collector] = None) -> None:
    """Pop the active collector (must match ``collector`` when given)."""
    if not _ACTIVE:
        return
    if collector is None or _ACTIVE[-1] is collector:
        _ACTIVE.pop()


def current() -> Optional[Collector]:
    """The active collector, or ``None`` when tracing is off."""
    return _ACTIVE[-1] if _ACTIVE else None


def enabled() -> bool:
    """Whether a collector is currently active."""
    return bool(_ACTIVE)


def monotonic() -> float:
    """One reading of the observability clock.

    Returns the active collector's (injectable) clock when tracing, else
    :func:`time.perf_counter`.  This is the sanctioned wall-clock seam for
    ``repro`` library code (lint rule OBS002 forbids direct
    ``time.time``/``time.monotonic``/``time.perf_counter`` calls outside
    :mod:`repro.obs`): durations measured through it are deterministic
    under a fake clock and expressed in the same units as recorded span
    durations.
    """
    collector = current()
    if collector is not None:
        return collector.clock()
    return time.perf_counter()


@contextmanager
def collecting(clock: Optional[Callable[[], float]] = None) -> Iterator[Collector]:
    """Activate a fresh :class:`Collector` for the ``with`` body."""
    collector = Collector(clock=clock)
    activate(collector)
    try:
        yield collector
    finally:
        deactivate(collector)


@contextmanager
def span(name: str, **attrs: Any) -> Iterator[Any]:
    """Record a named, timed, attributed region of the active trace.

    Usage::

        with span("fit/aicc_select", centers=k) as sp:
            ...
            sp.set(aicc=value)

    When tracing is off this yields the shared :data:`NOOP_SPAN` and does
    no work.  Exceptions propagate unchanged; the span is closed with an
    ``error`` attribute naming the exception type.
    """
    collector = current()
    if collector is None:
        yield NOOP_SPAN
        return
    node = collector.start_span(name, attrs)
    try:
        yield node
    except BaseException as exc:
        node.attrs.setdefault("error", type(exc).__name__)
        raise
    finally:
        collector.end_span(node)


def traced(name: Optional[str] = None, **attrs: Any) -> Callable:
    """Decorator form of :func:`span` (span named after the function).

    ::

        @traced("crossval/kfold")
        def kfold_error(...): ...
    """

    def decorate(fn: Callable) -> Callable:
        span_name = name if name is not None else fn.__qualname__

        @wraps(fn)
        def wrapper(*args: Any, **kwargs: Any):
            if not _ACTIVE:
                return fn(*args, **kwargs)
            with span(span_name, **attrs):
                return fn(*args, **kwargs)

        return wrapper

    return decorate


# -- module-level metric conveniences (no-ops while tracing is off) --------


def inc(name: str, value: float = 1.0) -> None:
    """Increment counter ``name`` on the active collector, if any."""
    collector = current()
    if collector is not None:
        collector.metrics.inc(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active collector, if any."""
    collector = current()
    if collector is not None:
        collector.metrics.observe(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set gauge ``name`` on the active collector, if any."""
    collector = current()
    if collector is not None:
        collector.metrics.set_gauge(name, value)


def record_event(kind: str, **fields: Any) -> Optional[Dict[str, Any]]:
    """Append a structured event to the active trace, if any.

    Module-level convenience over :meth:`Collector.record_event` (the
    same channel stage failures and CPI-interval streams use); events are
    persisted by ``obs.write_trace`` alongside spans and metrics.
    Returns the recorded event, or ``None`` while tracing is off.
    """
    collector = current()
    if collector is None:
        return None
    return collector.record_event(kind, **fields)


def record_failure(stage: str, error: BaseException, **fields: Any) -> Dict[str, Any]:
    """Report a structured stage failure.

    Appends a ``failure`` event to the active trace (when tracing), always
    remembers it in :func:`recent_failures`, and annotates the exception
    (once) with the failing stage so the traceback itself says where the
    pipeline died instead of leaving the reader to guess.
    """
    failure = {
        "stage": stage,
        "error": type(error).__name__,
        "message": str(error),
    }
    failure.update(fields)
    _RECENT_FAILURES.append(dict(failure))
    collector = current()
    if collector is not None:
        collector.record_event("failure", **failure)
    if not getattr(error, "_repro_obs_noted", False):
        note = f"[repro.obs] pipeline stage {stage!r} failed"
        if hasattr(error, "add_note"):  # PEP 678, Python >= 3.11
            error.add_note(note)
        try:
            error._repro_obs_noted = True  # type: ignore[attr-defined]
        except AttributeError:
            pass  # exceptions with __slots__: skip the marker
    return failure


def recent_failures() -> List[Dict[str, Any]]:
    """The most recent structured failures (newest last, bounded)."""
    return list(_RECENT_FAILURES)
