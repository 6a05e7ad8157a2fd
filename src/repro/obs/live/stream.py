"""The live collector: a collector that streams each root span as it closes.

:class:`LiveCollector` feeds the one trace writer,
:class:`repro.obs.sinks.StreamingTraceSink`: every time a *root* span
closes — one served request, in the serving layer — its complete subtree
is appended to the trace file at once, so a serving process's memory
stays bounded and its trace is readable mid-flight.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.sinks import StreamingTraceSink
from repro.obs.tracing import Collector, SpanNode


class LiveCollector(Collector):
    """A :class:`~repro.obs.tracing.Collector` that streams to a sink.

    Behaves exactly like its parent while spans are open; once the span
    stack unwinds to empty, every completed root is emitted to the sink
    (subtree-at-a-time) and *dropped* from :attr:`roots`, together with
    any buffered structured events — so a serving process's collector
    stays O(open spans), not O(requests served).  With ``sink=None`` it
    degrades to a plain in-memory collector.
    """

    def __init__(self, sink: Optional[StreamingTraceSink] = None,
                 clock: Optional[Callable[[], float]] = None):
        super().__init__(clock=clock)
        self.sink = sink

    def end_span(self, node: SpanNode) -> None:
        """Close ``node``; stream and drop completed roots when idle."""
        super().end_span(node)
        if self.sink is None or self._stack:
            return
        while self.roots:
            self.sink.emit(self.roots.pop(0), self.origin)
        while self.events:
            self.sink.emit_event(self.events.pop(0))
