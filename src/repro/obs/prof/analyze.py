"""Profile analysis over recorded traces: self-time, hot spans, flamegraphs.

The span summary (``repro trace summary``) shows the trace's *structure*;
this module answers the profiling question — *where did the time actually
go?* — by aggregating spans by **call stack** (the path of span names from
the root) and computing per-stack *self time*: cumulative duration minus
the duration of child spans.  Self time is the quantity a flamegraph
plots, and the one that ranks optimisation targets correctly (a parent
that merely waits on its children has a large cumulative time but no self
time to reclaim).

The per-stack rows come from :func:`repro.obs.sinks.aggregate_stacks`,
the one aggregation every trace view reads.

Exports:

* :func:`hot_spans` / :func:`render_profile` — the top-N table behind
  ``repro trace profile``;
* :func:`to_folded` / :func:`parse_folded` — flamegraph-compatible
  folded-stack text (``a;b;c <integer>``, one line per stack, value =
  self time in microseconds), consumable by ``flamegraph.pl`` or
  speedscope;
* :func:`summarize_trace` — the machine-readable aggregate behind
  ``repro trace summary --json``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.obs.sinks import SpanStat, TraceData, aggregate_stacks

#: Separator used in folded-stack output; span names containing it are
#: sanitised so the folded format stays parseable.
FOLD_SEP = ";"

def hot_spans(trace: TraceData, top: int = 20) -> List[SpanStat]:
    """The ``top`` stacks ranked by self time (descending)."""
    rows = aggregate_stacks(trace)
    rows.sort(key=lambda s: (-s.self_s, s.stack))
    return rows[: max(0, top)]


def render_profile(trace: TraceData, top: int = 20) -> str:
    """Human-readable hot-span table: self/cumulative time per stack.

    ``self%`` is each stack's share of the total self time (which equals
    the total traced wall time, since self times partition it).
    """
    rows = hot_spans(trace, top=top)
    total_self = sum(s.self_s for s in aggregate_stacks(trace))
    lines: List[str] = []
    command = trace.header.get("command")
    if command:
        lines.append(f"profile: {command}")
    lines.append(
        f"{'self_s':>10} {'self%':>6} {'cum_s':>10} {'calls':>7}  stack"
    )
    lines.append("-" * 78)
    for stat in rows:
        share = 100.0 * stat.self_s / total_self if total_self > 0 else 0.0
        lines.append(
            f"{stat.self_s:>10.4f} {share:>5.1f}% {stat.cum_s:>10.4f} "
            f"{stat.calls:>7}  {FOLD_SEP.join(stat.stack)}"
        )
    if not rows:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


def _fold_name(name: str) -> str:
    """Sanitise one span name for the folded format (no separators/spaces)."""
    return name.replace(FOLD_SEP, ":").replace(" ", "_")


def to_folded(trace: TraceData) -> str:
    """Flamegraph-compatible folded stacks: ``a;b;c <self-µs>`` per line.

    Values are self times in integer microseconds (the folded format
    wants integer "sample counts"); stacks whose self time rounds to zero
    are dropped.  Feed the output straight to ``flamegraph.pl`` or paste
    it into speedscope.
    """
    lines: List[str] = []
    for stat in aggregate_stacks(trace):
        micros = round(stat.self_s * 1e6)
        if micros <= 0:
            continue
        stack = FOLD_SEP.join(_fold_name(name) for name in stat.stack)
        lines.append(f"{stack} {micros}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_folded(text: str) -> Dict[Tuple[str, ...], int]:
    """Parse folded-stack text back into ``{stack: microseconds}``.

    The inverse of :func:`to_folded` (also accepts any ``flamegraph.pl``
    collapsed input).  Repeated stacks accumulate; malformed lines raise
    ``ValueError`` with the offending line number.
    """
    out: Dict[Tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        stack_text, sep, value_text = line.rpartition(" ")
        if not sep or not stack_text:
            raise ValueError(f"folded line {lineno}: missing value: {line!r}")
        try:
            value = int(value_text)
        except ValueError:
            raise ValueError(
                f"folded line {lineno}: value {value_text!r} is not an integer"
            ) from None
        stack = tuple(stack_text.split(FOLD_SEP))
        out[stack] = out.get(stack, 0) + value
    return out


def summarize_trace(trace: TraceData) -> Dict[str, Any]:
    """Machine-readable aggregate of a trace (``trace summary --json``).

    One JSON-able dict: the header, per-stack span aggregates, failure
    events, and the final metric totals — everything the text renderers
    show, without the table formatting.
    """
    return {
        "command": trace.header.get("command"),
        "version": trace.header.get("version"),
        "spans": [stat.as_dict() for stat in aggregate_stacks(trace)],
        "failures": [e for e in trace.events if e.get("type") == "failure"],
        "counters": dict(trace.metrics.get("counters", {})),
        "gauges": dict(trace.metrics.get("gauges", {})),
        "histograms": {
            name: dict(summary)
            for name, summary in trace.metrics.get("histograms", {}).items()
        },
    }
