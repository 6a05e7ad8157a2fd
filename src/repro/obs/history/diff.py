"""Trace diff: attribute a wall-clock delta between two runs to spans.

"The build got 30% slower" is an observation; "``fit.select_centers``
self-time +2.1s (+41%), calls unchanged" is a diagnosis.  This module
produces the second from two recorded traces of the same workflow: both
span trees are folded into per-call-stack aggregates (the same
self-time aggregation the profiler uses, so a stack's self times
partition its trace's total duration exactly), stacks are aligned by
their name path, and the total delta decomposes into per-stack self-time
deltas — by construction the attribution sums to the whole change, so
nothing can hide.  Call-count deltas ride along to separate "the same
work got slower" from "more work ran".

``repro trace diff OLD NEW`` prints the ranked attribution table;
``--json`` emits the pinned-schema machine form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.sinks import TraceData, aggregate_stacks

#: Schema version of the ``repro trace diff --json`` document.
DIFF_SCHEMA_VERSION = 1


@dataclass
class SpanDelta:
    """One aligned call stack's contribution to the wall-clock delta."""

    stack: Tuple[str, ...]
    calls_old: int = 0
    calls_new: int = 0
    self_old_s: float = 0.0
    self_new_s: float = 0.0
    cum_old_s: float = 0.0
    cum_new_s: float = 0.0

    @property
    def self_delta_s(self) -> float:
        """Self-time change, the quantity the attribution sums."""
        return self.self_new_s - self.self_old_s

    @property
    def calls_delta(self) -> int:
        """Call-count change (``+`` means the new run ran it more)."""
        return self.calls_new - self.calls_old

    @property
    def status(self) -> str:
        """``"common"``, ``"new"`` (only in NEW) or ``"gone"`` (only OLD)."""
        if self.calls_old == 0:
            return "new"
        if self.calls_new == 0:
            return "gone"
        return "common"

    def as_dict(self) -> Dict[str, Any]:
        """Plain-JSON row (schema-pinned by the CLI tests)."""
        return {
            "stack": list(self.stack),
            "status": self.status,
            "calls_old": self.calls_old,
            "calls_new": self.calls_new,
            "calls_delta": self.calls_delta,
            "self_old_s": self.self_old_s,
            "self_new_s": self.self_new_s,
            "self_delta_s": self.self_delta_s,
            "cum_old_s": self.cum_old_s,
            "cum_new_s": self.cum_new_s,
        }


@dataclass
class TraceDiff:
    """The aligned diff of two traces."""

    total_old_s: float
    total_new_s: float
    rows: List[SpanDelta] = field(default_factory=list)
    old_command: Optional[str] = None
    new_command: Optional[str] = None

    @property
    def total_delta_s(self) -> float:
        """Wall-clock change between the traces' root spans."""
        return self.total_new_s - self.total_old_s

    @property
    def attributed_delta_s(self) -> float:
        """Sum of per-stack self-time deltas.

        Equals :attr:`total_delta_s` up to self-time clamping (an open
        span's children can nominally exceed it), so the attribution
        accounts for ~100% of the change.
        """
        return sum(row.self_delta_s for row in self.rows)

    def ranked(self) -> List[SpanDelta]:
        """Rows ranked by absolute self-time delta, largest first."""
        return sorted(self.rows,
                      key=lambda r: (-abs(r.self_delta_s), r.stack))


def diff_traces(old: TraceData, new: TraceData) -> TraceDiff:
    """Align two traces by call-stack path and attribute the wall delta."""
    old_stats = {s.stack: s for s in aggregate_stacks(old)}
    new_stats = {s.stack: s for s in aggregate_stacks(new)}
    # New-trace order first (the run under scrutiny), then stacks that
    # disappeared, in the old trace's order.
    stacks = [s.stack for s in aggregate_stacks(new)]
    stacks.extend(s.stack for s in aggregate_stacks(old)
                  if s.stack not in new_stats)
    rows: List[SpanDelta] = []
    for stack in stacks:
        o = old_stats.get(stack)
        n = new_stats.get(stack)
        rows.append(SpanDelta(
            stack=stack,
            calls_old=o.calls if o else 0,
            calls_new=n.calls if n else 0,
            self_old_s=o.self_s if o else 0.0,
            self_new_s=n.self_s if n else 0.0,
            cum_old_s=o.cum_s if o else 0.0,
            cum_new_s=n.cum_s if n else 0.0,
        ))
    return TraceDiff(
        total_old_s=sum(root.duration for root in old.roots),
        total_new_s=sum(root.duration for root in new.roots),
        rows=rows,
        old_command=old.header.get("command"),
        new_command=new.header.get("command"),
    )


def _pct(delta: float, base: float) -> str:
    """``(+41%)``-style relative-change suffix (empty for a zero base)."""
    if base == 0:
        return ""
    return f" ({delta / base:+.0%})"


def diff_as_dict(diff: TraceDiff) -> Dict[str, Any]:
    """The ``repro trace diff --json`` document (schema version 1)."""
    return {
        "schema": DIFF_SCHEMA_VERSION,
        "old": {"command": diff.old_command, "total_s": diff.total_old_s},
        "new": {"command": diff.new_command, "total_s": diff.total_new_s},
        "total_delta_s": diff.total_delta_s,
        "attributed_delta_s": diff.attributed_delta_s,
        "spans": [row.as_dict() for row in diff.ranked()],
    }


def render_diff(diff: TraceDiff, top: int = 20) -> str:
    """Ranked human-readable attribution table (``repro trace diff``)."""
    lines = [
        f"trace diff: old={diff.total_old_s:.4f}s "
        f"new={diff.total_new_s:.4f}s "
        f"delta={diff.total_delta_s:+.4f}s"
        f"{_pct(diff.total_delta_s, diff.total_old_s)}",
        f"attributed to spans: {diff.attributed_delta_s:+.4f}s",
        "",
        f"{'self_delta_s':>13} {'self_old_s':>11} {'self_new_s':>11} "
        f"{'calls':>11}  stack",
        "-" * 86,
    ]
    ranked = diff.ranked()
    for row in ranked[: max(0, top)]:
        calls = (f"{row.calls_old}->{row.calls_new}"
                 if row.calls_delta else f"{row.calls_new}")
        marker = {"new": " [new]", "gone": " [gone]"}.get(row.status, "")
        lines.append(
            f"{row.self_delta_s:>+13.4f} {row.self_old_s:>11.4f} "
            f"{row.self_new_s:>11.4f} {calls:>11}  "
            f"{';'.join(row.stack)}{marker}"
        )
    if len(ranked) > top:
        lines.append(f"... {len(ranked) - top} more stack(s)")
    if not ranked:
        lines.append("(no spans in either trace)")
    return "\n".join(lines)
