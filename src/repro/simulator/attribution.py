"""Cycle accounting: CPI stacks from per-instruction stall attribution.

The out-of-order core (:mod:`repro.simulator.ooo_core`) computes exact
per-instruction commit times; this module turns the *gaps* between
consecutive commits into a canonical CPI stack.  During an attributed run
the core tags every committed instruction with the cause of its
commit-to-commit gap.  The tag is never re-derived: where the timing loop
takes each max of candidates it records the winner (front end, ROB, IQ
or LSQ at dispatch; the producing operand at issue), and the gap reads
its tag off them.  An empty gap, or one the commit width set, is
``base``.  Otherwise the instruction's completion set it, and the tag is
its own execution level when its service fills at least as much of the
gap as its wait before issue; else ``fu`` when a busy unit delayed
issue; else the winning operand's producer's execution level; else the
dispatch winner.  Folding the tagged gaps gives one cycle total per
component.

Because every timestamp in the simulator is an integer-valued float (all
latencies are configuration integers and every pipeline step adds 1.0),
the per-component sums are exact integer arithmetic below 2**53: the
stack components **sum bitwise-exactly to the measured cycle count**.
The final ``+1.0`` pipeline-drain cycle of the measured region is
attributed to ``base``.

Components, in canonical order:

``base``
    Useful work: commit-width-limited flow, pipeline drain, and gaps
    fully hidden by earlier instructions.
``icache``
    Fetch stalled on an L1I miss.
``btb_bubble`` / ``branch_redirect``
    Front-end refill after a BTB miss bubble or a mispredicted branch
    (the redirect tag also covers the I-cache refill it triggers).
``rob`` / ``iq`` / ``lsq``
    Dispatch blocked on a full reorder buffer, issue queue or
    load/store queue.
``fu``
    Issue delayed by functional-unit contention.
``dep``
    Operand dependence on a non-load producer (execution-chain
    latency, including multi-cycle arithmetic).
``store_forward`` / ``dl1`` / ``l2`` / ``dram``
    Load latency at the level that serviced the load — either the
    load's own service time or a dependent's wait on it.

Interval streams slice the same tagged gaps into windows of K committed
instructions, exposing phase behaviour over a trace; interval cycles sum
exactly to the run total, window by window.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.util.store import write_atomic

# -- component taxonomy ------------------------------------------------------

#: Tag codes, densely numbered; index into :data:`COMPONENTS`.
TAG_BASE = 0
TAG_ICACHE = 1
TAG_BTB = 2
TAG_REDIRECT = 3
TAG_ROB = 4
TAG_IQ = 5
TAG_LSQ = 6
TAG_FU = 7
TAG_DEP = 8
TAG_STORE_FORWARD = 9
TAG_DL1 = 10
TAG_L2 = 11
TAG_DRAM = 12

#: Canonical component order for tables, stacks and serialised records.
COMPONENTS: Tuple[str, ...] = (
    "base",
    "icache",
    "btb_bubble",
    "branch_redirect",
    "rob",
    "iq",
    "lsq",
    "fu",
    "dep",
    "store_forward",
    "dl1",
    "l2",
    "dram",
)

#: Components counted as memory stalls by :meth:`CPIStack.memory_fraction`.
MEMORY_COMPONENTS: Tuple[str, ...] = ("icache", "store_forward", "dl1", "l2", "dram")

#: Components counted as front-end stalls (fetch-side bubbles).
FRONTEND_COMPONENTS: Tuple[str, ...] = ("icache", "btb_bubble", "branch_redirect")


@dataclass(frozen=True)
class CPIStack:
    """A folded CPI stack: cycles per component over one measured region.

    ``components`` maps every name in :data:`COMPONENTS` (canonical
    order preserved) to its cycle total; the invariant
    ``sum(components.values()) == cycles`` holds bitwise (integer-valued
    floats throughout).
    """

    components: Dict[str, float]
    cycles: float
    instructions: int

    @property
    def cpi(self) -> float:
        """Overall cycles per instruction for the measured region."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def cpi_components(self) -> Dict[str, float]:
        """The stack in CPI units (cycles per component / instructions)."""
        if not self.instructions:
            return {name: 0.0 for name in self.components}
        return {k: v / self.instructions for k, v in self.components.items()}

    def fractions(self) -> Dict[str, float]:
        """The stack normalised to fractions of total cycles."""
        if not self.cycles:
            return {name: 0.0 for name in self.components}
        return {k: v / self.cycles for k, v in self.components.items()}

    def memory_fraction(self) -> float:
        """Fraction of cycles attributed to the memory system."""
        if not self.cycles:
            return 0.0
        return sum(self.components[name] for name in MEMORY_COMPONENTS) / self.cycles

    def frontend_fraction(self) -> float:
        """Fraction of cycles attributed to front-end bubbles."""
        if not self.cycles:
            return 0.0
        return sum(self.components[name] for name in FRONTEND_COMPONENTS) / self.cycles

    def as_dict(self) -> Dict[str, float]:
        """Flat JSON-ready form (component order preserved)."""
        return dict(self.components)


@dataclass(frozen=True)
class IntervalRecord:
    """One K-instruction window of an attributed run."""

    index: int
    first: int  # trace index of the window's first instruction
    instructions: int
    cycles: float
    components: Dict[str, float]

    @property
    def cpi(self) -> float:
        """Window cycles per instruction."""
        return self.cycles / self.instructions if self.instructions else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-ready form used by the JSONL interval stream."""
        return {
            "index": self.index,
            "first": self.first,
            "instructions": self.instructions,
            "cycles": self.cycles,
            "cpi": self.cpi,
            "components": dict(self.components),
        }


@dataclass
class Attribution:
    """Raw attribution output of one core run: tags plus commit times.

    Holds references to the core's per-instruction arrays (no copies) so
    stacks and interval streams at any window size can be folded after
    the run without re-simulating.
    """

    tags: List[int]
    commit: Sequence[float]
    warmup: int
    warm_commit: float
    _stack: Optional[CPIStack] = field(default=None, repr=False)

    def stack(self) -> CPIStack:
        """The full-region CPI stack (folded once, then cached)."""
        if self._stack is None:
            self._stack = fold_stack(
                self.tags, self.commit, self.warmup, self.warm_commit
            )
        return self._stack

    def intervals(self, k: int) -> List[IntervalRecord]:
        """Windowed stacks over the measured region, K instructions each."""
        return build_intervals(
            self.tags, self.commit, self.warmup, self.warm_commit, k
        )


# -- folding -----------------------------------------------------------------


def fold_stack(
    tags: Sequence[int],
    commit: Sequence[float],
    warmup: int,
    warm_commit: float,
) -> CPIStack:
    """Fold tagged commit gaps into a :class:`CPIStack`.

    The :func:`build_intervals` fold with one window over the whole
    measured region ``[warmup, n)``: the gap of instruction ``i`` is
    ``commit[i] - commit[i-1]`` (telescoping to the region's cycle
    count), and the trailing ``+1.0`` drain cycle lands in ``base``.
    """
    (window,) = build_intervals(tags, commit, warmup, warm_commit,
                                len(commit) - warmup)
    return CPIStack(
        components=window.components,
        cycles=window.cycles,
        instructions=window.instructions,
    )


def build_intervals(
    tags: Sequence[int],
    commit: Sequence[float],
    warmup: int,
    warm_commit: float,
    k: int,
) -> List[IntervalRecord]:
    """Slice the measured region into windows of ``k`` instructions.

    Window cycles sum exactly to the run's measured cycles: each window
    spans the commit times of its instructions, and the final window
    carries the ``+1.0`` drain cycle (in ``base``).  :func:`fold_stack`
    is the case of one window.
    """
    n = len(commit)
    if len(tags) != n:
        raise ValueError("tags and commit must have equal length")
    if not 0 <= warmup < n:
        raise ValueError("warmup must leave at least one measured instruction")
    if k < 1:
        raise ValueError("interval size must be >= 1")
    records: List[IntervalRecord] = []
    prev = warm_commit
    for start in range(warmup, n, k):
        end = min(start + k, n)
        totals = [0.0] * len(COMPONENTS)
        window_start = prev
        for i in range(start, end):
            c = commit[i]
            gap = c - prev
            if gap:
                totals[tags[i]] += gap
            prev = c
        cycles = prev - window_start
        if end == n:
            totals[TAG_BASE] += 1.0
            cycles += 1.0
        records.append(
            IntervalRecord(
                index=len(records),
                first=start,
                instructions=end - start,
                cycles=cycles,
                components=dict(zip(COMPONENTS, totals)),
            )
        )
    return records


# -- serialisation -----------------------------------------------------------

#: Schema version of the JSONL interval stream.
INTERVAL_SCHEMA = 1


def write_intervals_jsonl(
    path: "Path | str",
    intervals: Iterable[IntervalRecord],
    **meta: Any,
) -> int:
    """Write an interval stream as JSONL: one header line, one per window.

    ``meta`` (benchmark, design point, window size, ...) lands in the
    header.  Keys are sorted for byte-determinism, matching the ``obs``
    trace sink discipline.  The file is replaced atomically
    (:func:`repro.util.store.write_atomic`); read it back with
    :func:`repro.util.store.read_jsonl`.  Returns the number of interval
    lines written.
    """
    header = {"kind": "cpi_intervals", "schema": INTERVAL_SCHEMA}
    header.update(meta)
    lines = [json.dumps(header, sort_keys=True)]
    lines += [json.dumps(record.as_dict(), sort_keys=True)
              for record in intervals]
    write_atomic(path, "\n".join(lines) + "\n")
    return len(lines) - 1


def emit_interval_events(
    intervals: Iterable[IntervalRecord],
    **meta: Any,
) -> int:
    """Record the interval stream as structured ``obs`` events.

    Each window becomes one ``cpi_interval`` event on the active
    collector (persisted by ``obs.write_trace`` alongside spans and
    metrics); a no-op while tracing is off.  Returns the number of
    events recorded.
    """
    from repro import obs

    if not obs.enabled():
        return 0
    count = 0
    for record in intervals:
        obs.record_event("cpi_interval", **record.as_dict(), **meta)
        count += 1
    return count


# -- rendering ---------------------------------------------------------------


def render_stack_table(
    stacks: Mapping[str, CPIStack],
    normalize: bool = False,
    bar_width: int = 32,
) -> str:
    """Plain-text CPI-stack table with per-component bars.

    One row per component, one column per labelled stack; each cell
    shows CPI contribution (or fraction with ``normalize=True``).  The
    bar column visualises the first stack's breakdown.
    """
    labels = list(stacks)
    if not labels:
        return "(no stacks)"
    rows: List[List[str]] = []
    first = stacks[labels[0]]
    first_fracs = first.fractions()
    for name in COMPONENTS:
        cells = []
        for label in labels:
            stack = stacks[label]
            value = (
                stack.fractions()[name] if normalize else stack.cpi_components()[name]
            )
            cells.append(f"{value:.4f}")
        bar = "#" * int(round(first_fracs[name] * bar_width))
        rows.append([name] + cells + [bar])
    header = ["component"] + labels + [f"share[{labels[0]}]"]
    totals = ["total"] + [
        f"{(1.0 if normalize else stacks[label].cpi):.4f}" for label in labels
    ] + [""]
    widths = [
        max(len(str(row[col])) for row in [header] + rows + [totals])
        for col in range(len(header))
    ]

    def fmt(row: List[str]) -> str:
        return "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [fmt(header), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    lines.append(fmt(["-" * w for w in widths]))
    lines.append(fmt(totals))
    return "\n".join(lines)
