"""Instruction-trace representation.

A :class:`Trace` is a struct-of-arrays record of a dynamic instruction
stream: operation class, up to two register dependences (encoded as backward
distances in the stream, the natural form for trace-driven timing), memory
address for loads/stores, PC, and resolved direction for control ops.

The paper drove its simulator with traces of PowerPC SPEC CPU2000
executions; here traces come from the synthetic generators in
:mod:`repro.workloads` (see DESIGN.md for the substitution rationale), but
the simulator is agnostic to their origin.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.simulator import isa
from repro.simulator.branch import BranchUnit
from repro.simulator.config import ProcessorConfig


@dataclass
class Trace:
    """A dynamic instruction trace (struct of arrays).

    Attributes
    ----------
    op:
        ``(n,)`` int8 operation classes (:mod:`repro.simulator.isa` codes).
    src1, src2:
        ``(n,)`` int32 backward dependence distances; 0 means "no operand".
        A value ``d > 0`` at position ``i`` means instruction ``i`` reads
        the result of instruction ``i - d``.
    addr:
        ``(n,)`` int64 effective addresses (0 for non-memory ops).
    pc:
        ``(n,)`` int64 instruction addresses.
    taken:
        ``(n,)`` bool resolved directions (False for non-control ops).
    name:
        Label (benchmark name) used in reports and cache keys.
    """

    op: np.ndarray
    src1: np.ndarray
    src2: np.ndarray
    addr: np.ndarray
    pc: np.ndarray
    taken: np.ndarray
    name: str = "trace"
    # Per-trace invariant caches (see :meth:`prepare`).  A trace is
    # simulated at every point of a design sweep, so the Python-level
    # decode of its arrays is memoised on the instance; the first memo
    # makes the arrays read-only, so an in-place edit raises instead of
    # leaving the memos stale.
    _columns: Optional[Tuple[list, ...]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _pc_lines: Dict[int, List[int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _branch_streams: Dict[Tuple[str, int, int, int], bytes] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        n = len(self.op)
        for field_name in ("src1", "src2", "addr", "pc", "taken"):
            arr = getattr(self, field_name)
            if len(arr) != n:
                raise ValueError(f"{field_name} length {len(arr)} != op length {n}")

    def __len__(self) -> int:
        return len(self.op)

    def validate(self) -> None:
        """Check structural invariants; raises ValueError on violation."""
        n = len(self)
        idx = np.arange(n)
        for name_, arr in (("src1", self.src1), ("src2", self.src2)):
            if np.any(arr < 0):
                raise ValueError(f"{name_} distances must be non-negative")
            bad = arr > idx
            if np.any(bad):
                raise ValueError(
                    f"{name_} reaches before the start of the trace at "
                    f"positions {np.nonzero(bad)[0][:5]}"
                )
        mem_mask = (self.op == isa.LOAD) | (self.op == isa.STORE)
        if np.any(self.addr[mem_mask] <= 0):
            raise ValueError("memory ops must carry positive addresses")
        ctl_mask = (self.op == isa.BRANCH) | (self.op == isa.JUMP)
        if np.any(self.taken[~ctl_mask]):
            raise ValueError("only control ops may be taken")
        if np.any(self.op == isa.JUMP) and not np.all(self.taken[self.op == isa.JUMP]):
            raise ValueError("unconditional jumps must be taken")

    def mix(self) -> dict:
        """Fraction of each op class present in the trace."""
        n = len(self) or 1
        counts = np.bincount(self.op, minlength=isa.NUM_OP_CLASSES)
        return {isa.op_name(code): counts[code] / n for code in range(isa.NUM_OP_CLASSES)}

    def slice(self, start: int, stop: int) -> "Trace":
        """A structural sub-trace; dependence distances are clipped to fit."""
        sl = slice(start, stop)
        src1 = self.src1[sl].copy()
        src2 = self.src2[sl].copy()
        idx = np.arange(len(src1))
        src1[src1 > idx] = 0
        src2[src2 > idx] = 0
        return Trace(
            op=self.op[sl].copy(),
            src1=src1,
            src2=src2,
            addr=self.addr[sl].copy(),
            pc=self.pc[sl].copy(),
            taken=self.taken[sl].copy(),
            name=f"{self.name}[{start}:{stop}]",
        )

    def columns(self) -> Tuple[list, ...]:
        """Decoded per-instruction columns as plain Python lists, memoised.

        Decoding ``(op, src1, src2, addr, pc, taken)`` once per trace —
        instead of once per simulated design point — is a measurable win
        for sweeps, and the values are exactly ``ndarray.tolist()`` of the
        stored arrays, so consumers behave bitwise-identically.  Every memo
        derives from the arrays, so filling this one makes them read-only.
        """
        if self._columns is None:
            arrays = (self.op, self.src1, self.src2, self.addr, self.pc, self.taken)
            self._columns = tuple(arr.tolist() for arr in arrays)
            for arr in arrays:
                arr.flags.writeable = False
        return self._columns

    def pc_lines(self, line_bits: int) -> List[int]:
        """Cache-line ids (``pc >> line_bits``) per instruction, memoised.

        One entry per distinct ``line_bits`` (L1I line size) seen across
        a sweep.
        """
        lines = self._pc_lines.get(line_bits)
        if lines is None:
            self.columns()  # freezes ``pc`` before deriving from it
            lines = (self.pc >> line_bits).tolist()
            self._pc_lines[line_bits] = lines
        return lines

    def branch_stream(self, config: ProcessorConfig) -> bytes:
        """Front-end outcome per instruction under ``config``'s predictor, memoised.

        One :data:`~repro.simulator.branch.PREDICT_OK`,
        :data:`~repro.simulator.branch.PREDICT_BTB_MISS` or
        :data:`~repro.simulator.branch.PREDICT_MISPREDICT` code per
        control instruction, 0 for every other instruction.  The predictor
        and BTB see only ``(pc, taken, conditional)`` in program order,
        never a timestamp, so the stream is the same at every design point
        sharing the predictor geometry, which keys the memo.
        """
        key = (config.bpred_kind, config.bpred_entries, config.bpred_history,
               config.btb_entries)
        stream = self._branch_streams.get(key)
        if stream is None:
            ops, _, _, _, pcs, takens = self.columns()
            predict = BranchUnit(config).predict
            outcomes = bytearray(len(ops))
            control = (self.op == isa.BRANCH) | (self.op == isa.JUMP)
            for i in np.flatnonzero(control).tolist():
                outcomes[i] = predict(pcs[i], takens[i], ops[i] == isa.BRANCH)
            stream = bytes(outcomes)
            self._branch_streams[key] = stream
        return stream

    def prepare(self, line_bits: Optional[int] = None) -> "Trace":
        """Precompute the per-trace invariants used by the core; returns self."""
        self.columns()
        if line_bits is not None:
            self.pc_lines(line_bits)
        return self


def empty_trace(name: str = "empty") -> Trace:
    """A zero-length trace (useful in tests)."""
    return Trace(
        op=np.zeros(0, dtype=np.int8),
        src1=np.zeros(0, dtype=np.int32),
        src2=np.zeros(0, dtype=np.int32),
        addr=np.zeros(0, dtype=np.int64),
        pc=np.zeros(0, dtype=np.int64),
        taken=np.zeros(0, dtype=bool),
        name=name,
    )
