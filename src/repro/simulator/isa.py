"""Instruction classes and execution latencies.

The trace format is ISA-neutral: instructions carry an operation class, up
to two register dependences (as backward distances in the instruction
stream), an optional memory address, and branch metadata.  Latencies and
initiation intervals follow typical early-2000s superscalar designs
(Alpha 21264 / POWER4-era), matching the paper's simulation era.
"""

from __future__ import annotations

from typing import Dict, Tuple

# Operation class codes (kept as small ints: traces store them in int8 arrays).
IALU = 0
IMULT = 1
IDIV = 2
FPALU = 3
FPMULT = 4
FPDIV = 5
LOAD = 6
STORE = 7
BRANCH = 8  # conditional branch
JUMP = 9  # unconditional direct jump/call

NUM_OP_CLASSES = 10

OP_NAMES = {
    IALU: "ialu",
    IMULT: "imult",
    IDIV: "idiv",
    FPALU: "fpalu",
    FPMULT: "fpmult",
    FPDIV: "fpdiv",
    LOAD: "load",
    STORE: "store",
    BRANCH: "branch",
    JUMP: "jump",
}

#: (execution latency, initiation interval) per op class, in cycles.  Loads
#: and stores list only the address-generation part; memory access timing
#: comes from the cache hierarchy.
OP_TIMING: Dict[int, Tuple[int, int]] = {
    IALU: (1, 1),
    IMULT: (7, 1),
    IDIV: (20, 19),  # unpipelined divider
    FPALU: (4, 1),
    FPMULT: (4, 1),
    FPDIV: (16, 15),  # unpipelined divider
    LOAD: (1, 1),
    STORE: (1, 1),
    BRANCH: (1, 1),
    JUMP: (1, 1),
}

#: Functional-unit pool of each op class; op classes naming the same pool
#: share its units (see :func:`repro.simulator.resources.fu_pools`).
FU_CLASS = {
    IALU: "ialu",
    IMULT: "imult",
    IDIV: "imult",
    FPALU: "fp",
    FPMULT: "fp",
    FPDIV: "fp",
    LOAD: "mem",
    STORE: "mem",
    BRANCH: "ialu",
    JUMP: "ialu",
}


def op_name(op: int) -> str:
    """Human-readable name of an op class; raises ValueError if unknown."""
    try:
        return OP_NAMES[op]
    except KeyError:
        raise ValueError(f"unknown op class {op}")
