"""Trace profiling into the statistics used by statistical simulation.

Captures what Eeckhout et al. call the *statistical profile*: instruction
mix, basic-block size distribution, register dependence-distance
distribution, branch behaviour (taken rate and per-site predictability),
and — the part that matters most for memory behaviour — the reuse-distance
distribution of data cache lines, measured in distinct-lines-between-reuses
(stack distance), bucketed into octaves.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.simulator import isa
from repro.simulator.trace import Trace

#: Reuse distances are bucketed into powers of two up to this many lines;
#: anything beyond (or never reused) falls into the "cold" bucket.
MAX_REUSE_LINES = 1 << 17

#: Reuse distances are measured over the trace's first 2 * REUSE_SAMPLE
#: memory references, the first WARM_FRAC of which only warm the stack.
REUSE_SAMPLE = 6000
WARM_FRAC = 0.25


@dataclass
class StatProfile:
    """Measured statistics of one program trace."""

    instructions: int
    op_mix: Dict[int, float]  # op class -> fraction of non-control slots
    block_lengths: List[Tuple[int, float]]  # (length, probability)
    dep_distances: List[Tuple[int, float]]  # (distance, probability)
    dep2_prob: float
    jump_frac_of_control: float
    taken_frac: float
    branch_bias: float  # mean per-site dominant-outcome frequency
    num_branch_sites: int
    code_footprint_instrs: int
    #: (octave upper bound in lines, probability) for data-line reuse;
    #: the final entry with bound 0 holds the cold/compulsory share.
    reuse_octaves: List[Tuple[int, float]] = field(default_factory=list)
    store_frac_of_mem: float = 0.0
    #: Fraction of loads whose first operand is produced by another load —
    #: the pointer-chasing (serialised memory) share, which dominates how
    #: much memory latency the window can hide.
    load_load_dep_frac: float = 0.0


def _reuse_octaves(lines: np.ndarray) -> List[Tuple[int, float]]:
    """Stack-distance histogram over octaves (LRU stack via OrderedDict).

    The first :data:`WARM_FRAC` of the references only warm the stack and are
    excluded from the histogram — otherwise every first touch of the hot
    working set is misclassified as cold, inflating the synthetic trace's
    compulsory-miss share.
    """
    stack: "OrderedDict[int, None]" = OrderedDict()
    octaves: Dict[int, int] = {}
    cold = 0
    recorded = 0
    warm_until = int(len(lines) * WARM_FRAC)
    for i, line in enumerate(lines.tolist()):
        record = i >= warm_until
        if record:
            recorded += 1
        if line in stack:
            # Stack distance = number of distinct lines above this one.
            depth = 0
            for key in reversed(stack):
                if key == line:
                    break
                depth += 1
            stack.move_to_end(line)
            if record:
                bound = 1
                while bound < max(depth, 1) and bound < MAX_REUSE_LINES:
                    bound <<= 1
                octaves[bound] = octaves.get(bound, 0) + 1
        else:
            if record:
                cold += 1
            stack[line] = None
            if len(stack) > MAX_REUSE_LINES:
                stack.popitem(last=False)
    total = recorded or 1
    out = [(bound, count / total) for bound, count in sorted(octaves.items())]
    out.append((0, cold / total))
    return out


def profile_trace(trace: Trace) -> StatProfile:
    """Measure a :class:`StatProfile` from ``trace``.

    :data:`REUSE_SAMPLE` caps the memory references used for the
    stack-distance measurement; the leading portion of the trace is used,
    which is how profiling tools subsample too.
    """
    n = len(trace)
    if n == 0:
        raise ValueError("cannot profile an empty trace")

    control = (trace.op == isa.BRANCH) | (trace.op == isa.JUMP)
    non_control = ~control
    ops = trace.op[non_control]
    counts = np.bincount(ops, minlength=isa.NUM_OP_CLASSES).astype(float)
    total_nc = counts.sum() or 1.0
    op_mix = {
        code: counts[code] / total_nc
        for code in range(isa.NUM_OP_CLASSES)
        if counts[code] > 0
    }

    # Basic blocks end at control instructions.
    ends = np.nonzero(control)[0]
    if len(ends):
        starts = np.concatenate([[-1], ends[:-1]])
        lengths = (ends - starts).astype(int)
        values, freq = np.unique(lengths, return_counts=True)
        block_lengths = [(int(v), float(f) / len(lengths)) for v, f in zip(values, freq)]
    else:
        block_lengths = [(min(n, 8), 1.0)]

    deps = np.concatenate([trace.src1[trace.src1 > 0], trace.src2[trace.src2 > 0]])
    if len(deps):
        capped = np.minimum(deps, 64)
        values, freq = np.unique(capped, return_counts=True)
        dep_distances = [(int(v), float(f) / len(capped)) for v, f in zip(values, freq)]
    else:
        dep_distances = [(1, 1.0)]
    dep2_prob = float((trace.src2 > 0).mean())

    branches = trace.op == isa.BRANCH
    jumps = trace.op == isa.JUMP
    num_control = int(control.sum()) or 1
    taken_frac = float(trace.taken[branches].mean()) if branches.any() else 0.0
    biases = []
    pcs = trace.pc[branches]
    outcomes = trace.taken[branches]
    for pc in np.unique(pcs):
        site = outcomes[pcs == pc]
        p = site.mean()
        biases.append(max(p, 1 - p))
    mem_mask = (trace.op == isa.LOAD) | (trace.op == isa.STORE)
    mem_lines = (trace.addr[mem_mask] >> 6)[: 2 * REUSE_SAMPLE]
    stores = trace.op[mem_mask]

    # Load -> load dependence share (serialised pointer chains).
    load_idx = np.nonzero(trace.op == isa.LOAD)[0]
    chained = 0
    for i in load_idx.tolist():
        d = int(trace.src1[i])
        if d and trace.op[i - d] == isa.LOAD:
            chained += 1
    load_load = chained / len(load_idx) if len(load_idx) else 0.0

    return StatProfile(
        instructions=n,
        op_mix=op_mix,
        block_lengths=block_lengths,
        dep_distances=dep_distances,
        dep2_prob=dep2_prob,
        jump_frac_of_control=float(jumps.sum()) / num_control,
        taken_frac=taken_frac,
        branch_bias=float(np.mean(biases)) if biases else 1.0,
        num_branch_sites=len(np.unique(pcs)) if branches.any() else 1,
        code_footprint_instrs=int((trace.pc.max() - trace.pc.min()) // 4 + 1),
        reuse_octaves=_reuse_octaves(mem_lines),
        store_frac_of_mem=float((stores == isa.STORE).mean()) if mem_mask.any() else 0.0,
        load_load_dep_frac=load_load,
    )
