"""Workload characterisation: architecture-independent trace statistics.

Related work the paper discusses (Eeckhout et al.'s statistical simulation,
Marin & Mellor-Crummey's parameterised models) starts from exactly these
quantities: instruction mix, dependence-distance distribution, working-set
sizes, and branch behaviour — all measured from the trace alone, with no
microarchitecture in sight.

The characterisation also closes the loop on the synthetic workloads: the
tests verify that generated traces actually exhibit the properties their
profiles promise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from repro.simulator import isa
from repro.simulator.trace import Trace


@dataclass(frozen=True)
class TraceCharacteristics:
    """Architecture-independent summary of one trace."""

    instructions: int
    mix: Dict[str, float]
    mean_dep_distance: float
    dep_distance_p90: float
    code_footprint_kb: float
    data_footprint_kb: float
    #: Distinct 64B data lines touched within sliding windows of these
    #: sizes (in memory references) — a working-set curve.
    working_set_lines: Dict[int, float] = field(default_factory=dict)
    branch_fraction: float = 0.0
    taken_fraction: float = 0.0
    branch_entropy_bits: float = 0.0  # mean per-site outcome entropy

    def memory_fraction(self) -> float:
        return self.mix.get("load", 0.0) + self.mix.get("store", 0.0)


def _per_site_entropy(pcs: np.ndarray, taken: np.ndarray) -> float:
    """Mean Bernoulli entropy of branch outcomes, weighted by execution."""
    if len(pcs) == 0:
        return 0.0
    total = 0.0
    for pc in np.unique(pcs):
        outcomes = taken[pcs == pc]
        p = outcomes.mean()
        if 0.0 < p < 1.0:
            h = -p * math.log2(p) - (1 - p) * math.log2(1 - p)
        else:
            h = 0.0
        total += h * len(outcomes)
    return total / len(pcs)


#: Memory-reference window lengths the working-set sizes are measured over.
WINDOW_SIZES = (64, 256, 1024, 4096)


def characterize(trace: Trace) -> TraceCharacteristics:
    """Measure :class:`TraceCharacteristics` for ``trace``."""
    n = len(trace)
    if n == 0:
        raise ValueError("cannot characterise an empty trace")

    mix = trace.mix()

    deps = np.concatenate([trace.src1[trace.src1 > 0], trace.src2[trace.src2 > 0]])
    mean_dep = float(deps.mean()) if len(deps) else 0.0
    p90_dep = float(np.percentile(deps, 90)) if len(deps) else 0.0

    code_kb = float(trace.pc.max() - trace.pc.min() + 4) / 1024.0

    mem_mask = (trace.op == isa.LOAD) | (trace.op == isa.STORE)
    addrs = trace.addr[mem_mask]
    lines = addrs >> 6
    data_kb = len(np.unique(lines)) * 64 / 1024.0 if len(lines) else 0.0

    working_sets: Dict[int, float] = {}
    for w in WINDOW_SIZES:
        if len(lines) < w:
            continue
        # Sample windows rather than sliding exhaustively.
        starts = np.linspace(0, len(lines) - w, num=min(32, len(lines) - w + 1))
        counts = [
            len(np.unique(lines[int(s):int(s) + w])) for s in starts
        ]
        working_sets[w] = float(np.mean(counts))

    branch_mask = trace.op == isa.BRANCH
    branch_frac = float(branch_mask.mean())
    taken_frac = float(trace.taken[branch_mask].mean()) if branch_mask.any() else 0.0
    entropy = _per_site_entropy(trace.pc[branch_mask], trace.taken[branch_mask])

    return TraceCharacteristics(
        instructions=n,
        mix=mix,
        mean_dep_distance=mean_dep,
        dep_distance_p90=p90_dep,
        code_footprint_kb=code_kb,
        data_footprint_kb=data_kb,
        working_set_lines=working_sets,
        branch_fraction=branch_frac,
        taken_fraction=taken_frac,
        branch_entropy_bits=entropy,
    )


def compare(a: TraceCharacteristics, b: TraceCharacteristics) -> Dict[str, float]:
    """Relative differences of the headline statistics (diagnostics)."""

    def rel(x: float, y: float) -> float:
        base = max(abs(x), abs(y), 1e-12)
        return abs(x - y) / base

    return {
        "memory_fraction": rel(a.memory_fraction(), b.memory_fraction()),
        "mean_dep_distance": rel(a.mean_dep_distance, b.mean_dep_distance),
        "code_footprint_kb": rel(a.code_footprint_kb, b.code_footprint_kb),
        "data_footprint_kb": rel(a.data_footprint_kb, b.data_footprint_kb),
        "branch_fraction": rel(a.branch_fraction, b.branch_fraction),
        "branch_entropy_bits": rel(a.branch_entropy_bits, b.branch_entropy_bits),
    }
