"""An independent reference timing model (the paper's *alphasim* role).

The paper validated its simulator by comparing *trends in the summary
statistics against another similarly configured verified simulator* at
several design points.  This module plays that role: a second, independently
written CPI model that shares no timing code with the detailed engine.

It is a first-order bottleneck model in the spirit of Karkhanis & Smith
(ISCA 2004): run the caches *functionally* over the trace to measure event
rates, then compose CPI from a base (width- and window-limited) term plus
miss-event penalty terms.  Branch outcomes are a property of the trace and
the predictor geometry, so they come from :meth:`Trace.branch_stream`, the
same memoised predictor pass the detailed engine reads; no timing code is
shared.  Being analytically different from the detailed engine, agreement
on trend *direction* between the two is meaningful validation evidence.
"""

from __future__ import annotations

import math

import numpy as np

from repro.simulator import isa
from repro.simulator.branch import PREDICT_MISPREDICT
from repro.simulator.cache import Cache
from repro.simulator.config import ProcessorConfig
from repro.simulator.metrics import SimResult
from repro.simulator.trace import Trace


class ReferenceSimulator:
    """First-order CPI model over functional caches and the branch stream."""

    def __init__(self, config: ProcessorConfig):
        self.config = config

    def run(self, trace: Trace) -> SimResult:
        n = len(trace)
        if n == 0:
            return SimResult(cpi=0.0, cycles=0.0, instructions=0)
        cfg = self.config
        il1 = Cache(cfg.il1_size_kb, cfg.il1_line, cfg.il1_assoc, "il1")
        dl1 = Cache(cfg.dl1_size_kb, cfg.dl1_line, cfg.dl1_assoc, "dl1")
        l2 = Cache(cfg.l2_size_kb, cfg.l2_line, cfg.l2_assoc, "l2")
        ops, _, _, addrs, pcs, _ = trace.columns()
        outcomes = trace.branch_stream(cfg)

        il1_misses = 0
        dl1_misses = 0
        l2_misses = 0
        last_line = -1
        line_bits = il1.line_bits

        # The fetch line and the three caches, in program order; a
        # mispredict restarts the fetch line.
        for op, addr, pc, outcome in zip(ops, addrs, pcs, outcomes):
            line = pc >> line_bits
            if line != last_line:
                last_line = line
                if not il1.access(pc):
                    il1_misses += 1
                    if not l2.access(pc):
                        l2_misses += 1
            if op == isa.LOAD or op == isa.STORE:
                if not dl1.access(addr):
                    dl1_misses += 1
                    if not l2.access(addr):
                        l2_misses += 1
            if outcome == PREDICT_MISPREDICT:
                last_line = -1

        mispredicts = outcomes.count(PREDICT_MISPREDICT)
        conditional = int(np.count_nonzero(trace.op == isa.BRANCH))
        dep_sum = int(trace.src1.sum()) + int(trace.src2.sum())
        dep_count = (int(np.count_nonzero(trace.src1))
                     + int(np.count_nonzero(trace.src2)))

        # Base CPI: issue width bounds throughput; the instruction window
        # bounds extractable ILP following a sqrt law (Riseman/Foster-style
        # scaling), with the mean dependence distance setting the ceiling.
        mean_dep = dep_sum / dep_count if dep_count else 8.0
        window_ilp = math.sqrt(cfg.rob_size * min(cfg.iq_size, cfg.lsq_size) / 2.0) / 2.0
        achievable_ipc = min(cfg.fetch_width, window_ilp, 1.0 + mean_dep / 2.0)
        base_cpi = 1.0 / achievable_ipc

        # Miss-event penalty terms (per instruction).
        memory_lat = cfg.dram_lat + cfg.bus_cycles
        # A larger window hides more of the L2/memory latency.
        overlap = min(0.75, cfg.rob_size / 256.0)
        cpi = base_cpi
        cpi += (il1_misses / n) * cfg.l2_lat
        cpi += (dl1_misses / n) * cfg.l2_lat * (1.0 - overlap / 2.0)
        cpi += (l2_misses / n) * memory_lat * (1.0 - overlap)
        cpi += (mispredicts / n) * (cfg.front_depth + 1.0)
        cpi += (dl1_misses / n) * (cfg.dl1_lat - 1.0) * 0.5

        cycles = cpi * n
        return SimResult(
            cpi=cpi,
            cycles=cycles,
            instructions=n,
            il1_miss_rate=il1.miss_rate,
            dl1_miss_rate=dl1.miss_rate,
            l2_miss_rate=l2.miss_rate,
            branch_mispredict_rate=(mispredicts / conditional
                                    if conditional else 0.0),
        )
