"""The out-of-order superscalar timing engine.

For every trace instruction the engine computes five timestamps — fetch,
dispatch, issue, completion, commit — under the full set of machine
constraints:

* **Fetch**: ``fetch_width`` instructions per cycle; an L1I line change
  probes the instruction cache and a miss stalls fetch until the line
  returns; a branch misprediction or BTB miss restarts fetch at the
  branch's resolution time.
* **Dispatch**: fetch plus the front-end depth (rename/decode stages, which
  grow with the paper's ``pipe_depth`` parameter), gated by free ROB, issue
  queue and LSQ entries — an entry frees when the instruction occupying it
  issues (IQ) or commits (ROB, LSQ).
* **Issue**: out of order, when both operands are complete and a functional
  unit of the right class is free (dividers are unpipelined).
* **Completion**: issue plus the op latency; loads walk the cache
  hierarchy (D-L1, unified L2, memory controller, DRAM banks and bus) or
  forward from an in-flight store in the LSQ window.
* **Commit**: in order, ``commit_width`` per cycle; stores update the data
  cache after commit.

On a machine without TLBs or writeback traffic (every point of the
paper's space, prefetching machines too) the loop probes the D-L1 set list
itself, for each load that does not forward and each store after commit:
true LRU exactly as :meth:`Cache.access <repro.simulator.cache.Cache.access>`,
entering the hierarchy only on a miss, through
:meth:`MemoryHierarchy.l1_miss`.  A stride prefetcher sees each such
access's ``(pc, addr)`` first and sends its lines to the L2 at the access's
time, through :meth:`MemoryHierarchy.prefetch`.  The probe models neither
a page walk on every access nor dirty victims on every eviction, so a TLB
or writeback routes loads and stores through :meth:`MemoryHierarchy.access`
instead; instruction fetch always goes through
:meth:`MemoryHierarchy.fetch`.

Mispredicted branches redirect the front end when they *resolve*
(completion), so the misprediction penalty scales with both pipeline depth
and the latency of the dependence chain feeding the branch — the key
depth x window x memory interaction the paper's non-linear models capture.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro import obs
from repro.simulator import isa
from repro.simulator.attribution import (
    COMPONENTS,
    TAG_BASE,
    TAG_BTB,
    TAG_DEP,
    TAG_DL1,
    TAG_DRAM,
    TAG_FU,
    TAG_ICACHE,
    TAG_IQ,
    TAG_L2,
    TAG_LSQ,
    TAG_REDIRECT,
    TAG_ROB,
    TAG_STORE_FORWARD,
    Attribution,
)
from repro.simulator.branch import PREDICT_BTB_MISS, PREDICT_MISPREDICT, PREDICT_OK
from repro.simulator.config import ProcessorConfig
from repro.simulator.hierarchy import MemoryHierarchy
from repro.simulator.metrics import SimResult
from repro.simulator.power import estimate_energy
from repro.simulator.resources import fu_pools
from repro.simulator.trace import Trace


@dataclass
class Timeline:
    """Per-instruction timestamps (collected on request, mostly for tests)."""

    fetch: List[float]
    dispatch: List[float]
    issue: List[float]
    complete: List[float]
    commit: List[float]


class OutOfOrderCore:
    """One simulated processor instance (single use per trace run)."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.hierarchy = MemoryHierarchy(config)
        self.timeline: Optional[Timeline] = None
        self.attribution: Optional[Attribution] = None
        self.forwarded_loads = 0
        self.load_count = 0

    def _counters(self) -> dict:
        """Raw machine event counters (snapshotted at the warmup boundary)."""
        h = self.hierarchy
        return {
            "il1_acc": h.il1.accesses,
            "il1_miss": h.il1.misses,
            "dl1_acc": h.dl1.accesses,
            "dl1_miss": h.dl1.misses,
            "l2_acc": h.l2.accesses,
            "l2_miss": h.l2.misses,
            "mem_req": h.memctrl.requests,
            "queue_delay": h.memctrl.total_queue_delay,
            "dram_acc": h.dram.accesses,
            "dram_rowhit": h.dram.row_hits,
            "loads": self.load_count,
            "forwarded": self.forwarded_loads,
        }

    def _add_dl1_counts(self, accesses: int, misses: int) -> None:
        """Fold the loop's own D-L1 probe counts into the cache's counters."""
        self.hierarchy.dl1.accesses += accesses
        self.hierarchy.dl1.misses += misses

    def run(
        self,
        trace: Trace,
        collect_timeline: bool = False,
        warmup: Optional[int] = None,
        collect_attribution: bool = False,
    ) -> SimResult:
        """Simulate ``trace`` to completion and return the results.

        Parameters
        ----------
        trace:
            The instruction trace.
        collect_timeline:
            Record per-instruction timestamps in :attr:`timeline`.
        warmup:
            Number of leading instructions excluded from the reported CPI
            and event rates (caches and predictors warm during them).
            Defaults to one eighth of the trace; pass 0 to measure from a
            cold machine.
        collect_attribution:
            Tag each committed instruction with the cause of its commit
            gap, read off the candidates that won the loop's own maxes,
            and fold the tags into a CPI stack (see
            :mod:`repro.simulator.attribution`); raw tags land in
            :attr:`attribution`, the folded stack in the result's
            ``stack`` field.  Off by default; the untagged path is
            bitwise-identical with the flag off.
        """
        n = len(trace)
        if n == 0:
            # Keep the result shape consistent with a non-empty run: the
            # event-count extras exist (at zero) and, when attribution was
            # requested, so does an all-zero stack.
            if collect_timeline:
                self.timeline = Timeline([], [], [], [], [])
            return SimResult(
                cpi=0.0,
                cycles=0.0,
                instructions=0,
                extra={
                    "il1_accesses": 0.0,
                    "dl1_accesses": 0.0,
                    "l2_accesses": 0.0,
                    "memory_requests": 0.0,
                },
                stack=(
                    {name: 0.0 for name in COMPONENTS}
                    if collect_attribution else None
                ),
            )
        if warmup is None:
            warmup = n // 8
        if not 0 <= warmup < n:
            raise ValueError("warmup must leave at least one measured instruction")

        cfg = self.config
        hier = self.hierarchy

        fetch_width = cfg.fetch_width
        commit_width = cfg.commit_width
        perfect_bpred = cfg.perfect_branch_prediction
        perfect_dcache = cfg.perfect_dcache
        perfect_icache = cfg.perfect_icache
        dl1_lat = float(cfg.dl1_lat)
        front = cfg.front_depth
        rob = cfg.rob_size
        iq = cfg.iq_size
        lsq = cfg.lsq_size
        line_bits = hier.il1.line_bits
        op_timing = isa.OP_TIMING
        # Per op class: its FU pool's unit free times (a min-heap) and its
        # initiation interval.
        fu_free = fu_pools(cfg)
        fu_interval = [op_timing[op][1] for op in range(isa.NUM_OP_CLASSES)]
        heapreplace = heapq.heapreplace
        load_op, store_op = isa.LOAD, isa.STORE
        # D-L1 probe state (see the module docstring); the counts fold into
        # the cache at the warmup boundary and at the end of the run.
        probe_dl1 = not (cfg.enable_tlb or cfg.writeback)
        dl1_sets, dl1_mask = hier.dl1.sets, hier.dl1.num_sets - 1
        dl1_assoc, dl1_bits = hier.dl1.assoc, hier.dl1.line_bits
        l1_miss = hier.l1_miss
        stride = hier.stride
        dl1_acc = dl1_miss = 0

        complete = [0.0] * n
        commit = [0.0] * n
        issue_at = [0.0] * n
        mem_commit: List[float] = []  # commit times of memory ops, in order
        store_buf = {}  # addr -> (mem index, data-ready time)
        mem_count = 0

        fetch_cycle = 0.0
        slots = 0
        cur_line = -1
        warm_counters = self._counters() if warmup == 0 else None
        warm_commit = 0.0

        if collect_timeline:  # the other three stages are the loop's lists
            fetch_times: List[float] = []
            dispatch_times: List[float] = []

        # Cycle-attribution state: each max records its winner.
        # ``fetch_tag`` explains ``fetch_cycle`` (base advance, I-cache
        # stall, redirect or BTB bubble), ``dispatch_tag`` the dispatch
        # time (front end, ROB, IQ or LSQ) and ``producer`` the issue
        # request (the winning operand's distance back, 0 for none).
        # ``redirect_pending`` keeps the I-cache miss a front-end restart
        # forces attributed to the restart.  These plain stores run
        # unconditionally; the rest is gated on ``collect_attribution``.
        fetch_tag = TAG_BASE
        redirect_pending = False
        if collect_attribution:
            attr_tags: List[int] = []
            exec_level = [0] * n
            level_tag = {"dl1": TAG_DL1, "l2": TAG_L2, "dram": TAG_DRAM}

        # Per-trace invariants: the decoded columns, per-instruction L1I
        # line ids and branch outcomes are identical at every design point
        # of a sweep, so they are memoised on the trace rather than
        # recomputed per run.
        ops, src1s, src2s, addrs, pcs, _ = trace.columns()
        pc_line = trace.pc_lines(line_bits)
        outcomes = trace.branch_stream(cfg)

        for i, (op, s1, s2, addr, pc, line, outcome) in enumerate(
            zip(ops, src1s, src2s, addrs, pcs, pc_line, outcomes)
        ):
            # ---- fetch -------------------------------------------------
            if slots >= fetch_width:
                fetch_cycle += 1.0
                slots = 0
                fetch_tag = TAG_BASE
                redirect_pending = False
            if line != cur_line:
                cur_line = line
                if not perfect_icache:
                    ready = hier.fetch(pc, fetch_cycle)
                    if ready > fetch_cycle:
                        fetch_cycle = ready
                        slots = 0
                        if not redirect_pending:
                            fetch_tag = TAG_ICACHE
                    redirect_pending = False
            fetch_time = fetch_cycle
            slots += 1

            # ---- dispatch (ROB / IQ / LSQ allocation) ----------------------
            dispatch = fetch_time + front
            dispatch_tag = fetch_tag
            if i >= rob:
                t = commit[i - rob] + 1.0
                if t > dispatch:
                    dispatch = t
                    dispatch_tag = TAG_ROB
            if i >= iq:
                t = issue_at[i - iq] + 1.0
                if t > dispatch:
                    dispatch = t
                    dispatch_tag = TAG_IQ
            is_mem = op == load_op or op == store_op
            if is_mem and mem_count >= lsq:
                t = mem_commit[mem_count - lsq] + 1.0
                if t > dispatch:
                    dispatch = t
                    dispatch_tag = TAG_LSQ

            # ---- issue (operands + functional unit) -----------------------
            issue = dispatch + 1.0
            producer = 0
            if s1:
                t = complete[i - s1]
                if t > issue:
                    issue = t
                    producer = s1
            if s2:
                t = complete[i - s2]
                if t > issue:
                    issue = t
                    producer = s2
            # The pool's earliest-free unit, the root of its free-time heap.
            free = fu_free[op]
            best = free[0]
            start = issue if issue >= best else best
            heapreplace(free, start + fu_interval[op])
            issue_at[i] = start

            # ---- execute ----------------------------------------------------
            exec_tag = TAG_DEP
            if op == load_op:
                self.load_count += 1
                fwd = store_buf.get(addr)
                if perfect_dcache:
                    comp = start + dl1_lat
                    exec_tag = TAG_DL1
                elif fwd is not None and mem_count - fwd[0] <= lsq:
                    # Store-to-load forwarding within the LSQ window.
                    comp = (start if start >= fwd[1] else fwd[1]) + 1.0
                    self.forwarded_loads += 1
                    exec_tag = TAG_STORE_FORWARD
                elif probe_dl1:
                    if stride is not None:
                        hier.prefetch(stride.on_access(pc, addr), start)
                    dline = addr >> dl1_bits
                    ways = dl1_sets[dline & dl1_mask]
                    dl1_acc += 1
                    if dline in ways:
                        if ways[-1] != dline:
                            ways.remove(dline)
                            ways.append(dline)
                        comp = start + dl1_lat
                        exec_tag = TAG_DL1
                    else:
                        dl1_miss += 1
                        if len(ways) >= dl1_assoc:
                            del ways[0]
                        ways.append(dline)
                        comp = l1_miss(addr, start + dl1_lat)
                        if collect_attribution:
                            exec_tag = level_tag[hier.last_level]
                else:
                    comp = hier.access(addr, start, pc)
                    if collect_attribution:
                        exec_tag = level_tag[hier.last_level]
            elif op == store_op:
                comp = start + 1.0  # address generation; data drains post-commit
                store_buf[addr] = (mem_count, comp)
                if len(store_buf) > 4 * lsq + 64:
                    floor = mem_count - lsq
                    store_buf = {a: v for a, v in store_buf.items() if v[0] >= floor}
            else:
                comp = start + op_timing[op][0]
            complete[i] = comp

            # ---- control resolution -------------------------------------
            if outcome != PREDICT_OK:
                if perfect_bpred:
                    outcome = PREDICT_OK  # oracle front end: never redirect
                if outcome == PREDICT_MISPREDICT:
                    # Redirect: fetch restarts when the branch resolves.
                    if comp > fetch_cycle:
                        fetch_cycle = comp
                        fetch_tag = TAG_REDIRECT
                        redirect_pending = True
                    slots = 0
                    cur_line = -1
                elif outcome == PREDICT_BTB_MISS:
                    # Target computed in the front end: short fetch bubble.
                    fetch_cycle = fetch_time + 2.0
                    slots = 0
                    cur_line = -1
                    fetch_tag = TAG_BTB
                    redirect_pending = True

            # ---- commit (in order, width-limited) -----------------------
            c = comp + 1.0
            if i > 0 and commit[i - 1] > c:
                c = commit[i - 1]
            if i >= commit_width and commit[i - commit_width] + 1.0 > c:
                c = commit[i - commit_width] + 1.0
            commit[i] = c
            if collect_attribution:
                # An empty gap, or one the commit width set, is base.
                # Otherwise completion set ``c``: blame the op's own
                # service if it fills at least as much of the gap as the
                # wait before issue (only the part of (start, comp] past
                # ``prev_c`` counts, so a back-pressured op reaches its
                # cause), else the winner at issue, else at dispatch.
                exec_level[i] = exec_tag
                prev_c = commit[i - 1] if i > 0 else 0.0
                if c == prev_c or c != comp + 1.0:
                    tag = TAG_BASE
                else:
                    wait = start - prev_c
                    served = comp - (start if wait > 0.0 else prev_c)
                    if served > 0.0 and served >= wait:
                        tag = exec_tag
                    elif start > issue:
                        tag = TAG_FU
                    elif producer:
                        tag = exec_level[i - producer]
                    else:
                        tag = dispatch_tag
                attr_tags.append(tag)
            if is_mem:
                mem_commit.append(c)
                mem_count += 1
            if op == store_op and not perfect_dcache:
                if probe_dl1:
                    if stride is not None:
                        hier.prefetch(stride.on_access(pc, addr), c)
                    dline = addr >> dl1_bits
                    ways = dl1_sets[dline & dl1_mask]
                    dl1_acc += 1
                    if dline in ways:
                        if ways[-1] != dline:
                            ways.remove(dline)
                            ways.append(dline)
                    else:
                        dl1_miss += 1
                        if len(ways) >= dl1_assoc:
                            del ways[0]
                        ways.append(dline)
                        l1_miss(addr, c + dl1_lat)
                else:
                    hier.access(addr, c, pc, write=True)

            if i + 1 == warmup:
                self._add_dl1_counts(dl1_acc, dl1_miss)
                dl1_acc = dl1_miss = 0
                warm_counters = self._counters()
                warm_commit = c

            if collect_timeline:
                fetch_times.append(fetch_time)
                dispatch_times.append(dispatch)

        if collect_timeline:
            self.timeline = Timeline(
                fetch_times, dispatch_times, issue_at, complete, commit)

        stack = None
        if collect_attribution:
            self.attribution = Attribution(
                tags=attr_tags,
                commit=commit,
                warmup=warmup,
                warm_commit=warm_commit,
            )
            stack = self.attribution.stack().as_dict()

        # Measured region: everything after the warmup boundary.
        assert warm_counters is not None
        self._add_dl1_counts(dl1_acc, dl1_miss)
        end = self._counters()
        delta = {k: end[k] - warm_counters[k] for k in end}
        # Branch counts come from the trace's op and outcome streams.
        is_branch = trace.op == isa.BRANCH
        delta["branches"] = int(np.count_nonzero(is_branch[warmup:]))
        delta["mispredicts"] = outcomes.count(PREDICT_MISPREDICT, warmup)
        measured_instr = n - warmup
        cycles = commit[-1] + 1.0 - warm_commit

        def rate(num: str, den: str) -> float:
            return delta[num] / delta[den] if delta[den] else 0.0

        full_stats = hier.stats()
        energy = estimate_energy(
            cfg, n, commit[-1] + 1.0, full_stats, int(np.count_nonzero(is_branch))
        )
        if obs.enabled():
            # Per-simulation instruction/cycle throughput accounting; pure
            # bookkeeping on already-computed values, off the hot loop.
            obs.inc("sim/instructions", measured_instr)
            obs.inc("sim/cycles", cycles)
            if cycles > 0:
                obs.observe("sim/ipc", measured_instr / cycles)
            if stack is not None:
                for name, value in stack.items():
                    if value:
                        obs.inc(f"sim/stack/{name}", value)
        return SimResult(
            cpi=cycles / measured_instr,
            cycles=cycles,
            instructions=measured_instr,
            il1_miss_rate=rate("il1_miss", "il1_acc"),
            dl1_miss_rate=rate("dl1_miss", "dl1_acc"),
            l2_miss_rate=rate("l2_miss", "l2_acc"),
            branch_mispredict_rate=rate("mispredicts", "branches"),
            mean_memory_queue_delay=rate("queue_delay", "mem_req"),
            dram_row_hit_rate=rate("dram_rowhit", "dram_acc"),
            store_forward_rate=rate("forwarded", "loads"),
            energy=energy,
            extra={
                "il1_accesses": float(delta["il1_acc"]),
                "dl1_accesses": float(delta["dl1_acc"]),
                "l2_accesses": float(delta["l2_acc"]),
                "memory_requests": float(delta["mem_req"]),
            },
            stack=stack,
        )
