"""Timing-semantics tests for the out-of-order core.

These tests drive the engine with small hand-constructed traces and check
the cycle-level behaviour of each mechanism: width limits, dependence
chains, window occupancy, misprediction penalties, store forwarding.
"""

import numpy as np
import pytest

from repro.simulator import isa
from repro.simulator.config import ProcessorConfig
from repro.simulator.ooo_core import OutOfOrderCore
from repro.simulator.trace import Trace


def build_trace(rows, name="hand", loop_pc_bytes=None):
    """rows: list of (op, src1, src2, addr, taken); PCs are sequential.

    ``loop_pc_bytes`` wraps the PC stream within that many bytes (e.g. 64
    keeps all fetches in one icache line), isolating core timing from cold
    instruction-cache misses.
    """
    n = len(rows)
    pcs = np.arange(n, dtype=np.int64) * 4
    if loop_pc_bytes is not None:
        pcs = pcs % loop_pc_bytes
    return Trace(
        op=np.array([r[0] for r in rows], dtype=np.int8),
        src1=np.array([r[1] for r in rows], dtype=np.int32),
        src2=np.array([r[2] for r in rows], dtype=np.int32),
        addr=np.array([r[3] for r in rows], dtype=np.int64),
        pc=pcs + 0x400000,
        taken=np.array([r[4] for r in rows]),
        name=name,
    )


def alu_rows(n, dep=0):
    return [(isa.IALU, dep if i >= dep else 0, 0, 0, False) for i in range(n)]


def run(trace, warmup=0, **cfg):
    core = OutOfOrderCore(ProcessorConfig(**cfg))
    result = core.run(trace, collect_timeline=True, warmup=warmup)
    return core, result


class TestBasics:
    def test_empty_trace(self):
        core = OutOfOrderCore(ProcessorConfig())
        result = core.run(Trace(*[np.zeros(0, dtype=d) for d in
                                  (np.int8, np.int32, np.int32, np.int64, np.int64, bool)]))
        assert result.instructions == 0
        assert result.cpi == 0.0

    def test_independent_alus_reach_width_limit(self):
        # 400 independent single-cycle ops on a 4-wide machine: CPI -> 0.25.
        _, result = run(build_trace(alu_rows(400), loop_pc_bytes=64), warmup=100)
        assert result.cpi == pytest.approx(0.25, rel=0.2)

    def test_cpi_never_beats_commit_width(self):
        _, result = run(build_trace(alu_rows(400), loop_pc_bytes=64))
        assert result.cpi >= 1.0 / 4 - 1e-9

    def test_serial_chain_is_one_per_cycle(self):
        # Every op depends on the previous one: CPI -> 1.
        _, result = run(build_trace(alu_rows(300, dep=1), loop_pc_bytes=64),
                        warmup=50)
        assert result.cpi == pytest.approx(1.0, rel=0.1)

    def test_determinism(self, tiny_trace, default_config):
        a = OutOfOrderCore(default_config).run(tiny_trace)
        b = OutOfOrderCore(default_config).run(tiny_trace)
        assert a.cpi == b.cpi
        assert a.as_dict() == b.as_dict()

    def test_timeline_collected(self):
        core, _ = run(build_trace(alu_rows(10)))
        tl = core.timeline
        assert tl is not None
        assert len(tl.commit) == 10
        # Timestamps are ordered per instruction.
        for i in range(10):
            assert tl.fetch[i] <= tl.dispatch[i] < tl.issue[i] + 1
            assert tl.issue[i] < tl.complete[i] <= tl.commit[i]

    def test_commit_in_order(self):
        core, _ = run(build_trace(alu_rows(50, dep=1)))
        commits = core.timeline.commit
        assert all(a <= b for a, b in zip(commits, commits[1:]))


class TestWindowLimits:
    def test_small_rob_hurts_memory_parallelism(self, tiny_trace):
        big = run(tiny_trace, rob_size=128, iq_size=64, lsq_size=64)[1]
        small = run(tiny_trace, rob_size=24, iq_size=12, lsq_size=12)[1]
        assert small.cpi > big.cpi

    def test_rob_stalls_dispatch_behind_long_latency(self):
        # A load that misses to memory, followed by > ROB independent ALUs:
        # dispatch of the (rob+1)-th op must wait for the load to commit.
        rows = [(isa.LOAD, 0, 0, 0x100000, False)] + alu_rows(64)
        core, _ = run(build_trace(rows), rob_size=32, iq_size=32, lsq_size=32)
        tl = core.timeline
        load_commit = tl.commit[0]
        assert tl.dispatch[32] >= load_commit + 1

    def test_iq_frees_at_issue_not_commit(self):
        # Same shape, but IQ smaller than ROB: ALUs issue quickly, so the
        # IQ drains and dispatch is not blocked at the IQ boundary.
        rows = [(isa.LOAD, 0, 0, 0x100000, False)] + alu_rows(64)
        core, _ = run(build_trace(rows), rob_size=64, iq_size=8, lsq_size=32)
        tl = core.timeline
        assert tl.dispatch[9] < tl.commit[0]

    def test_lsq_limits_outstanding_memory_ops(self):
        rows = [(isa.LOAD, 0, 0, 0x100000 + 0x4000 * i, False) for i in range(16)]
        big = run(build_trace(rows), lsq_size=16, rob_size=64, iq_size=32)[1]
        small = run(build_trace(rows), lsq_size=2, rob_size=64, iq_size=32)[1]
        assert small.cycles > big.cycles


class TestBranches:
    def _branchy(self, n, taken_pattern):
        """One 4-instruction loop body ending in a branch, executed n times.

        Looping the PC keeps a single branch site, so the predictor's
        training behaviour (not cold-start effects) is what's measured.
        """
        rows = []
        for i in range(n):
            rows.extend(alu_rows(3))
            rows.append((isa.BRANCH, 1, 0, 0, taken_pattern(i)))
        return build_trace(rows, loop_pc_bytes=16)

    def test_random_branches_cost_more_than_biased(self):
        rng = np.random.default_rng(0)
        outcomes = rng.random(100) < 0.5
        random_trace = self._branchy(100, lambda i: bool(outcomes[i]))
        biased_trace = self._branchy(100, lambda i: False)
        random_cpi = run(random_trace)[1].cpi
        biased_cpi = run(biased_trace)[1].cpi
        assert random_cpi > biased_cpi

    def test_mispredict_penalty_grows_with_depth(self):
        rng = np.random.default_rng(1)
        outcomes = rng.random(150) < 0.5
        trace = self._branchy(150, lambda i: bool(outcomes[i]))
        shallow = run(trace, pipe_depth=7)[1]
        deep = run(trace, pipe_depth=24)[1]
        assert deep.cpi > shallow.cpi
        assert deep.branch_mispredict_rate == pytest.approx(
            shallow.branch_mispredict_rate, abs=1e-9
        )

    def test_perfectly_biased_branches_learned(self):
        trace = self._branchy(200, lambda i: False)
        result = run(trace)[1]
        assert result.branch_mispredict_rate < 0.05


class TestMemoryTiming:
    def test_load_hit_latency_visible(self):
        # load -> dependent alu chain; higher dl1 latency slows the chain.
        rows = []
        for i in range(100):
            rows.append((isa.LOAD, 0, 0, 0x1000, False))
            rows.append((isa.IALU, 1, 0, 0, False))
        fast = run(build_trace(rows), dl1_lat=1)[1]
        slow = run(build_trace(rows), dl1_lat=4)[1]
        assert slow.cycles > fast.cycles

    def test_store_to_load_forwarding(self):
        # store to A, then immediately load A: must not pay a cache miss.
        rows = [
            (isa.STORE, 0, 0, 0x123440, False),
            (isa.LOAD, 0, 0, 0x123440, False),
        ] * 50
        core, result = run(build_trace(rows))
        assert result.store_forward_rate > 0.9

    def test_l2_latency_affects_l1_missing_loads(self, tiny_trace):
        fast = run(tiny_trace, l2_lat=5)[1]
        slow = run(tiny_trace, l2_lat=20)[1]
        assert slow.cpi > fast.cpi


class TestWarmup:
    def test_warmup_excludes_cold_misses(self, tiny_trace):
        cold = run(tiny_trace, warmup=0)[1]
        core = OutOfOrderCore(ProcessorConfig())
        warm = core.run(tiny_trace, warmup=len(tiny_trace) // 4)
        # Warm-region L1 miss rate is lower than the cold-start rate.
        assert warm.dl1_miss_rate <= cold.dl1_miss_rate

    def test_warmup_instruction_accounting(self, tiny_trace):
        core = OutOfOrderCore(ProcessorConfig())
        result = core.run(tiny_trace, warmup=500)
        assert result.instructions == len(tiny_trace) - 500

    def test_invalid_warmup(self, tiny_trace):
        for warmup in (-1, len(tiny_trace)):
            core = OutOfOrderCore(ProcessorConfig())
            with pytest.raises(ValueError, match="at least one measured"):
                core.run(tiny_trace, warmup=warmup)

    def test_default_warmup_is_one_eighth(self, tiny_trace):
        core = OutOfOrderCore(ProcessorConfig())
        result = core.run(tiny_trace)
        assert result.instructions == len(tiny_trace) - len(tiny_trace) // 8


class TestEdgeCases:
    def test_single_instruction(self):
        _, result = run(build_trace([(isa.IALU, 0, 0, 0, False)]))
        assert result.instructions == 1
        assert result.cpi > 0

    def test_all_jumps(self):
        rows = [(isa.JUMP, 0, 0, 0, True)] * 40
        _, result = run(build_trace(rows, loop_pc_bytes=32))
        assert result.cpi > 0
        assert result.branch_mispredict_rate == 0.0  # no conditionals

    def test_fp_divider_serialises(self):
        rows = [(isa.FPDIV, 0, 0, 0, False)] * 6 + alu_rows(4)
        core, result = run(build_trace(rows, loop_pc_bytes=64))
        tl = core.timeline
        interval = isa.OP_TIMING[isa.FPDIV][1]
        num_fp = ProcessorConfig().num_fp
        # With num_fp units, the (num_fp+1)-th divide waits a full interval.
        assert tl.issue[num_fp] - tl.issue[0] >= interval

    def test_store_heavy_stream(self):
        rows = [(isa.STORE, 0, 0, 0x1000 + 8 * i, False) for i in range(100)]
        _, result = run(build_trace(rows, loop_pc_bytes=64))
        assert result.cpi > 0
        assert result.dl1_miss_rate < 1.0

    def test_mixed_trace_all_op_classes(self):
        rows = []
        for op in (isa.IALU, isa.IMULT, isa.IDIV, isa.FPALU, isa.FPMULT,
                   isa.FPDIV, isa.LOAD, isa.STORE):
            addr = 0x3000 if op in (isa.LOAD, isa.STORE) else 0
            rows.append((op, 0, 0, addr, False))
        rows.append((isa.BRANCH, 1, 0, 0, True))
        rows.append((isa.JUMP, 0, 0, 0, True))
        _, result = run(build_trace(rows * 10))
        assert result.instructions == 100
