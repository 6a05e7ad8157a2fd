"""Tests for functional-unit pools and structural hazards.

The core arbitrates its FU pools inline, each pool a min-heap of unit
free times, so these drive it with small hand-built traces (all PCs in
one I-cache line) and read each op's unit start time off the timeline.
An op with no operands asks for a unit one cycle after it dispatches;
any later start is a structural wait.  Which unit of a pool serves an
op is not observable, only when it starts.
"""

import pytest

from repro.simulator import isa
from repro.simulator.config import ProcessorConfig
from tests.test_ooo_core import build_trace, run


def fu_starts(ops, **cfg):
    """Unit start times of independent ``ops``, and the times they asked."""
    memory = (isa.LOAD, isa.STORE)
    rows = [(op, 0, 0, 0x10000 + 0x40 * k if op in memory else 0, False)
            for k, op in enumerate(ops)]
    core, _ = run(build_trace(rows, loop_pc_bytes=64), **cfg)
    tl = core.timeline
    return tl.issue, [d + 1.0 for d in tl.dispatch]


class TestFUPool:
    def test_free_unit_starts_immediately(self):
        starts, asked = fu_starts([isa.IALU, isa.IALU], num_ialu=2)
        assert starts == asked

    def test_contention_serialises(self):
        # The second divide asks a cycle later and still waits for the
        # unpipelined unit.
        ops = [isa.IDIV] + [isa.IALU] * 3 + [isa.IDIV]
        starts, asked = fu_starts(ops, num_imult=1)
        assert asked[4] > asked[0]
        assert starts[0] == asked[0]
        assert starts[4] == starts[0] + isa.OP_TIMING[isa.IDIV][1]

    def test_multiple_units_overlap(self):
        starts, asked = fu_starts([isa.FPDIV] * 3, num_fp=2)
        assert starts[0] == starts[1] == asked[0]
        assert starts[2] == starts[0] + isa.OP_TIMING[isa.FPDIV][1]

    def test_picks_earliest_free_unit(self):
        # A divide holds one unit for 19 cycles and a multiply the other
        # for one; the next two multiplies both take the second unit.
        ops = [isa.IDIV, isa.IMULT, isa.IMULT, isa.IMULT]
        starts, asked = fu_starts(ops, num_imult=2)
        assert len(set(asked)) == 1
        t = asked[0]
        assert starts == [t, t, t + 1.0, t + 2.0]

    def test_invalid_count(self):
        for name in ("num_ialu", "num_imult", "num_fp", "num_mem_ports"):
            with pytest.raises(ValueError, match=name):
                ProcessorConfig(**{name: 0})


class TestResourceSet:
    def test_pipelined_alu_has_unit_interval(self):
        starts, asked = fu_starts([isa.IALU, isa.IALU], num_ialu=1)
        assert starts == [asked[0], asked[0] + 1.0]

    def test_unpipelined_divider_blocks(self):
        starts, asked = fu_starts([isa.IDIV, isa.IDIV], num_imult=1)
        _, interval = isa.OP_TIMING[isa.IDIV]
        assert starts == [asked[0], asked[0] + interval]

    def test_div_and_mult_share_pool(self):
        starts, asked = fu_starts([isa.IDIV, isa.IMULT], num_imult=1)
        assert starts[1] == asked[1] + isa.OP_TIMING[isa.IDIV][1]

    def test_mem_ports_limit(self):
        starts, asked = fu_starts([isa.LOAD, isa.STORE, isa.LOAD], num_mem_ports=2)
        assert starts == [asked[0], asked[0], asked[0] + 1.0]


class TestIsa:
    def test_all_ops_have_timing_and_fu(self):
        for op in range(isa.NUM_OP_CLASSES):
            assert op in isa.OP_TIMING
            assert op in isa.FU_CLASS
            assert isa.op_name(op)

    def test_unknown_op_name(self):
        with pytest.raises(ValueError):
            isa.op_name(99)
