"""Tests for the trace representation and its invariants."""

import numpy as np
import pytest

from repro.simulator import isa
from repro.simulator.branch import PREDICT_BTB_MISS, PREDICT_MISPREDICT, PREDICT_OK
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import simulate
from repro.simulator.trace import Trace, empty_trace
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES


def make_trace(**overrides):
    fields = dict(
        op=np.array([isa.IALU, isa.LOAD, isa.BRANCH], dtype=np.int8),
        src1=np.array([0, 1, 2], dtype=np.int32),
        src2=np.zeros(3, dtype=np.int32),
        addr=np.array([0, 0x1000, 0], dtype=np.int64),
        pc=np.array([0x400000, 0x400004, 0x400008], dtype=np.int64),
        taken=np.array([False, False, True]),
    )
    fields.update(overrides)
    return Trace(**fields)


class TestValidation:
    def test_valid_trace_passes(self):
        make_trace().validate()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            make_trace(src1=np.zeros(2, dtype=np.int32))

    def test_negative_distance(self):
        with pytest.raises(ValueError):
            make_trace(src1=np.array([0, -1, 0], dtype=np.int32)).validate()

    def test_distance_beyond_start(self):
        with pytest.raises(ValueError):
            make_trace(src1=np.array([1, 0, 0], dtype=np.int32)).validate()

    def test_memory_op_needs_address(self):
        with pytest.raises(ValueError):
            make_trace(addr=np.zeros(3, dtype=np.int64)).validate()

    def test_non_control_cannot_be_taken(self):
        with pytest.raises(ValueError):
            make_trace(taken=np.array([True, False, True])).validate()

    def test_jump_must_be_taken(self):
        t = make_trace(
            op=np.array([isa.IALU, isa.LOAD, isa.JUMP], dtype=np.int8),
            taken=np.array([False, False, False]),
        )
        with pytest.raises(ValueError):
            t.validate()


class TestUtilities:
    def test_len(self):
        assert len(make_trace()) == 3
        assert len(empty_trace()) == 0

    def test_mix_sums_to_one(self):
        mix = make_trace().mix()
        assert sum(mix.values()) == pytest.approx(1.0)
        assert mix["load"] == pytest.approx(1 / 3)

    def test_slice_clips_dependences(self):
        t = make_trace()
        s = t.slice(1, 3)
        assert len(s) == 2
        # First sliced instruction's dependence pointed before the slice.
        assert s.src1[0] == 0
        s.validate()

    def test_slice_past_the_end_keeps_the_tail(self):
        t = generate_trace(PROFILES["mcf"], 100, seed=0)
        s = t.slice(90, 120)
        assert len(s) == 10
        np.testing.assert_array_equal(s.op, t.op[90:])
        np.testing.assert_array_equal(s.addr, t.addr[90:])
        # Dependences reaching before instruction 90 are clipped to none.
        idx = np.arange(10)
        for sliced, full in ((s.src1, t.src1[90:]), (s.src2, t.src2[90:])):
            np.testing.assert_array_equal(sliced, np.where(full > idx, 0, full))
        s.validate()


class TestMemos:
    """The per-trace memos the core reads, and the freeze that guards them."""

    def test_edit_after_run_raises(self):
        trace = generate_trace(PROFILES["mcf"], 2048, seed=0)
        simulate(ProcessorConfig(), trace)
        alus = np.flatnonzero(trace.op == isa.IALU)[:400]
        with pytest.raises(ValueError):
            trace.op[alus] = isa.FPDIV
        for name in ("src1", "src2", "addr", "pc", "taken"):
            with pytest.raises(ValueError):
                getattr(trace, name)[0] = 0

    def test_slice_returns_writable_copies(self):
        trace = make_trace()
        trace.columns()
        part = trace.slice(0, 2)
        part.op[0] = isa.FPDIV
        part.taken[1] = True
        assert trace.op[0] == isa.IALU and not trace.taken[1]

    def test_pc_lines_memoised_per_line_size(self):
        trace = make_trace()
        lines = trace.pc_lines(6)
        assert trace.pc_lines(6) is lines
        assert lines == (trace.pc >> 6).tolist()
        assert trace.pc_lines(2) == (trace.pc >> 2).tolist() != lines

    def test_prepare_returns_self(self):
        trace = make_trace()
        assert trace.prepare() is trace
        assert trace._columns is not None

    def test_branch_stream_memoised_per_predictor_geometry(self):
        trace = generate_trace(PROFILES["crafty"], 1024, seed=1)
        stream = trace.branch_stream(ProcessorConfig())
        # Design parameters do not touch the predictor: same memo.
        assert trace.branch_stream(ProcessorConfig(rob_size=128, iq_size=64)) is stream
        for geometry in ({"bpred_kind": "gshare"}, {"bpred_entries": 1024},
                         {"bpred_history": 4}, {"btb_entries": 64}):
            assert trace.branch_stream(ProcessorConfig(**geometry)) is not stream
        control = (trace.op == isa.BRANCH) | (trace.op == isa.JUMP)
        codes = np.frombuffer(stream, dtype=np.uint8)
        assert len(codes) == len(trace)
        assert not codes[~control].any()
        assert set(codes[control].tolist()) == {
            PREDICT_OK, PREDICT_BTB_MISS, PREDICT_MISPREDICT}
