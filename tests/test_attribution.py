"""Cycle-accounting attribution suite.

The attribution contract has three legs:

* **exactness** — every folded CPI stack's components sum *bitwise* to
  the measured cycle count (all timestamps are integer-valued floats, so
  the telescoping gap sum is exact), for every SPEC profile at three
  contrasting design points;
* **observer-only** — ``collect_attribution=True`` perturbs nothing: the
  attributed CPI reprs equal the pinned pre-attribution values from
  :mod:`tests.test_vectorised`;
* **causality** — starving a structural resource (ROB, IQ, LSQ, FUs)
  surfaces cycles in exactly that component, and a perfect D-cache
  removes the L2/DRAM components.

Plus unit coverage of the folding, interval streaming, serialisation
and rendering helpers, and the empty-trace ``SimResult`` pin.
"""

import math

import pytest

from repro.core.design_space import paper_design_space
from repro.simulator.attribution import (
    COMPONENTS,
    TAG_BASE,
    TAG_DEP,
    TAG_DRAM,
    CPIStack,
    build_intervals,
    fold_stack,
    render_stack_table,
    write_intervals_jsonl,
)
from repro.simulator.config import ProcessorConfig
from repro.simulator.ooo_core import OutOfOrderCore
from repro.simulator.simulator import Simulator
from repro.util import store
from repro.workloads.spec2000 import get_trace
from tests.test_timeline_invariants import check_invariants
from tests.test_vectorised import PIN_CPIS, PIN_POINTS

PIN_TRACE_LENGTH = 4096


def _attributed(config, trace):
    """Run one attributed simulation, returning (SimResult, Attribution)."""
    core = OutOfOrderCore(config)
    result = core.run(trace, collect_attribution=True)
    return result, core.attribution


# ---------------------------------------------------------------------------
# Exactness + observer-only: all 8 SPEC profiles at 3 design points
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench_name", sorted(PIN_CPIS))
def test_stack_exact_and_cpi_pinned(bench_name):
    """Components sum bitwise to cycles AND attributed CPI is unperturbed.

    Comparing the attributed run's CPI repr against the *pre-attribution*
    pinned values proves in one pass both that attribution is a pure
    observer and that the off-path contract of
    ``test_vectorised.test_cpi_bitwise_pinned`` still holds with the
    observer attached.
    """
    space = paper_design_space()
    trace = get_trace(bench_name, PIN_TRACE_LENGTH, 0)
    got = []
    for point in PIN_POINTS:
        config = ProcessorConfig.from_design_point(space.resolve(dict(point)))
        result, attribution = _attributed(config, trace)
        stack = attribution.stack()
        # Bitwise exactness: the defining invariant of the stack.
        assert sum(stack.components.values()) == stack.cycles
        assert stack.cycles == result.cycles
        assert stack.instructions == result.instructions
        assert all(v >= 0.0 for v in stack.components.values())
        assert all(float(v).is_integer() for v in stack.components.values())
        # SimResult carries the same stack verbatim.
        assert result.stack == stack.as_dict()
        got.append(repr(result.cpi))
    assert got == PIN_CPIS[bench_name]


def test_intervals_partition_the_run():
    """Windows tile the measured region: cycles, instructions, components."""
    trace = get_trace("mcf", 2048, 0)
    _, attribution = _attributed(ProcessorConfig(), trace)
    stack = attribution.stack()
    for k in (1, 64, 500, 5000):
        intervals = attribution.intervals(k)
        assert sum(iv.instructions for iv in intervals) == stack.instructions
        assert sum(iv.cycles for iv in intervals) == stack.cycles
        for name in COMPONENTS:
            assert (sum(iv.components[name] for iv in intervals)
                    == stack.components[name]), name
        for iv in intervals:
            assert sum(iv.components.values()) == iv.cycles
        assert [iv.index for iv in intervals] == list(range(len(intervals)))


# ---------------------------------------------------------------------------
# Causality: starved resources surface in their own component
# ---------------------------------------------------------------------------


def _stack_for(**overrides):
    # Every tag of a machine that starves one structure also meets the
    # tag laws of tests.test_timeline_invariants.
    config = ProcessorConfig(**overrides)
    trace = get_trace("mcf", 2048, 0)
    core = OutOfOrderCore(config)
    core.run(trace, collect_timeline=True, collect_attribution=True)
    check_invariants(config, trace, core.timeline, core.attribution.tags)
    return core.attribution.stack().components


class TestStructuralResponse:
    def test_tiny_rob_pays_rob_cycles(self):
        assert _stack_for(rob_size=8, iq_size=4, lsq_size=4)["rob"] > 0.0

    def test_tiny_iq_pays_iq_cycles(self):
        assert _stack_for(rob_size=64, iq_size=2, lsq_size=16)["iq"] > 0.0

    def test_tiny_lsq_pays_lsq_cycles(self):
        assert _stack_for(rob_size=64, iq_size=16, lsq_size=2)["lsq"] > 0.0

    def test_starved_fus_pay_fu_cycles(self):
        assert _stack_for(num_ialu=1, num_mem_ports=1)["fu"] > 0.0

    def test_perfect_dcache_has_no_l2_or_dram_stalls(self):
        stack = _stack_for(perfect_dcache=True)
        assert stack["l2"] == 0.0
        assert stack["dram"] == 0.0


# ---------------------------------------------------------------------------
# fold_stack / build_intervals unit behaviour
# ---------------------------------------------------------------------------


class TestFolding:
    # Three instructions: gaps 2 (dram), 0, 3 (dep); drain lands in base.
    TAGS = [TAG_DRAM, TAG_BASE, TAG_DEP]
    COMMIT = [12.0, 12.0, 15.0]

    def test_fold_telescopes_with_drain(self):
        stack = fold_stack(self.TAGS, self.COMMIT, 0, 10.0)
        assert stack.cycles == 6.0  # 15 + 1 - 10
        assert stack.instructions == 3
        assert stack.components["dram"] == 2.0
        assert stack.components["dep"] == 3.0
        assert stack.components["base"] == 1.0  # drain only; zero gap adds 0
        assert sum(stack.components.values()) == stack.cycles

    def test_fold_respects_warmup_boundary(self):
        stack = fold_stack(self.TAGS, self.COMMIT, 1, self.COMMIT[0])
        assert stack.instructions == 2
        assert stack.cycles == 4.0  # 15 + 1 - 12
        assert stack.components["dep"] == 3.0
        assert stack.components["dram"] == 0.0

    def test_fold_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            fold_stack([TAG_BASE], [1.0, 2.0], 0, 0.0)
        with pytest.raises(ValueError):
            fold_stack(self.TAGS, self.COMMIT, 3, 0.0)

    def test_intervals_split_and_carry_drain_last(self):
        intervals = build_intervals(self.TAGS, self.COMMIT, 0, 10.0, 2)
        assert [iv.instructions for iv in intervals] == [2, 1]
        assert intervals[0].components["dram"] == 2.0
        assert intervals[1].components["dep"] == 3.0
        assert intervals[1].components["base"] == 1.0  # drain in last window
        assert sum(iv.cycles for iv in intervals) == 6.0

    def test_intervals_reject_bad_window(self):
        with pytest.raises(ValueError):
            build_intervals(self.TAGS, self.COMMIT, 0, 0.0, 0)

    def test_cpi_stack_summaries(self):
        stack = CPIStack(
            components={name: 0.0 for name in COMPONENTS} | {
                "base": 2.0, "dram": 6.0, "icache": 2.0},
            cycles=10.0,
            instructions=5,
        )
        assert stack.cpi == 2.0
        assert stack.cpi_components()["dram"] == pytest.approx(1.2)
        assert stack.fractions()["base"] == pytest.approx(0.2)
        assert stack.memory_fraction() == pytest.approx(0.8)
        assert stack.frontend_fraction() == pytest.approx(0.2)


# ---------------------------------------------------------------------------
# Serialisation + rendering
# ---------------------------------------------------------------------------


class TestIntervalStream:
    def test_jsonl_roundtrip(self, tmp_path):
        trace = get_trace("twolf", 1024, 0)
        _, attribution = _attributed(ProcessorConfig(), trace)
        intervals = attribution.intervals(256)
        path = tmp_path / "intervals.jsonl"
        count = write_intervals_jsonl(
            path, intervals, benchmark="twolf", interval=256)
        assert count == len(intervals)
        (header, *rows), skipped = store.read_jsonl(path)
        assert skipped == 0
        assert header["kind"] == "cpi_intervals"
        assert header["benchmark"] == "twolf"
        assert rows == [record.as_dict() for record in intervals]

    def test_write_is_deterministic(self, tmp_path):
        trace = get_trace("ammp", 512, 0)
        _, attribution = _attributed(ProcessorConfig(), trace)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_intervals_jsonl(a, attribution.intervals(128), z=1, a=2)
        write_intervals_jsonl(b, attribution.intervals(128), z=1, a=2)
        assert a.read_bytes() == b.read_bytes()


class TestRenderStackTable:
    def _stacks(self):
        trace = get_trace("mcf", 1024, 0)
        _, attribution = _attributed(ProcessorConfig(), trace)
        return {"default": attribution.stack()}

    def test_table_lists_all_components(self):
        text = render_stack_table(self._stacks())
        for name in COMPONENTS:
            assert name in text
        assert "total" in text

    def test_normalized_totals_are_one(self):
        text = render_stack_table(self._stacks(), normalize=True)
        assert "1.0000" in text

    def test_empty_mapping(self):
        assert render_stack_table({}) == "(no stacks)"


# ---------------------------------------------------------------------------
# Empty-trace SimResult pin (the early return populates everything)
# ---------------------------------------------------------------------------


class TestEmptyTrace:
    def _empty(self):
        return get_trace("mcf", 64, 0).slice(0, 0)

    def test_empty_trace_result_is_fully_populated(self):
        result = Simulator(ProcessorConfig()).run(self._empty())
        assert (result.cpi, result.cycles, result.instructions) == (0.0, 0.0, 0)
        assert result.extra == {
            "il1_accesses": 0.0, "dl1_accesses": 0.0,
            "l2_accesses": 0.0, "memory_requests": 0.0,
        }
        assert result.stack is None
        for value in result.as_dict().values():
            if isinstance(value, float):
                assert math.isfinite(value)

    def test_empty_trace_with_attribution_yields_zero_stack(self):
        result = Simulator(ProcessorConfig()).run(
            self._empty(), collect_attribution=True)
        assert result.stack == {name: 0.0 for name in COMPONENTS}
        assert result.as_dict()["stack_base"] == 0.0
