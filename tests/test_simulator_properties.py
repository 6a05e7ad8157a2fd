"""Property-based and invariant tests for the full simulator.

These check the *response-surface* properties the modeling study relies
on: determinism, sane CPI bounds, and monotone behaviour of the latency
parameters on a fixed trace; and, over random machines and traces, that
runs are independent of the trace's memos, that the branch outcome stream
is the predictor's, that the core's own D-L1 probe matches the
``MemoryHierarchy`` path, and that stacks and timelines keep their laws.
"""

import dataclasses
import gc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.design_space import paper_design_space
from repro.simulator import isa
from repro.simulator.branch import PREDICT_MISPREDICT, BranchUnit
from repro.simulator.config import ProcessorConfig
from repro.simulator.simulator import Simulator, simulate, simulate_design_point
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES
from tests.test_timeline_invariants import check_invariants

TRACE = generate_trace(PROFILES["twolf"], 3000, seed=5)


def cpi(**overrides):
    return simulate(ProcessorConfig(**overrides), TRACE).cpi


config_strategy = st.fixed_dictionaries(
    {
        "pipe_depth": st.integers(7, 24),
        "rob_size": st.integers(24, 128),
        "l2_lat": st.integers(5, 20),
        "dl1_lat": st.integers(1, 4),
        "il1_size_kb": st.sampled_from([8, 16, 32, 64]),
        "dl1_size_kb": st.sampled_from([8, 16, 32, 64]),
        "l2_size_kb": st.sampled_from([256, 512, 1024, 2048, 4096, 8192]),
    }
)


@settings(max_examples=12, deadline=None)
@given(cfg=config_strategy)
def test_cpi_bounds_across_space(cfg):
    rob = cfg["rob_size"]
    result = simulate(
        ProcessorConfig(iq_size=max(1, rob // 2), lsq_size=max(1, rob // 2), **cfg),
        TRACE,
    )
    # CPI is bounded below by the commit width and above by a full stall
    # per instruction at memory latency.
    assert 0.25 <= result.cpi < 200.0
    assert 0.0 <= result.dl1_miss_rate <= 1.0
    assert 0.0 <= result.branch_mispredict_rate <= 1.0


@settings(max_examples=8, deadline=None)
@given(cfg=config_strategy, seed=st.integers(0, 3))
def test_simulation_is_deterministic(cfg, seed):
    rob = cfg["rob_size"]
    config = ProcessorConfig(iq_size=max(1, rob // 2), lsq_size=max(1, rob // 2), **cfg)
    assert simulate(config, TRACE).cpi == simulate(config, TRACE).cpi


def test_l2_latency_monotone():
    values = [cpi(l2_lat=l) for l in (5, 10, 15, 20)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_dl1_latency_monotone():
    values = [cpi(dl1_lat=l) for l in (1, 2, 3, 4)]
    assert all(a <= b + 1e-9 for a, b in zip(values, values[1:]))


def test_dl1_size_improves_cpi():
    assert cpi(dl1_size_kb=64) < cpi(dl1_size_kb=8)


def test_l2_size_improves_cpi():
    assert cpi(l2_size_kb=8192) <= cpi(l2_size_kb=256)


def test_bigger_window_does_not_hurt():
    small = cpi(rob_size=24, iq_size=12, lsq_size=12)
    big = cpi(rob_size=128, iq_size=64, lsq_size=64)
    assert big <= small + 0.05


def test_deeper_pipe_does_not_help():
    assert cpi(pipe_depth=24) >= cpi(pipe_depth=7) - 1e-9


def test_simulator_facade_keeps_core(tiny_trace, default_config):
    sim = Simulator(default_config)
    sim.run(tiny_trace)
    assert sim.last_core is not None


def test_finished_run_frees_its_hierarchy_without_gc(tiny_trace, default_config):
    # A reference cycle through the hierarchy (say, its own bound methods
    # stored on it) would keep every run's L2 set lists alive until a GC
    # pass, raising peak memory across a sweep.
    enabled = gc.isenabled()
    gc.disable()
    try:
        sim = Simulator(default_config)
        sim.run(tiny_trace, collect_timeline=True, collect_attribution=True)
        hierarchy = weakref.ref(sim.last_core.hierarchy)
        del sim
        assert hierarchy() is None
    finally:
        if enabled:
            gc.enable()


def test_simulate_design_point_resolves_fractions(tiny_trace):
    space = paper_design_space()
    point = {
        "pipe_depth": 12, "rob_size": 64, "iq_frac": 0.5, "lsq_frac": 0.5,
        "l2_size_kb": 1024, "l2_lat": 12, "il1_size_kb": 32,
        "dl1_size_kb": 32, "dl1_lat": 2,
    }
    result = simulate_design_point(space, point, tiny_trace)
    assert result.cpi > 0


# ---------------------------------------------------------------------------
# Differential properties over random machines: the per-trace memos (decoded
# columns, line ids, branch outcome stream) hold only order-only state, so
# a run must not depend on what ran on the trace before it.
# ---------------------------------------------------------------------------

GEOMETRY = ("bpred_kind", "bpred_entries", "bpred_history", "btb_entries")
#: Extensions that route every load and store through ``MemoryHierarchy``.
HIERARCHY_PATH = ("enable_tlb", "writeback")
TOGGLES = (
    "perfect_branch_prediction", "perfect_dcache", "perfect_icache", *HIERARCHY_PATH,
    "enable_nextline_prefetch", "enable_stride_prefetch",
)


#: Units per functional-unit pool; every property runs pools of 1–4 units.
FU_COUNTS = ("num_ialu", "num_imult", "num_fp", "num_mem_ports")


@st.composite
def machines(draw):
    """Config kwargs: the 9 design parameters, the FU pool sizes, the
    toggles, the predictor."""
    rob = draw(st.integers(8, 128))
    kwargs = {
        "pipe_depth": draw(st.integers(7, 24)),
        "rob_size": rob,
        "iq_size": draw(st.integers(1, rob)),
        "lsq_size": draw(st.integers(1, rob)),
        "l2_size_kb": draw(st.sampled_from([256, 512, 1024, 2048, 4096, 8192])),
        "l2_lat": draw(st.integers(5, 20)),
        "il1_size_kb": draw(st.sampled_from([8, 16, 32, 64])),
        "dl1_size_kb": draw(st.sampled_from([8, 16, 32, 64])),
        "dl1_lat": draw(st.integers(1, 4)),
        **{name: draw(st.integers(1, 4)) for name in FU_COUNTS},
        "bpred_kind": draw(st.sampled_from(
            ["bimodal", "gshare", "tournament", "perceptron"])),
        "bpred_entries": draw(st.sampled_from([256, 4096])),
        "bpred_history": draw(st.integers(1, 16)),
        "btb_entries": draw(st.sampled_from([16, 128, 2048])),
    }
    for name in TOGGLES:
        kwargs[name] = draw(st.booleans())
    return kwargs


traces = st.tuples(
    st.sampled_from(sorted(PROFILES)), st.integers(64, 1500), st.integers(0, 1000)
)


def _trace(args):
    name, length, seed = args
    return generate_trace(PROFILES[name], length, seed)


def _observed(config, trace):
    """Every output of one run, floats by repr: result, stack, timeline,
    and the caches' final access/miss counts."""
    sim = Simulator(config)
    result = sim.run(trace, collect_timeline=True, collect_attribution=True)
    tl = sim.last_core.timeline
    hier = sim.last_core.hierarchy
    return (
        {k: repr(v) for k, v in result.as_dict().items()},
        {k: repr(v) for k, v in result.extra.items()},
        {k: repr(v) for k, v in result.stack.items()},
        [list(map(repr, stamps)) for stamps in
         (tl.fetch, tl.dispatch, tl.issue, tl.complete, tl.commit)],
        [(c.accesses, c.misses) for c in (hier.il1, hier.dl1, hier.l2)],
    )


@settings(max_examples=25, deadline=None)
@given(machine=machines(), other=machines(), trace_args=traces)
def test_runs_ignore_what_ran_on_the_trace_before(machine, other, trace_args):
    config = ProcessorConfig(**machine)
    # Another design point and toggle set fills the trace's memos first,
    # with its own predictor and with this machine's.
    used = _trace(trace_args)
    Simulator(ProcessorConfig(**other)).run(used)
    Simulator(ProcessorConfig(**{**other, **{k: machine[k] for k in GEOMETRY}})).run(used)
    assert _observed(config, used) == _observed(config, _trace(trace_args))


@settings(max_examples=25, deadline=None)
@given(machine=machines(), trace_args=traces)
# A stride prefetch issued after the access's D-L1 miss instead of before
# it moves this run's CPI; random draws rarely reach such a stream.
@example(machine={"enable_stride_prefetch": True, "prefetch_degree": 4,
                  "enable_nextline_prefetch": True},
         trace_args=("equake", 4096, 0))
def test_dl1_probe_matches_the_hierarchy_path(machine, trace_args):
    config = ProcessorConfig(**{**machine, **dict.fromkeys(HIERARCHY_PATH, False)})
    # The oracle: a one-entry TLB with a free page walk sends every access
    # through MemoryHierarchy.fetch/access without changing any time.
    oracle = dataclasses.replace(config, enable_tlb=True, tlb_walk_lat=0, tlb_entries=1)
    trace = _trace(trace_args)
    assert _observed(config, trace) == _observed(oracle, trace)


@settings(max_examples=25, deadline=None)
@given(machine=machines(), trace_args=traces)
def test_branch_stream_is_an_independent_predictor_pass(machine, trace_args):
    config = ProcessorConfig(**machine)
    trace = _trace(trace_args)
    result = Simulator(config).run(trace)
    # The reference: the predictor driven directly, in program order.
    unit = BranchUnit(config)
    expected = bytearray(len(trace))
    conditional = mispredicted = 0
    counts = [(0, 0)]  # (conditional, mispredicted) after each instruction
    for i, (op, pc, taken) in enumerate(zip(trace.op.tolist(), trace.pc.tolist(),
                                            trace.taken.tolist())):
        if op in (isa.BRANCH, isa.JUMP):
            expected[i] = unit.predict(pc, taken, op == isa.BRANCH)
            conditional += op == isa.BRANCH
            mispredicted += expected[i] == PREDICT_MISPREDICT
        counts.append((conditional, mispredicted))
    assert trace.branch_stream(config) == bytes(expected)
    (c0, m0), (c1, m1) = counts[len(trace) // 8], counts[-1]
    rate = (m1 - m0) / (c1 - c0) if c1 - c0 else 0.0
    assert result.branch_mispredict_rate == rate


@settings(max_examples=25, deadline=None)
@given(machine=machines(), trace_args=traces)
def test_stacks_exact_and_timeline_lawful(machine, trace_args):
    config = ProcessorConfig(**machine)
    trace = _trace(trace_args)
    sim = Simulator(config)
    result = sim.run(trace, collect_timeline=True, collect_attribution=True)
    assert sum(result.stack.values()) == result.cycles
    check_invariants(config, trace, sim.last_core.timeline,
                     sim.last_core.attribution.tags)
