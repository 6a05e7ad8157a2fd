"""The registered hot-path benchmarks (imported lazily by the harness).

One benchmark per pipeline hot path the profile analyzer keeps showing:
synthetic-trace generation, end-to-end detailed simulation, the
memory-access path inside it, regression-tree construction, AICc
center selection, centered-L2 discrepancy scoring, and the serving
layer's batched provenance prediction.  Every input is seeded, so each
benchmark's work metadata — counts and content hashes of what was
computed — is identical run to run; only the wall/CPU/memory measurements
vary.  That invariant is what makes ``BENCH_*.json`` files comparable
across commits and lets the regression gate flag *work* drift (a config
or algorithm change) separately from *speed* drift.

This module imports the simulator and modeling layers, which is why the
harness loads it lazily instead of at :mod:`repro.obs.prof` import time.
"""

from __future__ import annotations

import numpy as np

from repro.obs.prof.bench import benchmark, stable_hash

#: Root seed for every benchmark input; part of the work metadata.
BENCH_SEED = 20060101


@benchmark("trace/synthesize", group="workloads", tolerance=5.0)
def bench_trace_synthesis(ctx):
    """Synthetic-trace generation for one SPEC profile (statsim hot path)."""
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec2000 import get_profile

    length = ctx.scale(16384, 4096)
    profile = get_profile("mcf")

    def work():
        trace = generate_trace(profile, length, seed=BENCH_SEED)
        return {
            "benchmark": "mcf",
            "instructions": int(len(trace.op)),
            "op_hash": stable_hash(trace.op.tolist()),
            "addr_hash": stable_hash(trace.addr.tolist()),
        }

    return work


@benchmark("sim/end_to_end", group="simulator", repeats=3, tolerance=5.0)
def bench_simulator_cpi(ctx):
    """End-to-end OoO-core simulation: the pipeline's dominant cost."""
    from repro.simulator.config import ProcessorConfig
    from repro.simulator.simulator import Simulator
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec2000 import get_profile

    length = ctx.scale(8192, 2048)
    trace = generate_trace(get_profile("mcf"), length, seed=BENCH_SEED)
    config = ProcessorConfig()

    def work():
        result = Simulator(config).run(trace)
        return {
            "instructions": int(result.instructions),
            "cpi_hash": stable_hash(result.cpi),
        }

    return work


@benchmark("sim/attribution", group="simulator", repeats=3, tolerance=5.0)
def bench_attribution(ctx):
    """Attributed simulation: cycle accounting on top of the OoO core.

    Same workload as ``sim/end_to_end`` but with
    ``collect_attribution=True``, so the delta between the two targets
    bounds the overhead of per-instruction stall attribution.  The work
    metadata hashes both the CPI and the folded stack, pinning the
    attribution output itself, not just the timing result.
    """
    from repro.simulator.config import ProcessorConfig
    from repro.simulator.simulator import Simulator
    from repro.workloads.generator import generate_trace
    from repro.workloads.spec2000 import get_profile

    length = ctx.scale(8192, 2048)
    trace = generate_trace(get_profile("mcf"), length, seed=BENCH_SEED)
    config = ProcessorConfig()

    def work():
        sim = Simulator(config)
        result = sim.run(trace, collect_attribution=True)
        stack = sim.last_core.attribution.stack()
        return {
            "instructions": int(result.instructions),
            "cpi_hash": stable_hash(result.cpi),
            "stack_hash": stable_hash(
                sorted(stack.components.items())),
        }

    return work


@benchmark("sim/cache_hierarchy", group="simulator", tolerance=5.0)
def bench_cache_hierarchy(ctx):
    """The memory-access path as the simulator runs it: a seeded load/store
    trace through ``OutOfOrderCore.run`` at the default config, so every
    load and store takes the core's D-L1 probe and only its misses (and
    instruction fetch) enter the ``MemoryHierarchy``."""
    from repro.simulator import isa
    from repro.simulator.config import ProcessorConfig
    from repro.simulator.ooo_core import OutOfOrderCore
    from repro.simulator.trace import Trace

    accesses = ctx.scale(8000, 2000)
    rng = np.random.default_rng(BENCH_SEED)
    # A mix of a hot working set (16 KiB, inside the default 32 KiB D-L1)
    # and a cold streaming tail, so the loop exercises L1 hits, L2 hits
    # and memory fills rather than a single steady state.
    hot = rng.integers(1, 1 << 8, size=accesses) << 6
    cold = (rng.integers(0, 1 << 24, size=accesses) << 6) | (1 << 33)
    pick_cold = rng.random(accesses) < 0.2
    is_store = rng.random(accesses) < 0.3
    trace = Trace(
        op=np.where(is_store, isa.STORE, isa.LOAD).astype(np.int8),
        src1=np.zeros(accesses, dtype=np.int32),
        src2=np.zeros(accesses, dtype=np.int32),
        addr=np.where(pick_cold, cold, hot).astype(np.int64),
        pc=0x400000 + 4 * np.arange(accesses, dtype=np.int64),
        taken=np.zeros(accesses, dtype=bool),
        name="cache_hierarchy",
    )
    config = ProcessorConfig()

    def work():
        core = OutOfOrderCore(config)
        result = core.run(trace)
        hier = core.hierarchy
        return {
            "accesses": int(accesses),
            "cpi_hash": stable_hash(result.cpi),
            "misses_hash": stable_hash(
                [hier.il1.misses, hier.dl1.misses, hier.l2.misses]),
        }

    return work


@benchmark("model/tree_build", group="models", tolerance=5.0)
def bench_tree_construction(ctx):
    """Regression-tree construction over a seeded design-space sample."""
    from repro.models.tree import RegressionTree

    p = ctx.scale(320, 96)
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.random((p, 9))
    responses = np.sin(points @ np.arange(1.0, 10.0)) + 0.1 * rng.random(p)

    def work():
        tree = RegressionTree(points, responses, p_min=1)
        nodes = tree.nodes_breadth_first()
        return {
            "points": int(p),
            "nodes": len(nodes),
            "leaves": sum(1 for n in nodes if n.is_leaf),
            "depth": int(tree.depth),
        }

    return work


@benchmark("model/aicc_select", group="models", repeats=3, tolerance=5.0)
def bench_aicc_selection(ctx):
    """The ``(p_min, alpha)`` grid search ``repro build`` fits a model with.

    :func:`~repro.models.rbf.search_rbf_model` over the default grid: one
    regression tree and its truncations, then AICc subset selection of RBF
    centers at every grid point.  ``subset_fits`` counts the least-squares
    fits it ran, so losing fit sharing shows as work drift, not only time.
    """
    from repro import obs
    from repro.models.rbf import search_rbf_model

    p = ctx.scale(160, 64)
    rng = np.random.default_rng(BENCH_SEED)
    points = rng.random((p, 9))
    responses = np.cos(points @ np.arange(1.0, 10.0)) + 0.05 * rng.random(p)

    def work():
        outer = obs.current()
        with obs.collecting() as fit:
            info = search_rbf_model(points, responses).info
        if outer is not None:
            outer.adopt(fit.payload())
        return {
            "points": int(p),
            "p_min": int(info.p_min),
            "alpha": float(info.alpha),
            "centers": int(info.num_centers),
            "criterion_hash": stable_hash(round(info.criterion_value, 6)),
            "subset_fits": int(fit.metrics.counters["fit/subset_fits"]),
        }

    return work


@benchmark("sampling/centered_l2", group="sampling", tolerance=5.0)
def bench_centered_l2(ctx):
    """A build's sample step: the best of 64 LHS candidates by CD2.

    :func:`~repro.sampling.optimizer.best_lhs_sample` draws all 64
    candidates, then scores them by centered L2 discrepancy in one batched
    pass, at the refit sweep's largest (full) and smallest (quick) size.
    """
    from repro.core.design_space import paper_design_space
    from repro.sampling.optimizer import best_lhs_sample

    p = ctx.scale(110, 30)
    space = paper_design_space()

    def work():
        sample = best_lhs_sample(space, p, BENCH_SEED, candidates=64)
        return {
            "points": int(sample.points.shape[0]),
            "dims": int(sample.points.shape[1]),
            "candidates": sample.candidates,
            "value_hash": stable_hash(round(sample.discrepancy, 12)),
        }

    return work


@benchmark("serve/predict_batch", group="serve", repeats=3, tolerance=5.0)
def bench_serve_predict_batch(ctx):
    """Batched provenance prediction: the ``/predict`` endpoint hot path.

    One fitted, calibrated RBF answering a large batch through
    ``predict_with_provenance`` — a single design-matrix pass plus the
    uncertainty band and hull flags per point.  The value hash pins the
    vectorised path's bitwise contract (identical to sequential
    single-point ``predict`` calls); a regression here is exactly a
    serving-latency regression.
    """
    from repro.models.rbf import build_rbf_from_tree

    n_batch = ctx.scale(10000, 2000)
    rng = np.random.default_rng(BENCH_SEED)
    x = rng.random((96, 9))
    y = np.sin(x @ np.arange(1.0, 10.0)) + 0.05 * rng.random(96)
    model, _ = build_rbf_from_tree(x, y, p_min=2, alpha=6.0)
    model.calibrate(x, y)
    batch = rng.random((n_batch, 9))

    def work():
        prov = model.predict_with_provenance(batch)
        return {
            "points": int(n_batch),
            "centers": int(model.num_centers),
            "values_hash": stable_hash(prov.values.tolist()),
            "extrapolated": int(prov.extrapolated.sum()),
        }

    return work
