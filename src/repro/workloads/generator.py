"""Synthetic instruction-trace generation from a workload profile.

The generator assembles a dynamic instruction stream the way real integer
code executes: a sequence of basic blocks drawn from a skewed (hot-loop)
popularity distribution, each block a run of sequential-PC instructions
terminated by a control op.  Within blocks:

* non-control slots draw an op class from the profile's mix;
* loads and stores draw addresses from the profile's stream mixture
  (:mod:`repro.workloads.streams`);
* register dependences point a geometrically distributed distance back in
  the stream — except loads fed by the chase stream, which depend on the
  *previous* chase load, serialising them into a pointer-chasing chain;
* each block's terminating branch has a per-site dominant direction and
  bias, plus a profile-controlled fraction of genuinely random outcomes,
  which together set the gshare predictor's achievable accuracy.

Generation is fully deterministic given (profile, length, seed).
"""

from __future__ import annotations

import numpy as np

from repro.simulator import isa
from repro.simulator.trace import Trace
from repro.util.rng import make_rng
from repro.workloads.profiles import WorkloadProfile
from repro.workloads.streams import ChaseStream, HotStream, StackStream, StridedStream

_CODE_BASE = 0x0040_0000
_MAX_BLOCK_LEN = 16
_MIN_BLOCK_LEN = 2


def _block_popularity(num_blocks: int, zipf: float, rng: np.random.Generator) -> np.ndarray:
    """Zipf-like popularity over blocks, with randomly permuted ranks."""
    ranks = rng.permutation(num_blocks) + 1
    weights = 1.0 / ranks.astype(float) ** zipf
    return weights / weights.sum()


def _op_thresholds(profile: WorkloadProfile):
    """Cumulative thresholds for drawing non-control op classes."""
    pairs = [
        (profile.load_frac, isa.LOAD),
        (profile.store_frac, isa.STORE),
        (profile.imult_frac, isa.IMULT),
        (profile.idiv_frac, isa.IDIV),
        (profile.fpalu_frac, isa.FPALU),
        (profile.fpmult_frac, isa.FPMULT),
        (profile.fpdiv_frac, isa.FPDIV),
    ]
    total_control = 1.0 / profile.mean_block_len
    # Rescale the mix to the non-control share of the stream; IALU fills
    # whatever remains.
    scale = 1.0 / max(1e-9, 1.0 - total_control)
    thresholds = []
    acc = 0.0
    for frac, op in pairs:
        if frac > 0:
            acc += frac * scale
            thresholds.append((acc, op))
    return thresholds


def generate_trace(profile: WorkloadProfile, length: int, seed: int = 0) -> Trace:
    """Generate a ``length``-instruction trace for ``profile``.

    Parameters
    ----------
    profile:
        The benchmark's statistical profile.
    length:
        Number of dynamic instructions.
    seed:
        Root seed; combined with the profile name so different benchmarks
        use decorrelated streams even under the same root seed.
    """
    if length < 0:
        raise ValueError("length must be non-negative")
    rng = make_rng(seed, "trace", profile.name, length)

    # -- static program structure ------------------------------------------
    nb = profile.num_blocks
    block_len = np.clip(
        rng.poisson(max(profile.mean_block_len - _MIN_BLOCK_LEN, 1), nb)
        + _MIN_BLOCK_LEN,
        _MIN_BLOCK_LEN,
        _MAX_BLOCK_LEN,
    )
    block_pc = _CODE_BASE + np.concatenate([[0], np.cumsum(block_len[:-1]) * 4])
    popularity = _block_popularity(nb, profile.code_zipf, rng)
    site_is_jump = rng.random(nb) < profile.jump_frac_of_control
    site_dominant_taken = rng.random(nb) < 0.6  # loops skew toward taken

    # Static slot assignment: every non-control code slot gets a fixed op
    # class, and memory slots a fixed address-stream class, so a given PC
    # behaves the same way on every dynamic execution — as real static
    # instructions do.  (Stream codes: 0 stack, 1 hot, 2 strided, 3 chase;
    # strided slots additionally pin one array cursor, giving each such PC
    # a constant stride.)
    thresholds = _op_thresholds(profile)
    stream_cut1 = profile.stack_w
    stream_cut2 = stream_cut1 + profile.hot_w
    stream_cut3 = stream_cut2 + profile.stream_w
    slot_op = []
    slot_stream = []
    slot_cursor = []
    strided_slot_count = 0
    for b in range(nb):
        n_slots = int(block_len[b]) - 1
        ops = np.empty(n_slots, dtype=np.int8)
        streams = np.full(n_slots, -1, dtype=np.int8)
        cursors = np.full(n_slots, -1, dtype=np.int16)
        for j in range(n_slots):
            u = rng.random()
            op = isa.IALU
            for cut, candidate in thresholds:
                if u < cut:
                    op = candidate
                    break
            ops[j] = op
            if op == isa.LOAD or op == isa.STORE:
                su = rng.random()
                if su < stream_cut1:
                    streams[j] = 0
                elif su < stream_cut2:
                    streams[j] = 1
                elif su < stream_cut3:
                    streams[j] = 2
                    cursors[j] = strided_slot_count % profile.num_streams
                    strided_slot_count += 1
                else:
                    streams[j] = 3
        slot_op.append(ops.tolist())
        slot_stream.append(streams.tolist())
        slot_cursor.append(cursors.tolist())

    # -- address streams -------------------------------------------------
    stack = StackStream()
    hot = HotStream(profile.hot_kb * 1024)
    strided = StridedStream(
        profile.footprint_kb * 1024,
        profile.stride,
        profile.num_streams,
        segment_bytes=profile.stream_seg_kb * 1024,
    )
    chase = ChaseStream(
        profile.footprint_kb * 1024,
        min_distance=profile.chase_min_reuse_refs,
        reuse_frac=profile.chase_reuse_frac,
    )
    geo_p = 1.0 / max(profile.mean_dep_distance, 1.0)

    # -- dynamic stream ---------------------------------------------------
    # The per-instruction loop works on plain Python lists and converts
    # once at the end; numpy scalar reads and writes cost more than the
    # draws themselves.  The RNG calls and their order are the contract.
    op_out = [0] * length
    src1_out = [0] * length
    src2_out = [0] * length
    addr_out = [0] * length
    pc_out = [0] * length
    taken_out = [False] * length

    lengths = block_len.tolist()
    pcs = block_pc.tolist()
    is_jump = site_is_jump.tolist()
    dominant_taken = site_dominant_taken.tolist()
    random = rng.random
    geometric = rng.geometric
    stack_next, hot_next = stack.next, hot.next
    strided_next, chase_next = strided.next, chase.next
    branch_noise = profile.branch_noise
    branch_bias = profile.branch_bias
    dep2_prob = profile.dep2_prob
    chain_break = 1.0 / max(profile.chase_chain_len, 1.0)
    load_op, store_op = isa.LOAD, isa.STORE

    # Pre-draw the block sequence in bulk (cheaper than per-block draws).
    expected_blocks = max(8, int(length / profile.mean_block_len * 1.5) + 8)
    block_seq = rng.choice(nb, size=expected_blocks, p=popularity).tolist()
    block_cursor = 0

    i = 0
    last_chase_load = -1
    while i < length:
        if block_cursor >= len(block_seq):
            block_seq = rng.choice(nb, size=expected_blocks, p=popularity).tolist()
            block_cursor = 0
        b = block_seq[block_cursor]
        block_cursor += 1
        n_instr = lengths[b]
        base_pc = pcs[b]
        ops, streams, cursors = slot_op[b], slot_stream[b], slot_cursor[b]
        for j in range(n_instr):
            if i >= length:
                break
            pc_out[i] = base_pc + 4 * j
            if j == n_instr - 1:
                if is_jump[b]:
                    op_out[i] = isa.JUMP
                    taken_out[i] = True
                else:
                    op_out[i] = isa.BRANCH
                    if random() < branch_noise:
                        outcome = random() < 0.5
                    else:
                        follows_bias = random() < branch_bias
                        outcome = dominant_taken[b] == follows_bias
                    taken_out[i] = outcome
                # Branches compare a recently produced value.
                d = geometric(geo_p)
                if 0 < d <= i:
                    src1_out[i] = d
            else:
                op = ops[j]
                op_out[i] = op
                if op == load_op or op == store_op:
                    stream = streams[j]
                    if stream == 0:
                        addr_out[i] = stack_next(rng)
                    elif stream == 1:
                        addr_out[i] = hot_next(rng)
                    elif stream == 2:
                        addr_out[i] = strided_next(rng, stream=cursors[j])
                    else:
                        addr_out[i] = chase_next(rng)
                        if op == load_op:
                            # Serialise chase loads into finite-length
                            # dependence chains; chain breaks let separate
                            # chains overlap in the instruction window
                            # (memory-level parallelism).
                            chain_continues = random() >= chain_break
                            if last_chase_load >= 0 and chain_continues:
                                src1_out[i] = i - last_chase_load
                            last_chase_load = i
                if src1_out[i] == 0:
                    d = geometric(geo_p)
                    if 0 < d <= i:
                        src1_out[i] = d
                if random() < dep2_prob:
                    d = geometric(geo_p)
                    if 0 < d <= i:
                        src2_out[i] = d
            i += 1

    trace = Trace(
        op=np.array(op_out, dtype=np.int8),
        src1=np.array(src1_out, dtype=np.int32),
        src2=np.array(src2_out, dtype=np.int32),
        addr=np.array(addr_out, dtype=np.int64),
        pc=np.array(pc_out, dtype=np.int64),
        taken=np.array(taken_out, dtype=bool),
        name=profile.name,
    )
    trace.validate()
    return trace
