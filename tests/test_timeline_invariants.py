"""Property tests over the per-instruction :class:`Timeline`.

The attribution layer reads the core's commit gaps as ground truth, so
the timestamps themselves must obey the pipeline's ordering and capacity
laws.  For every SPEC profile (and the three contrasting design points
pinned in :mod:`tests.test_vectorised`) the collected timeline must
satisfy:

* **stage order** per instruction: ``fetch <= dispatch``,
  ``dispatch + 1 <= issue``, ``issue < complete``,
  ``complete + 1 <= commit``, all integer-valued;
* **program order**: commit times are non-decreasing;
* **commit width**: at most ``commit_width`` instructions share a commit
  cycle;
* **capacity**: instruction ``i`` cannot dispatch until ``i - rob_size``
  has committed (ROB), ``i - iq_size`` has issued (IQ), and the
  ``m - lsq_size``-th memory op has committed (LSQ);
* **FU replay**: each instruction asks for a unit at
  ``max(dispatch + 1, complete of its producers)``, and replaying every
  pool as a plain list of unit free times in program order (take the
  first strict minimum, start no sooner than it, keep that unit busy for
  the op's initiation interval) gives exactly the issue times.

Given the run's attribution tags, each tag must also name a constraint
that binds in the timeline:

* a tag other than ``base`` marks a non-empty commit gap that the
  instruction's own completion set (``commit == complete + 1``);
* a ROB, IQ or LSQ tag means dispatch equals that structure's
  candidate, and a front-end tag (I-cache, BTB, redirect) that it
  equals fetch plus the front-end depth; either way the instruction
  issues the cycle after dispatch;
* an FU tag means issue is later than the operand-ready time;
* an execution tag (``dep`` for a non-load, a memory level for a load)
  names either the instruction's own service, which then fills at least
  as much of the commit gap as its wait before issue, or an operand: a
  producer of that kind completes exactly at the operand-ready time.
"""

from collections import Counter

import pytest

from repro.core.design_space import paper_design_space
from repro.simulator import attribution as attr
from repro.simulator import isa
from repro.simulator.config import ProcessorConfig
from repro.simulator.ooo_core import OutOfOrderCore
from repro.workloads.spec2000 import benchmark_names, get_trace
from tests.test_vectorised import PIN_POINTS

TRACE_LENGTH = 2048


def _timeline(bench, point):
    space = paper_design_space()
    config = ProcessorConfig.from_design_point(space.resolve(dict(point)))
    core = OutOfOrderCore(config)
    trace = get_trace(bench, TRACE_LENGTH, 0)
    core.run(trace, collect_timeline=True, collect_attribution=True)
    return config, trace, core.timeline, core.attribution.tags


#: Tags of a dispatch stall that the front end set.
FRONT_END_TAGS = (attr.TAG_ICACHE, attr.TAG_BTB, attr.TAG_REDIRECT)
#: Tags of any dispatch stall.
DISPATCH_TAGS = FRONT_END_TAGS + (attr.TAG_ROB, attr.TAG_IQ, attr.TAG_LSQ)
#: Tags an op's own execution (or an operand's producer's) carries.
EXEC_TAGS = (attr.TAG_DEP, attr.TAG_STORE_FORWARD, attr.TAG_DL1,
             attr.TAG_L2, attr.TAG_DRAM)


def check_invariants(config, trace, tl, tags=None):
    """Assert the module docstring's laws on ``tl``, a run of ``trace``;
    the tag laws too when the run's attribution ``tags`` are given."""
    n = len(tl.commit)
    assert n == len(trace)

    # Stage order and integrality, per instruction.
    for i in range(n):
        f, d, s = tl.fetch[i], tl.dispatch[i], tl.issue[i]
        c, m = tl.complete[i], tl.commit[i]
        assert f <= d, i
        assert d + 1.0 <= s, i
        assert s < c, i
        assert c + 1.0 <= m, i
        for stamp in (f, d, s, c, m):
            assert float(stamp).is_integer(), i

    # In-order, non-decreasing commit.
    assert all(tl.commit[i] >= tl.commit[i - 1] for i in range(1, n))

    # Commit-width bound.
    busiest = max(Counter(tl.commit).values())
    assert busiest <= config.commit_width

    # ROB: dispatch waits for the commit of the instruction rob_size back.
    rob = config.rob_size
    for i in range(rob, n):
        assert tl.commit[i - rob] + 1.0 <= tl.dispatch[i], i

    # IQ: dispatch waits for the issue of the instruction iq_size back.
    iq = config.iq_size
    for i in range(iq, n):
        assert tl.issue[i - iq] + 1.0 <= tl.dispatch[i], i

    # LSQ: a memory op's dispatch waits for the commit of the memory op
    # lsq_size back in memory-op order.
    lsq = config.lsq_size
    mem = [i for i in range(n) if trace.op[i] in (isa.LOAD, isa.STORE)]
    for m_idx in range(lsq, len(mem)):
        assert (tl.commit[mem[m_idx - lsq]] + 1.0
                <= tl.dispatch[mem[m_idx]]), mem[m_idx]

    # FU replay: an independent list scan, not the core's heaps.
    pools = {"ialu": [0.0] * config.num_ialu, "imult": [0.0] * config.num_imult,
             "fp": [0.0] * config.num_fp, "mem": [0.0] * config.num_mem_ports}
    ops = trace.op.tolist()
    sources = list(zip(trace.src1.tolist(), trace.src2.tolist()))
    asks = []
    for i, (op, (s1, s2)) in enumerate(zip(ops, sources)):
        asked = max([tl.dispatch[i] + 1.0]
                    + [tl.complete[i - s] for s in (s1, s2) if s])
        asks.append(asked)
        free = pools[isa.FU_CLASS[op]]
        unit = free.index(min(free))
        start = max(asked, free[unit])
        free[unit] = start + isa.OP_TIMING[op][1]
        assert tl.issue[i] == start, i

    if tags is None:
        return
    # Tags: each names a constraint that binds in the timeline.
    assert len(tags) == n
    mem_rank = {i: m_idx for m_idx, i in enumerate(mem)}
    for i, tag in enumerate(tags):
        if tag == attr.TAG_BASE:
            continue
        assert tl.commit[i] == tl.complete[i] + 1.0, i
        assert i == 0 or tl.commit[i] > tl.commit[i - 1], i
        if tag in DISPATCH_TAGS:
            assert tl.issue[i] == tl.dispatch[i] + 1.0, i
        if tag == attr.TAG_ROB:
            assert i >= rob and tl.dispatch[i] == tl.commit[i - rob] + 1.0, i
        elif tag == attr.TAG_IQ:
            assert i >= iq and tl.dispatch[i] == tl.issue[i - iq] + 1.0, i
        elif tag == attr.TAG_LSQ:
            m_idx = mem_rank[i]
            assert (m_idx >= lsq and tl.dispatch[i]
                    == tl.commit[mem[m_idx - lsq]] + 1.0), i
        elif tag in FRONT_END_TAGS:
            assert tl.dispatch[i] == tl.fetch[i] + config.front_depth, i
        elif tag == attr.TAG_FU:
            assert tl.issue[i] > asks[i], i
        else:
            assert tag in EXEC_TAGS, (i, tag)
            from_load = tag != attr.TAG_DEP
            prev = tl.commit[i - 1] if i else 0.0
            wait = tl.issue[i] - prev
            served = tl.complete[i] - max(tl.issue[i], prev)
            own = ((ops[i] == isa.LOAD) == from_load
                   and served > 0.0 and served >= wait)
            operand = (tl.issue[i] == asks[i] > tl.dispatch[i] + 1.0
                       and any(tl.complete[i - s] == asks[i]
                               and (ops[i - s] == isa.LOAD) == from_load
                               for s in sources[i] if s))
            assert own or operand, (i, tag)


@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("point_index", range(len(PIN_POINTS)))
def test_timeline_invariants(bench, point_index):
    config, trace, tl, tags = _timeline(bench, PIN_POINTS[point_index])
    assert len(tl.commit) == TRACE_LENGTH
    check_invariants(config, trace, tl, tags)


def test_timeline_matches_attribution_commit_stream():
    """The attribution's commit array is the timeline's, element for element."""
    space = paper_design_space()
    config = ProcessorConfig.from_design_point(
        space.resolve(dict(PIN_POINTS[1])))
    core = OutOfOrderCore(config)
    trace = get_trace("mcf", TRACE_LENGTH, 0)
    core.run(trace, collect_timeline=True, collect_attribution=True)
    assert list(core.attribution.commit) == core.timeline.commit
    assert len(core.attribution.tags) == len(core.timeline.commit)
