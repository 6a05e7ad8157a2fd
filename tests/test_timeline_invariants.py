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
"""

from collections import Counter

import pytest

from repro.core.design_space import paper_design_space
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
    core.run(trace, collect_timeline=True)
    return config, trace, core.timeline


def check_invariants(config, trace, tl):
    """Assert the module docstring's laws on ``tl``, a run of ``trace``."""
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
    for i, (op, s1, s2) in enumerate(zip(trace.op.tolist(), trace.src1.tolist(),
                                         trace.src2.tolist())):
        asked = max([tl.dispatch[i] + 1.0]
                    + [tl.complete[i - s] for s in (s1, s2) if s])
        free = pools[isa.FU_CLASS[op]]
        unit = free.index(min(free))
        start = max(asked, free[unit])
        free[unit] = start + isa.OP_TIMING[op][1]
        assert tl.issue[i] == start, i


@pytest.mark.parametrize("bench", benchmark_names())
@pytest.mark.parametrize("point_index", range(len(PIN_POINTS)))
def test_timeline_invariants(bench, point_index):
    config, trace, tl = _timeline(bench, PIN_POINTS[point_index])
    assert len(tl.commit) == TRACE_LENGTH
    check_invariants(config, trace, tl)


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
