"""Functional-unit pools and structural-hazard timing.

Each functional-unit class (integer ALUs, integer multiplier/divider, FP
units, memory ports) owns a small pool of units.  An instruction requesting
a unit at time ``t`` starts on the earliest-free unit no sooner than ``t``;
the unit is then busy for the op's initiation interval (1 for pipelined
units, close to the latency for the unpipelined dividers).  The core runs
that arbitration inline, on the tables built here.

A pool's units are interchangeable: only the multiset of their free times
decides when the next op starts.  So each pool is kept as a min-heap of
free times, and a claim reads the root and replaces it with
``start + interval`` (one :func:`heapq.heapreplace`), which changes the
multiset exactly as overwriting the first earliest-free entry of a plain
list would.
"""

from __future__ import annotations

from typing import List

from repro.simulator.config import ProcessorConfig
from repro.simulator import isa


def fu_pools(config: ProcessorConfig) -> List[List[float]]:
    """Per op class, the per-unit free times of its functional-unit pool.

    Each list is a :mod:`heapq` min-heap: read only its root ``free[0]``
    and update it only through :func:`heapq.heapreplace`.  Every unit
    starts free at time 0, and an all-zero list is already a heap.  Op
    classes that share a pool (:data:`repro.simulator.isa.FU_CLASS`)
    share one list object, so a unit one of them claims is busy for the
    others.
    """
    pools = {
        "ialu": [0.0] * config.num_ialu,
        "imult": [0.0] * config.num_imult,
        "fp": [0.0] * config.num_fp,
        "mem": [0.0] * config.num_mem_ports,
    }
    return [pools[isa.FU_CLASS[op]] for op in range(isa.NUM_OP_CLASSES)]
