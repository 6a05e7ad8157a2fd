"""The full memory hierarchy: split L1s, unified L2, memory controller.

Composes :class:`~repro.simulator.cache.Cache`,
:class:`~repro.simulator.memctrl.MemoryController` and
:class:`~repro.simulator.dram.DRAM` into the three access paths the core
needs: instruction fetch, data load and data store.  In-flight L2 line fills
are tracked MSHR-style so that a second miss to a line already being fetched
merges with the outstanding fill instead of issuing a duplicate memory
request.

Substrate extensions (all disabled in the paper-reproduction machine, see
:class:`~repro.simulator.config.ProcessorConfig`):

* a next-line instruction prefetcher and a PC-indexed data stride
  prefetcher, whose prefetches run the real L2/memory path (consuming
  bandwidth and potentially polluting the L2);
* instruction and data TLBs, adding page-walk latency on misses;
* dirty-line writeback traffic from the D-L1 and L2.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.simulator.cache import Cache
from repro.simulator.config import ProcessorConfig
from repro.simulator.dram import DRAM
from repro.simulator.memctrl import MemoryController
from repro.simulator.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.simulator.tlb import TLB

#: In-flight fill table is pruned when it grows past this many lines.
_INFLIGHT_LIMIT = 256


class MemoryHierarchy:
    """L1I + L1D + unified L2 + memory controller + DRAM."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        track_dirty = config.writeback
        self.il1 = Cache(config.il1_size_kb, config.il1_line, config.il1_assoc, "il1")
        self.dl1 = Cache(config.dl1_size_kb, config.dl1_line, config.dl1_assoc,
                         "dl1", track_dirty=track_dirty)
        effective_l2_kb = max(8, config.l2_size_kb // config.l2_capacity_scale)
        self.l2 = Cache(effective_l2_kb, config.l2_line, config.l2_assoc, "l2",
                        track_dirty=track_dirty)
        self.dram = DRAM(config.dram_banks, config.dram_lat, config.dram_row_hit_lat)
        self.memctrl = MemoryController(self.dram, config.bus_cycles, config.mc_queue_depth)
        self._inflight: Dict[int, float] = {}
        # Min-heap of (completion, line) mirroring ``_inflight`` inserts,
        # so pruning pops only completed entries instead of rebuilding the
        # whole table (which is quadratic when the bus saturates and no
        # entry is actually prunable).
        self._inflight_heap: List[Tuple[float, int]] = []

        self.nextline: Optional[NextLinePrefetcher] = (
            NextLinePrefetcher(config.il1_line)
            if config.enable_nextline_prefetch else None
        )
        self.stride: Optional[StridePrefetcher] = (
            StridePrefetcher(degree=config.prefetch_degree, line_size=config.dl1_line)
            if config.enable_stride_prefetch else None
        )
        self.itlb: Optional[TLB] = (
            TLB(config.tlb_entries, walk_latency=config.tlb_walk_lat)
            if config.enable_tlb else None
        )
        self.dtlb: Optional[TLB] = (
            TLB(config.tlb_entries, walk_latency=config.tlb_walk_lat)
            if config.enable_tlb else None
        )
        self.prefetch_fills = 0
        #: Level that serviced the most recent access routed through the
        #: L1D/L2 path ("dl1", "l2" or "dram").  Cycle attribution reads
        #: it immediately after :meth:`load`; it is only meaningful there.
        self.last_level = "dl1"

    # -- internals ---------------------------------------------------------

    def _l2_fill(self, addr: int, time: float) -> float:
        """Access memory for an L2 miss, merging with in-flight fills."""
        line = self.l2.line_of(addr)
        inflight = self._inflight
        ready = inflight.get(line)
        if ready is not None and ready > time:
            return ready
        done = self.memctrl.access(addr, time)
        inflight[line] = done
        heapq.heappush(self._inflight_heap, (done, line))
        if len(inflight) > _INFLIGHT_LIMIT:
            # Drop every completed fill (ready <= now), exactly as the
            # old full-table rebuild did, but in O(log n) per removal:
            # each table entry has a heap record carrying its completion
            # time, so popping the heap up to ``time`` visits precisely
            # the prunable entries.  Records superseded by a re-fill of
            # the same line are skipped via the value check.
            heap = self._inflight_heap
            while heap and heap[0][0] <= time:
                ready, stale_line = heapq.heappop(heap)
                if inflight.get(stale_line) == ready:
                    del inflight[stale_line]
        return done

    def _l2_access(self, addr: int, time: float, write: bool = False) -> float:
        """L2 lookup at ``time``; returns data-ready time."""
        if self.l2.access(addr, write=write):
            self.last_level = "l2"
            return time + self.config.l2_lat
        self._drain_writeback(self.l2, time)
        self.last_level = "dram"
        return self._l2_fill(addr, time + self.config.l2_lat)

    def _drain_writeback(self, cache: Cache, time: float) -> None:
        """Push a just-evicted dirty line down the hierarchy (bandwidth only)."""
        if not cache.track_dirty or cache.last_writeback < 0:
            return
        victim = cache.last_writeback
        cache.last_writeback = -1
        if cache is self.dl1:
            # D-L1 victim is written into the L2.
            if not self.l2.access(victim, write=True):
                self._drain_writeback(self.l2, time)
                self._l2_fill(victim, time)
        else:
            # L2 victim goes to memory; commit-path traffic, non-blocking.
            self.memctrl.access(victim, time)

    def _prefetch_into_l2(self, lines, time: float) -> None:
        """Issue prefetch requests down the L2 path (bandwidth-consuming)."""
        for line_addr in lines:
            if not self.l2.access(line_addr):
                self._drain_writeback(self.l2, time)
                self._l2_fill(line_addr, time)
                self.prefetch_fills += 1

    # -- access paths ---------------------------------------------------------

    def fetch(self, pc: int, time: float) -> float:
        """Instruction-line fetch issued at ``time``; returns line-ready time.

        An L1I hit costs nothing beyond the pipelined fetch stage itself.
        """
        if self.itlb is not None:
            time += self.itlb.access(pc)
        if self.il1.access(pc):
            return time
        if self.nextline is not None:
            self._prefetch_into_l2(self.nextline.on_miss(pc), time)
        return self._l2_access(pc, time)

    def load(self, addr: int, time: float, pc: int = 0) -> float:
        """Data load issued at ``time``; returns data-ready time."""
        if self.dtlb is not None:
            time += self.dtlb.access(addr)
        if self.stride is not None:
            self._prefetch_into_l2(self.stride.on_access(pc, addr), time)
        if self.dl1.access(addr):
            self.last_level = "dl1"
            return time + self.config.dl1_lat
        self._drain_writeback(self.dl1, time)
        return self._l2_access(addr, time + self.config.dl1_lat)

    def store(self, addr: int, time: float, pc: int = 0) -> float:
        """Data store performed at ``time`` (post-commit, write-allocate).

        Returns the time the line is owned; commit does not wait on it (a
        store buffer is assumed), but misses consume L2/memory bandwidth and
        so delay later loads.
        """
        if self.dtlb is not None:
            time += self.dtlb.access(addr)
        if self.stride is not None:
            self._prefetch_into_l2(self.stride.on_access(pc, addr), time)
        if self.dl1.access(addr, write=True):
            return time + self.config.dl1_lat
        self._drain_writeback(self.dl1, time)
        return self._l2_access(addr, time + self.config.dl1_lat)

    def stats(self) -> Dict[str, float]:
        """Per-structure access/miss statistics."""
        out = {
            "il1_accesses": self.il1.accesses,
            "il1_miss_rate": self.il1.miss_rate,
            "dl1_accesses": self.dl1.accesses,
            "dl1_miss_rate": self.dl1.miss_rate,
            "l2_accesses": self.l2.accesses,
            "l2_miss_rate": self.l2.miss_rate,
            "memory_requests": self.memctrl.requests,
            "mean_queue_delay": self.memctrl.mean_queue_delay,
            "dram_row_hit_rate": self.dram.row_hit_rate,
        }
        if self.config.writeback:
            out["dl1_writebacks"] = self.dl1.writebacks
            out["l2_writebacks"] = self.l2.writebacks
        if self.itlb is not None:
            out["itlb_miss_rate"] = self.itlb.miss_rate
        if self.dtlb is not None:
            out["dtlb_miss_rate"] = self.dtlb.miss_rate
        if self.stride is not None or self.nextline is not None:
            out["prefetch_fills"] = self.prefetch_fills
        return out
