"""The full memory hierarchy: split L1s, unified L2, memory controller.

Composes :class:`~repro.simulator.cache.Cache`,
:class:`~repro.simulator.memctrl.MemoryController` and
:class:`~repro.simulator.dram.DRAM` into the access paths the core needs:
instruction fetch (:meth:`MemoryHierarchy.fetch`), one data entry for
loads and stores (:meth:`MemoryHierarchy.access`), and the L1-miss entry
(:meth:`MemoryHierarchy.l1_miss`) that serves the core's own D-L1 probe on
machines without TLBs or writeback traffic.  In-flight L2 line fills are
tracked MSHR-style so that a second miss to a line already being fetched
merges with the outstanding fill instead of issuing a duplicate memory
request.

Substrate extensions (all disabled in the paper-reproduction machine, see
:class:`~repro.simulator.config.ProcessorConfig`):

* a next-line instruction prefetcher and a PC-indexed data stride
  prefetcher, whose prefetches run the real L2/memory path (consuming
  bandwidth and potentially polluting the L2);
* instruction and data TLBs, adding page-walk latency on misses: each is a
  one-set :class:`~repro.simulator.cache.Cache` of ``tlb_entries`` ways
  whose lines are 4 KB pages, so a miss evicts the least recently used
  page;
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
        self.l2 = Cache(config.l2_simulated_kb, config.l2_line, config.l2_assoc, "l2",
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
        # Each TLB is one set of ``tlb_entries`` ways of 4 KB pages.
        self.itlb: Optional[Cache] = None
        self.dtlb: Optional[Cache] = None
        if config.enable_tlb:
            entries = config.tlb_entries
            self.itlb = Cache(4 * entries, 4096, entries, "itlb")
            self.dtlb = Cache(4 * entries, 4096, entries, "dtlb")
        self.prefetch_fills = 0
        #: Level that serviced the most recent access routed through the
        #: L1D/L2 path ("dl1", "l2" or "dram").  Cycle attribution reads
        #: it immediately after a load's :meth:`access` or :meth:`l1_miss`;
        #: it is only meaningful there.
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

    def l1_miss(self, addr: int, time: float) -> float:
        """Service an L1 miss whose L2 lookup starts at ``time``.

        L2 lookup, then on an L2 miss an MSHR merge with an in-flight fill
        or a memory-controller/DRAM access; returns the data-ready time and
        leaves the servicing level in :attr:`last_level`.  :meth:`fetch`
        and :meth:`access` end here on a miss, and so does the core's own
        D-L1 probe (see :mod:`repro.simulator.ooo_core`).
        """
        if self.l2.access(addr):
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

    def prefetch(self, lines, time: float) -> None:
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
        if self.itlb is not None and not self.itlb.access(pc):
            time += self.config.tlb_walk_lat
        if self.il1.access(pc):
            return time
        if self.nextline is not None:
            self.prefetch(self.nextline.on_miss(pc), time)
        return self.l1_miss(pc, time)

    def access(self, addr: int, time: float, pc: int = 0, write: bool = False) -> float:
        """Data load, or store with ``write``, issued at ``time``.

        Returns the data-ready time; for a store, the time its line is
        owned.  Stores are performed after commit (write-allocate) and
        commit does not wait on them (a store buffer is assumed), but their
        misses consume L2/memory bandwidth and so delay later loads.
        """
        if self.dtlb is not None and not self.dtlb.access(addr):
            time += self.config.tlb_walk_lat
        if self.stride is not None:
            self.prefetch(self.stride.on_access(pc, addr), time)
        if self.dl1.access(addr, write):
            self.last_level = "dl1"
            return time + self.config.dl1_lat
        self._drain_writeback(self.dl1, time)
        return self.l1_miss(addr, time + self.config.dl1_lat)

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
