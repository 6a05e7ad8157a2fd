"""Tests for the substrate extensions: prefetchers, TLBs, writebacks."""

import numpy as np
import pytest

from repro.simulator.cache import Cache
from repro.simulator.config import ProcessorConfig
from repro.simulator.hierarchy import MemoryHierarchy
from repro.simulator.prefetch import NextLinePrefetcher, StridePrefetcher
from repro.simulator.simulator import simulate
from repro.workloads.generator import generate_trace
from repro.workloads.profiles import PROFILES


class TestNextLinePrefetcher:
    def test_prefetches_next_line(self):
        pf = NextLinePrefetcher(64)
        assert pf.on_miss(0x1010) == [0x1040]
        assert pf.issued == 1

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            NextLinePrefetcher(60)


class TestStridePrefetcher:
    def test_confirms_before_prefetching(self):
        pf = StridePrefetcher(entries=64, degree=1, line_size=64)
        assert pf.on_access(0x400, 0x1000) == []  # first touch
        assert pf.on_access(0x400, 0x1100) == []  # stride learned
        assert pf.on_access(0x400, 0x1200) == []  # stride confirmed
        out = pf.on_access(0x400, 0x1300)  # steady: prefetch ahead
        assert out == [0x1400]

    def test_irregular_stream_stays_quiet(self):
        pf = StridePrefetcher(entries=64, degree=2)
        rng = np.random.default_rng(1)
        issued = 0
        for _ in range(200):
            issued += len(pf.on_access(0x400, int(rng.integers(0, 1 << 20))))
        assert issued < 10

    def test_degree_scales_prefetches(self):
        pf = StridePrefetcher(entries=64, degree=3, line_size=64)
        for addr in (0x1000, 0x1100, 0x1200):
            pf.on_access(0x400, addr)
        out = pf.on_access(0x400, 0x1300)
        assert len(out) == 3

    def test_small_stride_dedupes_lines(self):
        pf = StridePrefetcher(entries=64, degree=2, line_size=64)
        for addr in (0x1000, 0x1008, 0x1010):
            pf.on_access(0x400, addr)
        out = pf.on_access(0x400, 0x1018)
        # 8-byte strides stay within the current line: nothing new to fetch.
        assert out == []

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            StridePrefetcher(entries=100)
        with pytest.raises(ValueError):
            StridePrefetcher(degree=0)


class TestTLB:
    """The ITLB and DTLB: one-set caches of 4 KB pages in the hierarchy."""

    @staticmethod
    def _hier():
        return MemoryHierarchy(ProcessorConfig(enable_tlb=True, tlb_entries=2,
                                               tlb_walk_lat=10))

    def test_miss_then_hit(self):
        h = self._hier()
        lat = h.config.dl1_lat
        # Both ends of page 1, then pages 2 and 3: page 1 leaves the DTLB.
        for addr in (0x1000, 0x1FFF, 0x2000, 0x3000):
            h.access(addr, 0.0)
        assert h.dtlb.misses == 3
        # The D-L1 still holds every line: a DTLB miss adds exactly the
        # walk, and the far end of the same 4 KB page then adds nothing.
        assert h.access(0x1000, 100.0) == 100.0 + 10 + lat
        assert h.access(0x1FFF, 200.0) == 200.0 + lat
        assert h.dtlb.misses == 4
        # 0x2000 starts the next page, which page 1 evicted.
        assert h.access(0x2000, 300.0) == 300.0 + 10 + lat
        assert h.dtlb.misses == 5

    def test_lru_eviction(self):
        h = self._hier()
        lat = h.config.dl1_lat
        for addr in (0x1000, 0x2000, 0x1000, 0x3000):  # page 3 evicts page 2
            h.access(addr, 0.0)
        assert h.access(0x1000, 100.0) == 100.0 + lat
        assert h.access(0x2000, 200.0) == 200.0 + 10 + lat

    def test_miss_rate(self):
        h = self._hier()
        h.access(0x1000, 0.0)
        h.access(0x1008, 0.0)
        for pc in (0x400000, 0x401000, 0x402000):  # page 0x400 leaves the ITLB
            h.fetch(pc, 0.0)
        assert h.fetch(0x400000, 50.0) == 50.0 + 10  # an I-L1 hit
        assert h.fetch(0x400004, 90.0) == 90.0
        h.fetch(0x400FFC, 120.0)  # the far end of the same 4 KB page
        assert h.itlb.misses == 4
        stats = h.stats()
        assert stats["dtlb_miss_rate"] == pytest.approx(0.5)
        assert stats["itlb_miss_rate"] == pytest.approx(4 / 6)

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="tlb_entries"):
            ProcessorConfig(tlb_entries=0)
        with pytest.raises(ValueError, match="tlb_walk_lat"):
            ProcessorConfig(tlb_walk_lat=-1)


class TestWritebackCache:
    def test_dirty_eviction_counted(self):
        c = Cache(1, 64, 1, track_dirty=True)  # 16 sets, direct-mapped
        stride = 16 * 64
        c.access(0x0, write=True)
        c.access(stride)  # evicts the dirty line
        assert c.writebacks == 1
        assert c.last_writeback == 0x0

    def test_clean_eviction_not_counted(self):
        c = Cache(1, 64, 1, track_dirty=True)
        stride = 16 * 64
        c.access(0x0)
        c.access(stride)
        assert c.writebacks == 0
        assert c.last_writeback == -1

    def test_untracked_cache_never_counts(self):
        c = Cache(1, 64, 1)
        stride = 16 * 64
        c.access(0x0, write=True)
        c.access(stride)
        assert c.writebacks == 0


class TestHierarchyIntegration:
    TRACE = generate_trace(PROFILES["equake"], 4000, seed=3)

    def test_defaults_disable_extensions(self):
        h = MemoryHierarchy(ProcessorConfig())
        assert h.itlb is None and h.stride is None and h.nextline is None
        assert not h.dl1.track_dirty

    def test_stride_prefetch_helps_streaming_workload(self):
        base = simulate(ProcessorConfig(), self.TRACE)
        pf = simulate(ProcessorConfig(enable_stride_prefetch=True,
                                      prefetch_degree=4), self.TRACE)
        assert pf.cpi < base.cpi

    def test_tlb_misses_cost_cycles(self):
        trace = generate_trace(PROFILES["mcf"], 4000, seed=3)
        base = simulate(ProcessorConfig(), trace)
        tlb = simulate(ProcessorConfig(enable_tlb=True), trace)
        assert tlb.cpi > base.cpi  # mcf's footprint blows a 64-entry TLB

    def test_writeback_generates_traffic(self):
        trace = generate_trace(PROFILES["twolf"], 4000, seed=3)
        config = ProcessorConfig(writeback=True, dl1_size_kb=8)
        sim = MemoryHierarchy(config)
        from repro.simulator.ooo_core import OutOfOrderCore

        core = OutOfOrderCore(config)
        core.run(trace)
        stats = core.hierarchy.stats()
        assert stats["dl1_writebacks"] > 0

    def test_extension_stats_keys(self):
        config = ProcessorConfig(enable_tlb=True, enable_stride_prefetch=True)
        from repro.simulator.ooo_core import OutOfOrderCore

        core = OutOfOrderCore(config)
        core.run(self.TRACE)
        stats = core.hierarchy.stats()
        assert "itlb_miss_rate" in stats
        assert "prefetch_fills" in stats
