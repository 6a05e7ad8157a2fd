"""Tests for DRAM device timing, the memory controller, and the hierarchy."""

import pytest

from repro.simulator.config import ProcessorConfig
from repro.simulator.dram import DRAM, ROW_SIZE
from repro.simulator.hierarchy import MemoryHierarchy
from repro.simulator.memctrl import MemoryController


class TestDRAM:
    def test_row_miss_then_row_hit(self):
        d = DRAM(num_banks=2, access_lat=100, row_hit_lat=40)
        t1 = d.access(0, time=0.0)
        assert t1 == 100.0
        t2 = d.access(8, time=t1)  # same row
        assert t2 == t1 + 40.0
        assert d.row_hits == 1

    def test_bank_conflict_serialises(self):
        d = DRAM(num_banks=2, access_lat=100, row_hit_lat=40)
        d.access(0, time=0.0)  # bank 0 busy until 100
        # Different row, same bank (row number differs by num_banks).
        t = d.access(2 * ROW_SIZE, time=0.0)
        assert t == 200.0  # waited for the bank

    def test_different_banks_overlap(self):
        d = DRAM(num_banks=2, access_lat=100, row_hit_lat=40)
        d.access(0, time=0.0)
        t = d.access(ROW_SIZE, time=0.0)  # adjacent row -> other bank
        assert t == 100.0

    def test_row_hit_rate(self):
        d = DRAM()
        d.access(0, 0.0)
        d.access(16, 200.0)
        assert d.row_hit_rate == pytest.approx(0.5)

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            DRAM(num_banks=0)
        with pytest.raises(ValueError):
            DRAM(access_lat=50, row_hit_lat=60)


class TestMemoryController:
    def _mc(self, queue_depth=2, bus=10):
        return MemoryController(DRAM(num_banks=8, access_lat=100, row_hit_lat=40),
                                bus_cycles=bus, queue_depth=queue_depth)

    def test_single_request_latency(self):
        mc = self._mc()
        done = mc.access(0, time=0.0)
        assert done == 100.0 + 10.0  # device + bus transfer

    def test_bus_serialises_transfers(self):
        mc = self._mc()
        t1 = mc.access(0, time=0.0)
        # Different bank, device time overlaps, but the bus is shared.
        t2 = mc.access(ROW_SIZE, time=0.0)
        assert t2 >= t1 + 10.0

    def test_queue_full_delays_admission(self):
        mc = self._mc(queue_depth=1)
        t1 = mc.access(0, time=0.0)
        mc.access(ROW_SIZE, time=0.0)
        assert mc.total_queue_delay > 0.0

    def test_queue_drains_over_time(self):
        mc = self._mc(queue_depth=1)
        t1 = mc.access(0, time=0.0)
        # Issued long after the first completed: no queue delay.
        before = mc.total_queue_delay
        mc.access(ROW_SIZE, time=t1 + 1000.0)
        assert mc.total_queue_delay == before

    def test_mean_queue_delay(self):
        mc = self._mc()
        assert mc.mean_queue_delay == 0.0
        mc.access(0, 0.0)
        assert mc.mean_queue_delay == 0.0

    def test_invalid_config(self):
        d = DRAM()
        with pytest.raises(ValueError):
            MemoryController(d, bus_cycles=0)
        with pytest.raises(ValueError):
            MemoryController(d, queue_depth=0)


class TestHierarchy:
    def _hier(self, **overrides):
        return MemoryHierarchy(ProcessorConfig(**overrides))

    def test_l1_hit_latency(self):
        h = self._hier(dl1_lat=3)
        h.access(0x1000, 0.0)  # warm the line (miss)
        t = h.access(0x1000, 100.0)
        assert t == 103.0

    def test_l2_hit_latency(self):
        h = self._hier(dl1_lat=2, l2_lat=10)
        h.access(0x1000, 0.0)  # fills dl1 and l2
        # Evict from dl1 by sweeping its capacity; l2 keeps the line.
        cfg = h.config
        sweep_lines = (cfg.dl1_size_kb * 1024 // cfg.dl1_line) * 2
        base = 0x800000
        t = 1000.0
        for i in range(sweep_lines):
            t = max(t, h.access(base + i * cfg.dl1_line, t))
        done = h.access(0x1000, t + 10000.0)
        assert done == pytest.approx(t + 10000.0 + 2 + 10)

    def test_memory_miss_latency_includes_device_and_bus(self):
        h = self._hier(dl1_lat=2, l2_lat=10)
        done = h.access(0x1000, 0.0)
        expected_min = 2 + 10 + h.config.dram_row_hit_lat + h.config.bus_cycles
        assert done >= expected_min

    def test_inflight_merge(self):
        h = self._hier()
        t1 = h.access(0x4000, 0.0)
        # A second miss to the same L2 line while the fill is in flight
        # merges with it rather than paying a second memory access.
        t2 = h.access(0x4000 + 8, 1.0)
        assert t2 <= t1
        assert h.memctrl.requests == 1

    def test_fetch_hit_costs_nothing_extra(self):
        h = self._hier()
        h.fetch(0x400000, 0.0)
        assert h.fetch(0x400000, 50.0) == 50.0

    def test_store_updates_cache(self):
        h = self._hier()
        h.access(0x9000, 0.0, write=True)
        assert h.dl1.probe(0x9000)

    def test_stats_keys(self):
        h = self._hier()
        h.access(0x100, 0.0)
        stats = h.stats()
        for key in ("il1_miss_rate", "dl1_miss_rate", "l2_miss_rate",
                    "memory_requests", "mean_queue_delay", "dram_row_hit_rate"):
            assert key in stats

    def test_l2_capacity_scaling(self):
        full = self._hier(l2_size_kb=1024, l2_capacity_scale=1)
        scaled = self._hier(l2_size_kb=1024, l2_capacity_scale=4)
        assert scaled.l2.size_bytes * 4 == full.l2.size_bytes
