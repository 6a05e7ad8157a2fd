"""Tests for the writeback drain paths through the hierarchy."""

import pytest

from repro.simulator.config import ProcessorConfig
from repro.simulator.hierarchy import MemoryHierarchy


def wb_hierarchy(**overrides):
    overrides.setdefault("writeback", True)
    overrides.setdefault("dl1_size_kb", 8)
    overrides.setdefault("l2_size_kb", 256)
    return MemoryHierarchy(ProcessorConfig(**overrides))


class TestDl1Writebacks:
    def test_dirty_victim_reaches_l2(self):
        h = wb_hierarchy()
        cfg = h.config
        # Dirty a line, then sweep the D-L1 to force its eviction.
        h.access(0x1000, 0.0, write=True)
        lines = cfg.dl1_size_kb * 1024 // cfg.dl1_line
        t = 10.0
        for i in range(2 * lines):
            t = max(t, h.access(0x800000 + i * cfg.dl1_line, t))
        assert h.dl1.writebacks >= 1
        # The victim line was written into the L2.
        assert h.l2.probe(0x1000)

    def test_clean_lines_do_not_write_back(self):
        h = wb_hierarchy()
        cfg = h.config
        h.access(0x1000, 0.0)  # clean fill
        lines = cfg.dl1_size_kb * 1024 // cfg.dl1_line
        t = 10.0
        for i in range(2 * lines):
            t = max(t, h.access(0x800000 + i * cfg.dl1_line, t))
        # Sweeping loads are clean; only the sweep itself could dirty
        # nothing, so no writebacks from this pattern.
        assert h.dl1.writebacks == 0


class TestL2Writebacks:
    def test_l2_dirty_victim_consumes_memory_bandwidth(self):
        h = wb_hierarchy(l2_size_kb=256, l2_capacity_scale=8)  # tiny L2
        cfg = h.config
        # Dirty many L2 lines via stores, then sweep far beyond L2 capacity.
        t = 0.0
        for i in range(64):
            t = max(t, h.access(0x1000 + i * cfg.l2_line, t, write=True))
        requests_before = h.memctrl.requests
        effective_lines = h.l2.size_bytes // cfg.l2_line
        for i in range(3 * effective_lines):
            t = max(t, h.access(0xA00000 + i * cfg.l2_line, t))
        assert h.l2.writebacks >= 1
        # Writebacks issued memory requests beyond the demand fills.
        demand_fills = 3 * effective_lines + h.dl1.writebacks
        assert h.memctrl.requests - requests_before > 0


class TestDisabledPath:
    def test_no_tracking_when_disabled(self):
        h = MemoryHierarchy(ProcessorConfig())
        h.access(0x1000, 0.0, write=True)
        assert h.dl1.writebacks == 0
        assert not h.dl1.track_dirty
