"""Tests for the set-associative LRU cache model."""

import pytest

from repro.simulator.cache import Cache


def make_cache(size_kb=1, line=64, assoc=2):
    return Cache(size_kb, line, assoc, "test")


class TestGeometry:
    def test_set_count(self):
        c = Cache(32, 64, 4)
        assert c.num_sets == 32 * 1024 // 64 // 4
        assert c.size_bytes == 32 * 1024

    def test_non_pow2_size_rounds_down(self):
        c = Cache(48, 64, 4)  # 192 sets -> rounds down to 128
        assert c.num_sets == 128

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Cache(0, 64, 2)
        with pytest.raises(ValueError):
            Cache(4, 60, 2)  # line not a power of two
        with pytest.raises(ValueError):
            Cache(4, 64, 0)
        with pytest.raises(ValueError):
            Cache(1, 2048, 2)  # too small for its associativity


class TestBehaviour:
    def test_cold_miss_then_hit(self):
        c = make_cache()
        assert c.access(0x1000) is False
        assert c.access(0x1000) is True
        assert c.accesses == 2
        assert c.misses == 1

    def test_same_line_hits(self):
        c = make_cache(line=64)
        c.access(0x1000)
        assert c.access(0x1000 + 63) is True
        assert c.access(0x1000 + 64) is False  # next line

    def test_lru_eviction_order(self):
        c = make_cache(size_kb=1, line=64, assoc=2)  # 8 sets
        set_stride = 8 * 64  # same-set addresses are this far apart
        a, b, d = 0x0, set_stride, 2 * set_stride
        c.access(a)
        c.access(b)
        c.access(a)  # a is now MRU, b is LRU
        c.access(d)  # evicts b
        assert c.access(a) is True
        assert c.access(b) is False

    def test_associativity_holds_ways(self):
        c = make_cache(size_kb=1, line=64, assoc=2)
        set_stride = 8 * 64
        c.access(0)
        c.access(set_stride)
        assert c.access(0) is True
        assert c.access(set_stride) is True

    def test_direct_mapped_conflicts(self):
        c = make_cache(size_kb=1, line=64, assoc=1)
        set_stride = 16 * 64
        c.access(0)
        c.access(set_stride)
        assert c.access(0) is False  # conflict-evicted

    def test_probe_does_not_touch_state(self):
        c = make_cache()
        c.access(0x40)
        before = (c.accesses, c.misses)
        assert c.probe(0x40) is True
        assert c.probe(0x999940) is False
        assert (c.accesses, c.misses) == before

    def test_miss_rate(self):
        c = make_cache()
        assert c.miss_rate == 0.0
        c.access(0)
        c.access(0)
        assert c.miss_rate == pytest.approx(0.5)

    def test_capacity_sweep(self):
        # Touch exactly twice the capacity in lines; the second pass over a
        # working set larger than the cache must miss everywhere (LRU).
        c = make_cache(size_kb=1, line=64, assoc=2)  # 16 lines
        lines = 32
        for rep in range(2):
            for i in range(lines):
                c.access(i * 64)
        assert c.misses == 2 * lines

    def test_working_set_within_capacity_all_hits_second_pass(self):
        c = make_cache(size_kb=1, line=64, assoc=2)  # 16 lines
        for i in range(16):
            c.access(i * 64)
        misses_after_fill = c.misses
        for i in range(16):
            assert c.access(i * 64) is True
        assert c.misses == misses_after_fill

    def test_line_of(self):
        c = make_cache(line=64)
        assert c.line_of(0) == c.line_of(63)
        assert c.line_of(64) == c.line_of(0) + 1

    def test_repr(self):
        assert "KB" in repr(make_cache())
