"""Set-associative cache model with true LRU replacement.

Used for the L1 instruction cache, L1 data cache and unified L2.  The model
tracks tag state only (no data), which is all timing simulation needs, and
counts accesses/misses for the simulation report.  Lookups are O(assoc) with
small per-set lists, keeping the per-access cost low enough for the
experiment grid.
"""

from __future__ import annotations

from typing import List

from repro.simulator.config import _is_pow2


class Cache:
    """One level of set-associative cache.

    Parameters
    ----------
    size_kb:
        Total capacity in KB.  Rounded *down* to the nearest power of two
        internally (set counts must be powers of two); the paper's level
        grids are powers of two already.
    line_size:
        Line size in bytes (power of two).
    assoc:
        Associativity (ways per set).
    name:
        Label used in statistics.
    """

    __slots__ = ("name", "line_bits", "num_sets", "assoc", "sets", "accesses",
                 "misses", "track_dirty", "_dirty", "writebacks", "last_writeback")

    def __init__(
        self,
        size_kb: int,
        line_size: int,
        assoc: int,
        name: str = "cache",
        track_dirty: bool = False,
    ):
        if size_kb < 1:
            raise ValueError("size_kb must be >= 1")
        if not _is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        if assoc < 1:
            raise ValueError("assoc must be >= 1")
        size_bytes = size_kb * 1024
        num_lines = size_bytes // line_size
        if num_lines < assoc:
            raise ValueError("cache too small for its associativity")
        num_sets = num_lines // assoc
        # Round down to a power of two of sets.
        while not _is_pow2(num_sets):
            num_sets -= num_sets & (-num_sets)  # clear lowest set bit
        if num_sets < 1:
            num_sets = 1
        self.name = name
        self.line_bits = line_size.bit_length() - 1
        self.num_sets = num_sets
        self.assoc = assoc
        #: Each set is an LRU-ordered list of line ids; index -1 = most
        #: recent.  The OoO core probes the D-L1's lists in place.
        self.sets: List[List[int]] = [[] for _ in range(num_sets)]
        self.accesses = 0
        self.misses = 0
        # Dirty-line (writeback) tracking — used only when the hierarchy's
        # writeback modeling is enabled; off by default for speed.
        self.track_dirty = track_dirty
        self._dirty = [set() for _ in range(num_sets)] if track_dirty else None
        self.writebacks = 0
        #: Line-aligned address of the dirty line evicted by the most
        #: recent miss, or -1 (valid only with ``track_dirty``).
        self.last_writeback = -1

    @property
    def line_size(self) -> int:
        return 1 << self.line_bits

    @property
    def size_bytes(self) -> int:
        return self.num_sets * self.assoc * self.line_size

    def line_of(self, addr: int) -> int:
        """The line-aligned address (used for MSHR-style merging)."""
        return addr >> self.line_bits

    def access(self, addr: int, write: bool = False) -> bool:
        """Access ``addr``; returns True on hit.  Misses allocate the line.

        With ``track_dirty``, a write marks the line dirty; evicting a
        dirty line counts a writeback and records its address in
        :attr:`last_writeback` (line-aligned), which the hierarchy turns
        into downstream write traffic.
        """
        line = addr >> self.line_bits
        set_idx = line & (self.num_sets - 1)
        tag = line >> 0  # full line id doubles as tag (set bits are redundant)
        ways = self.sets[set_idx]
        self.accesses += 1
        dirty = self._dirty[set_idx] if self.track_dirty else None
        try:
            idx = ways.index(tag)
        except ValueError:
            self.misses += 1
            if self.track_dirty:
                self.last_writeback = -1
            if len(ways) >= self.assoc:
                victim = ways.pop(0)  # least recently used
                if dirty is not None and victim in dirty:
                    dirty.discard(victim)
                    self.writebacks += 1
                    self.last_writeback = victim << self.line_bits
            ways.append(tag)
            if dirty is not None and write:
                dirty.add(tag)
            return False
        ways.pop(idx)
        ways.append(tag)  # move to MRU
        if dirty is not None and write:
            dirty.add(tag)
        return True

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU or statistics."""
        line = addr >> self.line_bits
        ways = self.sets[line & (self.num_sets - 1)]
        return line in ways

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"Cache({self.name}: {self.size_bytes // 1024}KB, "
            f"{self.num_sets}x{self.assoc} ways, {self.line_size}B lines)"
        )
