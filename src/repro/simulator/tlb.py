"""Instruction and data TLBs (substrate extension; off in the paper study).

Fully associative, true-LRU translation lookaside buffers with a fixed
page-walk penalty on a miss.  The paper's simulator models "all the
performance critical micro-architectural events"; TLBs are part of that
set for large-footprint workloads (mcf's multi-MB graph spans thousands of
pages), so the substrate provides them for the TLB ablation experiment —
they stay disabled in the reproduction runs to keep the 9-parameter study
identical to the paper's.
"""

from __future__ import annotations


class TLB:
    """Fully associative TLB with LRU replacement.

    Parameters
    ----------
    entries:
        Number of translations held.
    page_bits:
        log2 of the page size (12 = 4KB pages).
    walk_latency:
        Cycles added to an access on a miss (page-table walk).
    """

    __slots__ = ("entries", "page_bits", "walk_latency", "_lru", "accesses", "misses")

    def __init__(self, entries: int = 64, page_bits: int = 12, walk_latency: int = 30):
        if entries < 1:
            raise ValueError("entries must be >= 1")
        if not 0 < page_bits < 40:
            raise ValueError("page_bits out of range")
        if walk_latency < 0:
            raise ValueError("walk_latency must be non-negative")
        self.entries = entries
        self.page_bits = page_bits
        self.walk_latency = walk_latency
        self._lru: list = []  # LRU order, most recent last
        self.accesses = 0
        self.misses = 0

    def access(self, addr: int) -> int:
        """Translate ``addr``; returns the added latency (0 on a hit)."""
        page = addr >> self.page_bits
        self.accesses += 1
        lru = self._lru
        try:
            lru.remove(page)
        except ValueError:
            self.misses += 1
            if len(lru) >= self.entries:
                lru.pop(0)
            lru.append(page)
            return self.walk_latency
        lru.append(page)
        return 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (
            f"TLB({self.entries} entries, {1 << self.page_bits}B pages, "
            f"walk={self.walk_latency} cyc)"
        )
