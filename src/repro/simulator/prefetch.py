"""Hardware prefetchers (substrate extension; disabled in the paper study).

The paper's 9-parameter study holds the rest of the machine fixed and does
not include prefetching; these units exist for the substrate-ablation
experiments, which ask how prefetching reshapes the memory-parameter
sensitivities.  Two classic designs:

* :class:`NextLinePrefetcher` — on every demand miss, fetch the next
  sequential line (used for the instruction stream);
* :class:`StridePrefetcher` — a PC-indexed reference-prediction table
  (Chen & Baer style) that learns per-instruction strides and prefetches
  ``degree`` strides ahead once a stride is confirmed.

Both emit *prefetch requests* (line addresses); the hierarchy issues them
to the L2 path so they consume real bandwidth and can pollute the cache —
the interesting trade-offs are modeled, not assumed away.
"""

from __future__ import annotations

from typing import List

from repro.simulator.config import _is_pow2


class NextLinePrefetcher:
    """Sequential next-line prefetcher for the instruction stream."""

    __slots__ = ("line_size", "issued")

    def __init__(self, line_size: int = 64):
        if not _is_pow2(line_size):
            raise ValueError("line_size must be a power of two")
        self.line_size = line_size
        self.issued = 0

    def on_miss(self, addr: int) -> List[int]:
        """Demand miss at ``addr``: prefetch the next sequential line."""
        self.issued += 1
        return [(addr | (self.line_size - 1)) + 1]


class StridePrefetcher:
    """PC-indexed stride prefetcher with 2-state confirmation.

    Each table entry tracks the last address and last stride of the memory
    instruction mapping there; a prefetch is issued only after the same
    stride is seen twice in a row (the "steady" state), avoiding most
    useless prefetches on irregular streams.
    """

    __slots__ = ("entries", "degree", "line_size", "_tags", "_last_addr",
                 "_stride", "_confirmed", "issued")

    def __init__(self, entries: int = 256, degree: int = 2, line_size: int = 64):
        if not _is_pow2(entries):
            raise ValueError("entries must be a power of two")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        self.entries = entries
        self.degree = degree
        self.line_size = line_size
        self._tags = [-1] * entries
        self._last_addr = [0] * entries
        self._stride = [0] * entries
        self._confirmed = [False] * entries
        self.issued = 0

    def on_access(self, pc: int, addr: int) -> List[int]:
        """Observe a load/store; returns line addresses to prefetch."""
        idx = (pc >> 2) & (self.entries - 1)
        if self._tags[idx] != pc:
            self._tags[idx] = pc
            self._last_addr[idx] = addr
            self._stride[idx] = 0
            self._confirmed[idx] = False
            return []
        stride = addr - self._last_addr[idx]
        out: List[int] = []
        if stride != 0 and stride == self._stride[idx]:
            if self._confirmed[idx]:
                last_line = -1
                for i in range(1, self.degree + 1):
                    target = addr + i * stride
                    line = target & ~(self.line_size - 1)
                    if line != last_line and line != (addr & ~(self.line_size - 1)):
                        out.append(line)
                        last_line = line
                self.issued += len(out)
            self._confirmed[idx] = True
        else:
            self._confirmed[idx] = False
        self._stride[idx] = stride
        self._last_addr[idx] = addr
        return out
