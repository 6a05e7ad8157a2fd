"""Address-stream primitives used by the trace generators.

Four stream kinds compose the data-reference behaviour of a synthetic
benchmark:

* :class:`StackStream` — a tiny, heavily reused region (always cache hot);
* :class:`HotStream` — uniform references over the program's hot working
  set; its size relative to the D-L1 capacity sets the L1 miss knee;
* :class:`StridedStream` — a handful of sequential cursors walking the main
  footprint with a fixed stride (spatial locality, prefetch-friendly line
  reuse);
* :class:`ChaseStream` — uniformly random references over the full
  footprint; the generator additionally serialises the consuming loads into
  a dependence chain, reproducing pointer-chasing (mcf-style) latency
  sensitivity.

All streams align addresses to 8 bytes and take the RNG explicitly so trace
generation stays deterministic.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

_ALIGN = ~0x7  # 8-byte alignment mask

STACK_BASE = 0x7FF0_0000
HOT_BASE = 0x2000_0000
HEAP_BASE = 0x1000_0000
STREAM_BASE = 0x3000_0000


class StackStream:
    """References within a small stack frame region (high locality)."""

    def __init__(self, size_bytes: int = 4096):
        if size_bytes < 8:
            raise ValueError("stack region too small")
        self.base = STACK_BASE
        self.size = size_bytes

    def next(self, rng: np.random.Generator) -> int:
        # Squaring the uniform concentrates references near the frame base.
        offset = int(rng.random() ** 2 * self.size)
        return (self.base + offset) & _ALIGN


class HotStream:
    """Uniform references over the hot working set."""

    def __init__(self, size_bytes: int):
        if size_bytes < 8:
            raise ValueError("hot region too small")
        self.base = HOT_BASE
        self.size = size_bytes

    def next(self, rng: np.random.Generator) -> int:
        # A fourth-power law skews references steeply toward the low end of
        # the region (P(offset < x) = (x/size)^(1/4)): the working set has a
        # small, intensely reused core plus a tail spanning the full region,
        # like real data working sets.  The core survives interfering
        # traffic, while cache capacity sweeping through the region still
        # produces a strong, smooth D-L1 size response.
        u = rng.random()
        return (self.base + int(u * u * u * u * self.size)) & _ALIGN


class StridedStream:
    """Round-robin sequential cursors looping over finite array segments.

    Each cursor walks its own ``segment_bytes``-sized slice of the
    footprint and wraps back to the slice start — the access pattern of an
    array processed in repeated passes.  After the first pass a segment's
    lines live wherever capacity allows, so the segment size relative to
    cache capacities decides which level serves the stream: small segments
    are L1/L2-resident after warmup, large ones sweep the L2 and produce a
    genuine L2-size response.
    """

    def __init__(
        self,
        footprint_bytes: int,
        stride: int = 16,
        num_streams: int = 4,
        segment_bytes: int = 16 * 1024,
    ):
        if footprint_bytes < stride * num_streams:
            raise ValueError("footprint too small for the requested streams")
        if segment_bytes < stride:
            raise ValueError("segment must hold at least one stride")
        self.base = STREAM_BASE
        self.footprint = footprint_bytes
        self.stride = stride
        self.segment = min(segment_bytes, footprint_bytes // num_streams or segment_bytes)
        # Spread segment origins across the footprint so they touch distinct
        # lines.  The extra 17-line skew per stream keeps cursors from
        # landing in the same cache set when the spacing divides the cache
        # size.
        spacing = footprint_bytes // num_streams
        self._origins = [
            (i * spacing + i * 17 * 64) % footprint_bytes for i in range(num_streams)
        ]
        self._offsets = [0] * num_streams
        self._next_stream = 0

    @property
    def num_streams(self) -> int:
        return len(self._origins)

    def next(self, rng: np.random.Generator, stream: Optional[int] = None) -> int:
        """Advance one cursor; by default round-robin, or a specific one.

        Pinning a static load instruction to one cursor (via ``stream``)
        gives that instruction a constant address stride — the pattern
        hardware stride prefetchers are built to catch.
        """
        if stream is None:
            stream = self._next_stream
            self._next_stream = (stream + 1) % len(self._origins)
        else:
            stream = stream % len(self._origins)
        offset = self._offsets[stream]
        self._offsets[stream] = (offset + self.stride) % self.segment
        return (self.base + self._origins[stream] + offset) & _ALIGN


class ChaseStream:
    """Pointer-chasing references with a log-uniform reuse-distance profile.

    Real pointer-heavy codes (mcf's graph walks) revisit nodes at reuse
    distances spanning every scale from a few KB to the full footprint.
    Reproducing that with plain random draws would need traces long enough
    to *populate* the footprint; instead this stream prescribes the reuse
    distances directly:

    * with probability ``1 - reuse_frac`` the reference is fresh (a new,
      uniformly random line in the footprint);
    * otherwise it revisits the address seen ``k`` chase references ago,
      with ``k`` log-uniform between 8 and the footprint's line count —
      every distance octave gets equal probability mass.

    A cache of capacity ``C`` lines then hits roughly the fraction of
    revisits whose distance octave fits in ``C``: the miss rate falls
    smoothly (log-linearly) as capacity grows from L1 scale to the full
    footprint, independent of trace length — exactly the graded L2-size
    capacity response the paper's mcf exhibits.
    """

    def __init__(
        self,
        footprint_bytes: int,
        reuse_frac: float = 0.65,
        min_distance: int = 8,
    ):
        if footprint_bytes < 64 * min_distance:
            raise ValueError("footprint too small for the reuse-distance profile")
        if not 0.0 <= reuse_frac < 1.0:
            raise ValueError("reuse_frac must be in [0, 1)")
        self.base = HEAP_BASE
        self.size = footprint_bytes
        self.reuse_frac = reuse_frac
        self.min_distance = min_distance
        self._max_history = footprint_bytes // 64
        self._history: list = []

    def next(self, rng: np.random.Generator) -> int:
        history = self._history
        if len(history) > self.min_distance and rng.random() < self.reuse_frac:
            # Log-uniform distance: equal mass per distance octave.
            max_d = min(len(history), self._max_history)
            span = math.log(max_d / self.min_distance)
            k = int(self.min_distance * math.exp(rng.random() * span))
            addr = history[-min(k, len(history))]
        else:
            addr = (self.base + int(rng.random() * self.size)) & _ALIGN
        history.append(addr)
        if len(history) > 2 * self._max_history:
            del history[: -self._max_history]
        return addr
