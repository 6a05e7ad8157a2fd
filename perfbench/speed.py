"""Host-speed normalisation of measured times.

On a shared virtual machine the same code does not always run at the same
speed: each vCPU flips, every few seconds to every few minutes, between a
fast and a slow state (a tight interpreter loop runs about 1.75x slower
in the slow one, with no steal time), as other tenants come and go on the
physical core.  A wall-clock median then measures the mix of states
during a run more than it measures the program.

So for a whole run the benchmark times a fixed reference kernel -- its
own code, never the program's -- every ``SAMPLE_S`` seconds, from a
``SIGALRM`` handler that runs between the program's bytecodes on the
same thread and CPU.  The kernel's duration over ``NOMINAL_S`` is the
host's slowdown ``s`` at that moment, smoothed over the five nearest
samples.  Code of another kind slows by less: a workload with sensitivity
``beta`` runs ``1 + beta * (s - 1)`` times slower, so each workload
states its own ``beta``, measured on the host (see the README).  Every
stretch of a measured phase between two samples is divided by that
factor to give seconds at nominal speed.  The kernel's own time is left
out of every phase.

Standard library only: it is imported before numpy and the program.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from typing import List, Optional, Tuple

clock = time.perf_counter

#: The kernel's duration on a vCPU in the fast state (2.0 GHz Xeon); a
#: nominal second is a wall second in that state.
NOMINAL_S = 0.00045

#: Time between samples.
SAMPLE_S = 0.05

#: Samples each side that smooth one sample's slowdown.
SMOOTH = 2


class _Entry:
    __slots__ = ("tag", "stamp")

    def __init__(self, tag: int, stamp: int) -> None:
        self.tag = tag
        self.stamp = stamp


def _kernel() -> int:
    """About 0.45 ms of interpreter work: arithmetic, a dict, objects."""
    acc, table = 0, {}
    for i in range(900):
        k = (i * 2654435761) & 1023
        table[k] = table.get(k, 0) + i
        acc += k >> 1 if k & 1 else 1
    sets: List[List[_Entry]] = [[] for _ in range(16)]  # a 4-way LRU
    for step in range(220):
        line = (step * 40503) & 0x3FFF
        ways = sets[line & 15]
        for entry in ways:
            if entry.tag == line:
                entry.stamp = step
                break
        else:
            if len(ways) >= 4:
                ways.remove(min(ways, key=lambda e: e.stamp))
            ways.append(_Entry(line, step))
    return acc


class Reading:
    """One measured phase: wall and nominal seconds, mean slowdown."""

    def __init__(self, wall_s: float, nominal_s: float, slowdown: float) -> None:
        self.wall_s = wall_s
        self.nominal_s = nominal_s
        self.slowdown = slowdown


class Meter:
    """The host's speed, sampled from ``start()`` to ``stop()``."""

    def __init__(self, every: float = SAMPLE_S) -> None:
        self.every = every
        self.samples: List[Tuple[float, float]] = []  # (start, end)
        self._previous = None
        self.installed = self.running = False
        self._smoothed: Optional[List[float]] = None

    def sample(self) -> None:
        start = clock()
        _kernel()
        self.samples.append((start, clock()))

    def _tick(self, *_: object) -> None:
        """The ``SIGALRM`` handler: sample, then arm the next one-shot
        timer, so that a slow sample never overlaps the next."""
        self.sample()
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self.installed = True
        self.resume()

    def pause(self) -> None:
        """Sample once more, then not at all until ``resume()``: what runs
        in between is converted at the speed measured on either side."""
        self.running = False  # a tick still pending will not re-arm
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()

    def resume(self) -> None:
        self.sample()
        self.running = True
        signal.setitimer(signal.ITIMER_REAL, self.every)

    def stop(self) -> None:
        if self.installed:
            self.pause()
            signal.signal(signal.SIGALRM, self._previous)
            self.installed = False

    def reading(self, t0: float, t1: float, beta: float) -> Reading:
        """The phase from ``t0`` to ``t1`` (both within start to stop),
        without the kernel's own time, at ``beta``'s sensitivity."""
        if self._smoothed is None:
            slowdowns = [(end - start) / NOMINAL_S for start, end in self.samples]
            self._smoothed = [statistics.median(slowdowns[max(i - SMOOTH, 0):i + SMOOTH + 1])
                              for i in range(len(slowdowns))]
        smoothed = self._smoothed
        wall = nominal = weighted = 0.0
        first = max(bisect.bisect_right(self.samples, (t0, t0)) - 1, 0)
        for i in range(first, len(self.samples) - 1):
            gap_start, gap_end = self.samples[i][1], self.samples[i + 1][0]
            if gap_start >= t1:
                break
            overlap = min(gap_end, t1) - max(gap_start, t0)
            if overlap <= 0:
                continue
            s = 0.5 * (smoothed[i] + smoothed[i + 1])
            wall += overlap
            weighted += overlap * s
            nominal += overlap / (1.0 + beta * (s - 1.0))
        return Reading(wall, nominal, weighted / wall if wall else 1.0)
