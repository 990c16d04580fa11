"""Host-speed meter: host seconds -> seconds on the reference host.

The box this benchmark runs on drifts: identical work (same seed, same
events) took 10.5 s and 14.4 s of wall time within ten minutes, with no
steal visible in ``cpu/wall``.  A 10-15 % bound cannot be held on such a
clock, so the timed spans are interleaved with a fixed calibration
kernel — stdlib only, so no change to ``src/`` can move it — and every
span is divided by the slowdown the kernel shows right before and after
it.  On ten back-to-back runs of ``leafspine360-tfc`` in a noisy phase
this cut the quartile spread of ``wall_s`` from 19 % to 6 %.

``wall_s`` and ``setup_s`` are therefore *reference-host* seconds; the
raw clock is kept beside them (``host.wall_raw_s``, ``host.speed_x``).
"""

from __future__ import annotations

import heapq
import statistics
from time import perf_counter

#: Median kernel time on the quiet 2-core box that defined the benchmark.
REFERENCE_SLICE_S = 0.0017

#: Run time to accumulate before the kernel is sampled again.
MIN_SPAN_S = 0.1


class _Node:
    __slots__ = ("count", "last")

    def __init__(self) -> None:
        self.count = 0
        self.last = 0

    def touch(self, time: int) -> None:
        self.count += 1
        self.last = time


def calibration_slice() -> float:
    """Seconds for a fixed mix of heap, dict, tuple and method-call work."""
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    nodes = [_Node() for _ in range(16)]
    table = {}
    started = perf_counter()
    for i in range(3000):
        push(heap, ((i * 7919) % 1013, i, nodes[i & 15]))
        table[i & 255] = i
        if i & 1:
            time, _, node = pop(heap)
            node.touch(time + table[i & 255])
    return perf_counter() - started


def _sample() -> float:
    return statistics.median(calibration_slice() for _ in range(3))


class SpeedMeter:
    """Accumulates timed spans as raw and as reference-host seconds.

    ``normalise=False`` (traced runs, where the profiler would distort
    the kernel) makes both totals the raw clock.
    """

    def __init__(self, normalise: bool = True):
        self.raw_s = 0.0
        self.reference_s = 0.0
        self._open_s = 0.0
        self._normalise = normalise
        self._last = _sample() if normalise else REFERENCE_SLICE_S

    def add(self, raw_s: float) -> None:
        """Account a span that has just ended."""
        self.raw_s += raw_s
        self._open_s += raw_s
        if self._open_s >= MIN_SPAN_S:
            self.flush()

    def flush(self) -> None:
        """Convert what accumulated since the last kernel sample."""
        if not self._open_s:
            return
        after = _sample() if self._normalise else REFERENCE_SLICE_S
        slowdown = (self._last + after) / (2.0 * REFERENCE_SLICE_S)
        self.reference_s += self._open_s / slowdown
        self._last = after
        self._open_s = 0.0
