"""Host speed: a fixed pure-Python loop, timed alongside the measured work.

The benchmark's time metrics are *reference seconds*: host seconds scaled
by how fast the host ran while they were measured.  A :class:`Sampler` in
every process of a cycle times a short loop every ``INTERVAL_S`` of wall
time, in the thread that does the work and so on whichever CPU it runs
on; a run's scale is ``REFERENCE_S`` over the mean of all its samples.  A
program change leaves the loop alone, so it shows in full, while a host
that slows down for a stretch slows the loop with it and cancels out
(README.md, *Noise*).

The loop mixes what the program's hot paths do -- object construction,
method calls, dict updates, a heap and float math -- so that a slow host
state slows it roughly as much as the workloads.
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from typing import List

#: wall seconds between samples.
INTERVAL_S = 0.025
#: loop items per sample: about 0.3 ms on the host below in a quiet
#: stretch, 1-3% of the sampled process's time.
SAMPLE_ITEMS = 500
#: a sample's mean seconds on the host the benchmark was tuned on (a
#: 2-core Intel Xeon VM, Python 3.11, in a quiet stretch): samples this
#: fast leave host seconds unscaled.
REFERENCE_S = 0.00026


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value

    def weight(self) -> float:
        return self.key * 0.5 + self.value


def _loop(n: int) -> float:
    table: dict = {}
    heap: list = []
    total = 0.0
    for i in range(n):
        item = _Item(i % 97, i)
        table[item.key] = table.get(item.key, 0) + 1
        heapq.heappush(heap, (i * 7919) % 1009)
        if len(heap) > 64:
            total += heapq.heappop(heap)
        total += math.sqrt(item.weight())
    return total


def probe(repeats: int = 5) -> float:
    """Seconds of a longer run of the loop (8,000 items), the fastest of
    ``repeats``: the host calibration each run prints."""
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        _loop(8_000)
        best = min(best, time.perf_counter() - start)
    return best


class Sampler:
    """Times ``SAMPLE_ITEMS`` of the loop every ``INTERVAL_S`` from a
    SIGALRM handler, which Python runs in the main thread between its
    bytecodes: the samples share the work's CPU and spread evenly over
    the wall time, so their mean follows the host's speed as the work saw
    it.  One per process; the program itself uses no signals."""

    def __init__(self) -> None:
        #: ``[start, seconds]`` pairs; ``start`` is a ``perf_counter``
        #: reading, comparable across the processes of a cycle.
        self.samples: List[List[float]] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        _loop(SAMPLE_ITEMS)
        self.samples.append([start, time.perf_counter() - start])

    def start(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> List[List[float]]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.samples
