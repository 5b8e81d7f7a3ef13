"""Segment timing scaled to a fixed host speed.

The reference machine is a shared VM. Its speed moves by up to 2x for tens
of seconds at a time with the load of the whole host, so a raw median over
one run depends on the minute it ran in.  The benchmark therefore runs a
fixed loop of plain Python, which never touches qbench, right before and
right after every timed segment of the campaign and report workloads, and
scales the segment to the speed at which that loop takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / mean(loop before, loop after)

A change to qbench moves the segment and not the loop, so the scaled time
moves with it.  A change in host speed moves both, and cancels.  Raw times
are kept next to the scaled ones in every result.

The loop measures how fast the host runs interpreted Python, which is what
the campaign and the store reads spend their time on.  It does not follow
memory bandwidth, which bounds the q = 18 and q = 20 statevector kernels;
scaling those by it, or by a streaming numpy loop, made their spread across
runs larger, not smaller.  So the statevector workload times its segments
unscaled, and set-up time is unscaled too.
"""

from __future__ import annotations

import math
import time

# the loop's time on the reference machine (Intel Xeon KVM guest, Python
# 3.11) at the fast end of its speed range; it only sets the unit
REFERENCE_S = 0.009
_ITERATIONS = 40_000


def python_loop() -> float:
    """Seconds taken by a fixed loop of dict stores, tuples and float math."""
    start = time.perf_counter()
    table = {}
    total = 0.0
    for i in range(_ITERATIONS):
        table[i & 1023] = (i, float(i) * 1.5)
        total += math.sin(i)
    return time.perf_counter() - start


class SegmentTimer:
    """Raw and, when ``scaled``, host-speed-scaled seconds of named segments."""

    def __init__(self, *, scaled: bool) -> None:
        self.raw: dict[str, float] = {}
        self._loop: dict[str, float] = {}
        self._scaled = scaled
        self._loop_before = python_loop() if scaled else 0.0
        self._start = time.perf_counter()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self, key: str) -> None:
        end = time.perf_counter()
        self.raw[key] = end - self._start
        if self._scaled:
            loop_after = python_loop()
            self._loop[key] = (self._loop_before + loop_after) / 2
            self._loop_before = loop_after

    def segments(self) -> dict[str, float]:
        """The seconds the metrics use: scaled if this timer scales, else raw."""
        if not self._scaled:
            return dict(self.raw)
        return {key: raw * REFERENCE_S / self._loop[key] for key, raw in self.raw.items()}
