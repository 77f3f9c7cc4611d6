"""Paired calibration: host times in reference seconds.

On a shared machine the host's speed drifts by tens of percent over
minutes, and a program's timings drift with it.  A fixed pure-Python
loop -- heap, dict and small-object traffic like the simulator's, and
never changed -- is timed next to every measurement.  A measurement is
reported scaled by ``REFERENCE_S / calibration``: the seconds it would
have taken on a host where one calibration sample takes
:data:`REFERENCE_S`.  The loop lives in the benchmark, so nothing a
change to the program does can speed it up or slow it down; it runs
with the garbage collector off, so the program's own heap cannot either.
"""

from __future__ import annotations

import gc
import heapq
import time
from collections import deque
from typing import Tuple

#: Seconds one calibration sample took on the 2-vCPU VM the benchmark
#: was defined on; reported times are in seconds at that speed.
REFERENCE_S = 0.15
#: Iterations per sample (about :data:`REFERENCE_S` of work).
ITERATIONS = 90_000


class _Item:
    __slots__ = ("seq", "size", "time")

    def __init__(self, seq: int, size: int, time: float) -> None:
        self.seq = seq
        self.size = size
        self.time = time


def _loop() -> int:
    heap: list = []
    table: dict = {}
    ring: deque = deque(maxlen=20_000)
    t = 0.0
    for i in range(ITERATIONS):
        item = _Item(i, 1500 - (i & 511), t)
        ring.append({"time": t, "seq": i, "size": item.size})
        heapq.heappush(heap, (t + (i % 97) * 1e-4, i, item))
        key = i & 4095
        table[key] = table.get(key, 0) + item.size
        if len(heap) > 64:
            t, _, old = heapq.heappop(heap)
            table.pop(old.seq & 4095, None)
    return len(table)


def sample() -> Tuple[float, float]:
    """One calibration sample: ``(process CPU s, wall s)``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        c0, w0 = time.process_time(), time.perf_counter()
        _loop()
        return time.process_time() - c0, time.perf_counter() - w0
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """Factor taking a time measured between two calibration samples to
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
