"""Host speed, measured by a fixed reference loop run between operations.

The benchmark shares a 2-vCPU VM with other work, and the VM's speed
changes by up to 1.7x within seconds (the loop below takes 4.4-7.5 ms
from one quarter second to the next).  In wall time the serve-contended
submit rate spread 0.44 (IQR over median) over seeds 0-9, and serve-steady
passes timed next to this loop followed its slowdowns with correlation
0.84.  So the benchmark times the loop every ``SAMPLE_EVERY_S`` seconds,
between operations and outside the measured intervals, and scales each
measured time to a host on which the loop takes ``REFERENCE_S``: a time
``t`` becomes ``t * REFERENCE_S / r``, with ``r`` the median of the
``WINDOW`` loop timings around it (the one just before and the one just
after).  The raw wall times are printed next to the scaled ones.

The loop uses nothing from the program, so no change to the program moves
it; it mixes interpreter work (dict updates) with small NumPy operations
on an array the size of the Table-I fabric, as the program does.
"""

from __future__ import annotations

import statistics
from bisect import bisect_right
from time import perf_counter
from typing import List

import numpy as np

#: loop time of the reference host, in seconds (the loop takes 4-7.5 ms
#: on the 2-vCPU VM the baseline was measured on)
REFERENCE_S = 0.005
#: seconds of work between two loop timings
SAMPLE_EVERY_S = 0.1
#: loop timings a scale factor is the median of
WINDOW = 2

_COLUMNS = np.arange(24)


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall seconds."""
    t0 = perf_counter()
    table = {}
    for i in range(20000):
        key = i & 255
        table[key] = table.get(key, 0) + i
    grid = np.zeros((160, 24), dtype=bool)
    for k in range(200):
        grid = np.roll(grid, 1, axis=0) | (_COLUMNS == k % 24)
        grid.sum()
    return perf_counter() - t0


class HostSpeed:
    """Reference-loop timings placed in a sequence of measured operations.

    Call :meth:`after_op` after each measured operation (outside its
    timed interval) and :meth:`scaled` to turn the measured times into
    reference-host times.
    """

    def __init__(self) -> None:
        #: operations before each timing, and the timing in seconds
        self.marks: List[int] = []
        self.loops: List[float] = []
        self.ops = 0
        self.sample()

    def sample(self) -> None:
        self.marks.append(self.ops)
        self.loops.append(reference_loop())
        self._last = perf_counter()

    def after_op(self) -> None:
        self.ops += 1
        if perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def factor(self, op: int) -> float:
        """Scale factor of operation ``op`` (0-based, in after_op order):
        ``REFERENCE_S`` over the median of the ``WINDOW`` loop timings
        around it."""
        at = bisect_right(self.marks, op)
        lo = max(0, min(at - WINDOW // 2, len(self.loops) - WINDOW))
        return REFERENCE_S / statistics.median(self.loops[lo:lo + WINDOW])

    def scaled(self, times: List[float]) -> List[float]:
        """``times[i]`` is the operation ``i``; scale each to the
        reference host."""
        return [t * self.factor(i) for i, t in enumerate(times)]
