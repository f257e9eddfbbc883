"""Host speed from a fixed pure-Python kernel that shares no code with jigsolve.

On a shared 2-core host the CPU's speed drifts by up to 2x over minutes,
while CPU time stays equal to wall time, so nothing the process can read
shows it. A small backtracking kernel, timed just before each trial,
tracks that drift: over one 100 s stretch a job's raw time moved from 31
to 50 ms while its ratio to the kernel time stayed within 34-36.

:meth:`HostSpeed.sample` returns the factor that scales a wall time to
the reference speed: ``REFERENCE_S`` over the median of the recent
kernel times. A change to jigsolve cannot move the kernel, so the
scaled times still show it in full.
"""

from __future__ import annotations

import gc
import statistics
import time
from collections import deque

#: Kernel time on an idle 2-core host with Python 3.11.7.
REFERENCE_S = 0.00087

_QUEENS = 7


def kernel() -> int:
    """All solutions of 7-queens by backtracking; allocates tuples and frozensets."""
    found = []
    cols = [0] * _QUEENS

    def place(row: int, used: frozenset, diag: frozenset, anti: frozenset) -> None:
        if row == _QUEENS:
            found.append(tuple(cols))
            return
        for col in range(_QUEENS):
            if col in used or row - col in diag or row + col in anti:
                continue
            cols[row] = col
            place(row + 1, used | {col}, diag | {row - col}, anti | {row + col})

    place(0, frozenset(), frozenset(), frozenset())
    return len(found)


class HostSpeed:
    """Rolling estimate of the host's speed relative to the reference."""

    def __init__(self, window: int = 5):
        self.samples: deque[float] = deque(maxlen=window)
        for _ in range(2):
            kernel()  # the first calls run slow while the interpreter specializes
        for _ in range(window):
            self.sample()

    def sample(self) -> float:
        """Time the kernel once more; the factor from the recent samples."""
        enabled = gc.isenabled()
        gc.disable()  # the library's live objects must not slow the kernel
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()
        return REFERENCE_S / statistics.median(self.samples)
