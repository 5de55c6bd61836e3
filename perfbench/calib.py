"""A fixed reference kernel that gauges how fast the machine runs now.

On a shared machine the speed of a core drifts, over minutes, by more
than any useful bound, and process CPU time drifts with it. run.py
samples this kernel after each set-up and each round of operations,
never while the program runs, so the program's own load cannot change
a sample. A run's wall times are scaled to a reference machine on
which one kernel takes REFERENCE_S seconds:

    scaled = wall * median(speed samples of the run)

The kernel mixes what the package spends its time on: Python loops
over small numpy operations (run finding on a short 0/1 line) and a
small matrix-vector product with a sigmoid. It is part of the
benchmark and must not change, or scaled times stop being comparable.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.0005
_LINE = (np.arange(64) % 7) < 3
_W = np.linspace(-1.0, 1.0, 65 * 77).reshape(65, 77)
_X = np.linspace(0.0, 1.0, 77)


def kernel() -> float:
    total = 0.0
    for i in range(12):
        steps = np.diff(np.concatenate(([0], np.roll(_LINE, i).astype(np.int8), [0])))
        starts = np.flatnonzero(steps == 1)
        ends = np.flatnonzero(steps == -1)
        total += max(int(e - s) for s, e in zip(starts, ends))
        total += float((1.0 / (1.0 + np.exp(-(_W @ _X)))).sum())
    return total


def speed() -> float:
    """REFERENCE_S over the median of five kernel times: 1.0 on the
    reference machine, less on a slower one."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return REFERENCE_S / statistics.median(times)
