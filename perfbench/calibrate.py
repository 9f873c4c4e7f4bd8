"""How fast the shared host runs this process right now.

Other tenants of the host slow every process on it, by 10-60% in phases
that last from a second to minutes, in CPU time as well as in wall time.
The slowdown is common to all code in the process: timed in alternation,
lmcf's jobs and a fixed reference kernel slow down together.  The runner
therefore times the kernel between jobs, and inside long jobs at points
where they can pause, and scales each part of a job's times by
``NOMINAL_S`` over the mean of the readings around that part
(``host_factor``): the job's times as they would read on the host in a
quiet phase.

The kernel uses numpy only, never lmcf, so a change to lmcf cannot move
it.  Its mix follows the workloads: an interpreter loop (per-call
overhead, as on the 1-D grids), 2-D real FFTs (the spectral derivatives)
and element-wise passes over a short array.
"""

from time import perf_counter

import numpy as np

# median kernel time in a quiet phase of the machine the benchmark was
# defined on (Intel Xeon, 2 vCPUs, numpy 2.4.6); fixed, so that runs of
# two commits are scaled alike
NOMINAL_S = 3.2e-3
REPEATS = 3  # kernel calls per reading; the median is kept

_GRID = np.random.default_rng(12345).standard_normal((128, 128))
_LINE = np.random.default_rng(54321).standard_normal(256)


def kernel():
    total = 0
    for i in range(30000):
        total += i * i
    for _ in range(4):
        np.fft.irfft2(np.fft.rfft2(_GRID), s=_GRID.shape)
    b = _LINE.copy()
    for _ in range(300):
        b = b * 0.5 + _LINE
        np.sqrt(np.abs(b), out=b)
    return total


def kernel_seconds():
    """One reading: the median time of REPEATS kernel calls."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[REPEATS // 2]


def host_factor(before, after):
    """Scale for times measured between two kernel readings: below 1 when
    the host ran slow."""
    return NOMINAL_S / (0.5 * (before + after))


def scaled(readings, start, end):
    """Time from ``start`` to ``end`` with each part scaled by the host
    factor of the two readings around it; ``readings`` are (time, reading)
    pairs in time order that cover the interval."""
    total = 0.0
    for (t0, r0), (t1, r1) in zip(readings, readings[1:]):
        lo, hi = max(start, t0), min(end, t1)
        if hi > lo:
            total += (hi - lo) * host_factor(r0, r1)
    return total
