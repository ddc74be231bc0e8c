"""Machine-speed reference for normalising the benchmark's times.

The shared VM this benchmark was tuned on runs a fixed computation anywhere
from 20% faster to 20% slower than its median, in phases lasting tens of
seconds, because other tenants load the host.  CPU time tracks wall time,
so the slowdown is in the hardware, not in scheduling.  A run therefore
times a fixed reference kernel next to its ops, and every reported time is
scaled by ``REF_S`` over the kernel time measured around it: seconds at the
reference speed.
A change in typsat moves the op times and not the kernel, so it shows in
full; a change in machine speed moves both and cancels.  The raw times are
kept in the run's environment line.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

#: Median seconds of one reference_kernel() call on the machine the bounds
#: were set on (Intel Xeon VM at 2.0 GHz, 2 vCPUs, Python 3.11.7,
#: numpy 2.4.6).  Fixed: changing it rescales every reported time.
REF_S = 0.003

_X = np.linspace(0.1, 1.0, 841)
_IDX = np.arange(4096, dtype=np.int64)


def reference_kernel() -> float:
    """The same mix as typsat's hot paths: interpreter loops, ufuncs on an
    841-cell array summed with fsum, and boolean masks over 2^12 entries."""
    acc = 0.0
    mask = np.ones(_IDX.size, dtype=bool)
    for i in range(36):
        y = np.exp(_X * (i * 1e-3)) * (1.0 - np.exp(-_X))
        acc += math.fsum(y.tolist())
        mask &= ((_IDX >> (i % 12)) & 1) == (i & 1)
        s = 0
        for k in range(400):
            s += k * k
        acc += s
    return acc + float(np.count_nonzero(mask))


def sample(reps: int = 4) -> float:
    """Mean seconds of one reference_kernel() call over reps calls."""
    t0 = time.perf_counter()
    for _ in range(reps):
        reference_kernel()
    return (time.perf_counter() - t0) / reps


def scale(samples: list[float]) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REF_S / statistics.median(samples)
