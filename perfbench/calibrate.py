"""Machine-speed reference for normalizing the benchmark's timings.

The speed of the machine the benchmark was built on drifts by up to
±25% over minutes, and the drift moves every workload at once. Each timed
pass is therefore preceded by ``reference_s()``: two fixed kernels that
use neither ``dlwlab`` nor its inputs, one of Python object arithmetic
(``Fraction`` sums in a dict) and one of small numpy stencils, timed with
the garbage collector off so that the size of the heap does not enter.
A pass time ``t`` taken next to a reference time ``r`` is reported as
``t * NOMINAL_S / r``: the time the pass would take on a machine whose
reference time is NOMINAL_S. On 130 interleaved samples over five
minutes, this cut the spread of 8-pass medians from 0.24-0.28 to
0.06-0.09 (interquartile range over median) on every workload.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

NOMINAL_S = 0.0115  # the reference time of a typical fast phase
REPEATS = 3


def _objects() -> Fraction:
    table: dict[tuple[int, int], Fraction] = {}
    acc = Fraction(0)
    for i in range(1, 1500):
        key = (i % 97, i % 13)
        table[key] = table.get(key, Fraction(0)) + Fraction(i % 11 - 5, i % 7 + 1)
        acc += table[key]
    return acc


def _stencils():
    import numpy as np

    u = np.linspace(0.0, 1.0, 260)
    v = u.copy()
    for _ in range(200):
        p = np.concatenate([u[-2:], u, u[:2]])
        q = np.concatenate([v[-2:], v, v[:2]])
        d1 = (p[3:-1] - p[1:-3]) * 0.5
        d3 = (p[4:] - 2 * p[3:-1] + 2 * p[1:-3] - p[:-4]) * 0.5
        e1 = (q[3:-1] - q[1:-3]) * 0.5
        u = u - 1e-6 * (u * d1 + e1)
        v = v - 1e-6 * (d1 * v + u * e1 + d3 / 3.0)
        float(np.max(np.abs(u)))
    return u


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        times.append(perf_counter() - start)
    return statistics.median(times)


def reference_s() -> float:
    """Geometric mean of the median times of the two kernels."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return (_median_time(_objects) * _median_time(_stencils)) ** 0.5
    finally:
        if enabled:
            gc.enable()
