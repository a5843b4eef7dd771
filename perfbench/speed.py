"""A fixed pure-Python computation that measures how fast the machine runs now.

The 2-core box this benchmark was written on changes speed by up to 1.7x in
phases lasting from seconds to minutes, for CPU time as much as wall time.
Raw times of one workload spread by 27 % (quartile distance over median)
between 30-second windows.  This reference, timed between instances,
slows down with the workload: the workload's time divided by the
reference's spread by 2-3 % over the same windows.  Reported times are
therefore scaled to ``NOMINAL_S``: a time t measured while the reference
took r is reported as t * NOMINAL_S / r.

The reference mimics the library's inner loops (exponent tuples, dict
updates, Fraction products, a heap) but never calls the library, so no
change to the library can move it.
"""

from __future__ import annotations

import gc
import heapq
import time
from fractions import Fraction

# Median duration of reference() on that box, in seconds.
NOMINAL_S = 0.0035

_A = {(i, j, (i * j) % 3): Fraction(i - 3, j + 1) for i in range(6) for j in range(5)}
_B = {(i, (2 * i) % 5, j): Fraction(j + 2, i + 1) for i in range(5) for j in range(4)}


def reference():
    out = {}
    heap = []
    for ea, ca in _A.items():
        for eb, cb in _B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e)
            out[e] = ca * cb if s is None else s + ca * cb
            heapq.heappush(heap, (tuple(-x for x in e), e))
    return out, heap


def probe() -> float:
    """Seconds taken by one reference() call, with the collector paused."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference()
        return time.perf_counter() - t0
    finally:
        gc.enable()
