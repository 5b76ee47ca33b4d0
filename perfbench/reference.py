"""A fixed slice of work that measures how fast the host runs right now.

The benchmark runs on shared machines whose speed drifts by a third within
a minute, and the program's times follow it.  ``reference_s`` times the
same work every call: dict and string operations like those of
``words``/``decide``, and numpy gathers like those of ``leafperm``.  It
calls no grigor code, so a change to the program cannot move it.  Timed
between blocks of operations, it gives each block a scale
``NOMINAL_S / reference time``: the block's times as they would read on a
host where the slice takes ``NOMINAL_S``.  Garbage collection is off while
it runs, so the program's heap cannot lengthen it.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# The slice's time on a 2-core Xeon host (1.5-2.6 ms as its speed
# drifts): the unit the corrected figures are expressed in.
NOMINAL_S = 0.002

_PERM = np.random.default_rng(0).permutation(1 << 14)
_WORDS = ["".join("abcd"[(i * j * 7 + j) % 4] for j in range(40)) for i in range(512)]


def reference_s() -> float:
    """Seconds the fixed slice takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        counts: dict[str, int] = {}
        total = 0
        for i in range(1500):
            w = _WORDS[(i * 37) % 512]
            key = w[i % 20:i % 20 + 16] + str(i & 4095)
            counts[key] = counts.get(key, 0) + 1
            total += len(w.replace("aa", "").replace("bb", ""))
        a = np.arange(1 << 14)
        for _ in range(15):
            a = a[_PERM]
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale() -> float:
    """NOMINAL_S over the median of five slices: the factor that turns
    times measured just before into corrected times."""
    times = sorted(reference_s() for _ in range(5))
    return NOMINAL_S / times[2]
