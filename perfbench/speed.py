"""Host-speed reference: a fixed kernel timed next to every operation.

On a shared host the CPU speed a process gets drifts by up to 2x, over
seconds to minutes, with no steal time to show for it: other tenants' load
slows this process's own cycles, and changes how fast two threads hand the
interpreter lock to each other across the two vCPUs.  A program timing taken
at one moment and another taken later then differ by the host, not by the
program.  So the benchmark times this kernel, which never changes and shares
no code with the program, right before each operation, and reports timings
in reference seconds:

    reference seconds = measured seconds * NOMINAL_S[pooled] / kernel seconds nearby

where "nearby" is the median kernel time over the pass (or the set-up
probes) the timing belongs to.  A slower host stretches both, so the ratio
stays; a slower program stretches only the numerator, so the ratio moves.

The kernel is 24 equal chunks of what the program spends its time on:
interpreted Python arithmetic, small complex matrix products, and ufuncs on
a preallocated cache-sized array.  It allocates no large buffer, so the
allocator state the program leaves behind does not change its time.  Before
an operation that runs through the sweep pool the chunks run through a pool
of the same shape (``sweeps._map_indexed``: one thread per core, made per
call), so the lock hand-offs the pool pays are in its reference too; each
operation is scaled by the samples of its own kind.
"""

from __future__ import annotations

import math
import os
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

# median kernel time (serial, pooled) on the 2-vCPU x86-64 host the bounds
# were set on, at its faster level; they only set the scale of reference seconds
NOMINAL_S = {False: 0.006, True: 0.010}
CHUNKS = 24

_GEN = np.random.default_rng(0).standard_normal((16, 16)) * (0.01 + 0.01j)
_VEC = np.random.default_rng(1).standard_normal(8192)


def _chunk(_index: int) -> float:
    acc = 0.0
    for i in range(1250):
        acc += math.sqrt(i + 1.0)
    y = np.ones(16, dtype=complex)
    for _ in range(16):
        y = y + 0.5 * (_GEN @ y)
    out = np.empty_like(_VEC)
    for _ in range(4):
        np.abs(_VEC, out=out)
        np.add(out, acc * 1e-9, out=out)
        np.sqrt(out, out=out)
    return acc


def kernel(pooled: bool = False) -> float:
    """Seconds one run of the fixed reference kernel takes now."""
    start = time.perf_counter()
    if pooled:
        with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
            list(pool.map(_chunk, range(CHUNKS)))
    else:
        for index in range(CHUNKS):
            _chunk(index)
    return time.perf_counter() - start


def scale(samples, pooled: bool = False) -> float:
    """Factor turning measured seconds into reference seconds, from kernel samples."""
    return NOMINAL_S[pooled] / statistics.median(samples)
