"""Fixed reference computations that measure the host's speed during a run.

On a shared host (a 2-core 2.1 GHz Xeon) the same computation took up to 20%
longer for minutes at a time, and the slowdown was in CPU speed: CPU time
tracked wall time and steal time stayed near zero. Sampling more work inside
one run cannot remove a drift that lasts longer than the run. So the
measuring process times one of these kernels before and after every
operation, and ``wall_cal`` counts each operation's time in units of the
kernel's time around it. Both kernels are this file's own code, so a change to
the package cannot move them.
"""

import functools
import time

import numpy as np

_VALUES = np.arange(64, dtype=np.float64)


def interpreter():
    """Scalar Python loop over numpy elements, like the package's kernels
    (about 0.09 s on a 2.1 GHz Xeon)."""
    acc = 0.0
    for _ in range(6000):
        for j in range(64):
            acc += _VALUES[j] * 0.5
    return acc


def blas():
    """Dense 1024 x 1024 products, like chain analysis (about 0.09 s on one
    thread of a 2.1 GHz Xeon)."""
    a, b = _matrices()
    for _ in range(2):
        a @ b


@functools.cache
def _matrices():
    rng = np.random.default_rng(0)
    return rng.random((1024, 1024)), rng.random((1024, 1024))


def timed(kernel):
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
