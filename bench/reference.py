"""Fixed reference kernel used to scale timings to a nominal host speed.

The kernel is a few numpy least-squares solves on fixed matrices plus a
short pure-Python loop, the two kinds of work ``conecert`` spends its time
on.  It calls nothing in ``conecert``, so a change to the program cannot
move it; what moves it is the host (frequency, co-tenants, cache
pressure).  Every time metric is reported as
``raw * NOMINAL_REF_MS / measured_ref_ms``, where the measured time is
the mean of the slices run during the same pass.
"""

from __future__ import annotations

import time

import numpy as np

# median slice time on the host where the benchmark's bounds were set
# (2 shared vCPUs, numpy 2.4 with one BLAS thread); see README.md
NOMINAL_REF_MS = 1.0

_rng = np.random.default_rng(20171228)
_SYSTEMS = [(_rng.standard_normal((60, k)), _rng.standard_normal(60)) for k in (8, 24, 40)]
_LOOP = 2500
# bound before the traced run patches numpy.linalg, so slices never count
_lstsq = np.linalg.lstsq


def _kernel() -> float:
    acc = 0.0
    for A, b in _SYSTEMS:
        acc += float(_lstsq(A, b, rcond=None)[0][0])
    for i in range(_LOOP):
        acc += (i % 7) * 0.5
    return acc


def slice_ms() -> float:
    """CPU time of one warm run of the kernel (about a millisecond), in ms.

    The worker runs a slice after every operation, so the slices of a
    pass sample the host's speed evenly over that pass.  The kernel runs
    once untimed first: that run refills the caches the operation left
    behind, so the timed run does not depend on what the operation did.
    """
    _kernel()
    t = time.thread_time()
    _kernel()
    return (time.thread_time() - t) * 1000.0
