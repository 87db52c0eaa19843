"""Host-speed probe: a fixed single-threaded kernel, timed between jobs.

On a shared host the speed the program gets changes by up to 1.6 times
over tens of seconds, as other tenants come and go.  The benchmark
therefore times a fixed kernel between measured jobs, never while a job
runs, and reports the round time scaled to a nominal host speed:

    normalized = round wall time * NOMINAL_S / mean probe time over the run

The kernel does the kinds of work the program does (interpreted loops,
scalar special functions, small numpy arrays) in this thread only: it calls
no multi-threaded BLAS routine and starts no thread.  Each probe starts
after a short pause, so that threads a job leaves behind can go idle.
"""

from __future__ import annotations

import math
import time
from time import perf_counter

import numpy as np

NOMINAL_S = 0.010      # kernel time taken as the nominal host speed
REPEATS = 5            # kernel runs per probe
PAUSE_S = 0.02         # idle time before each probe


def kernel() -> float:
    """About 10 ms of fixed work on a quiet 2-vCPU VM."""
    acc = 0.0
    for i in range(1, 8000):
        acc += math.lgamma(i * 0.25) - math.log1p(i) * (i % 7)
    a = np.linspace(0.0, 1.0, 2048)
    m = np.eye(4) * 0.5
    for _ in range(300):
        a = np.sqrt(a * a + 1e-3) * 0.999
        m = (m @ m + np.eye(4)) * 0.25
    return acc + float(a.sum()) + float(m.trace())


def probe() -> float:
    """Seconds one kernel run takes at the host's current speed: the mean of
    REPEATS runs, so that short stalls weigh in as they do on a job."""
    time.sleep(PAUSE_S)
    total = 0.0
    for _ in range(REPEATS):
        start = perf_counter()
        kernel()
        total += perf_counter() - start
    return total / REPEATS
