"""A fixed piece of work that measures how fast the host runs right now.

On a few cores of a shared host the speed drifts by up to 1.5x, in phases of
seconds to minutes.  The runner times :func:`calibrate` right before every
timed operation, on the same core, and reports each operation's time scaled by
``CAL_REF_S / calibration``: seconds on a host where this calibration takes
``CAL_REF_S``.  One calibration jitters by about 20%, so an operation is scaled
by the mean of the calibrations within ``WINDOW_S`` of it, which follows the
drift and averages the jitter.  The calibration is the benchmark's own code,
so a change to the package moves the scaled times as it moves the raw ones;
only the host's drift cancels.  Raw times are kept beside the scaled ones.

The work mixes interpreter bytecode, dict and str churn, and single-threaded
BLAS, like the package's own operations.
"""

from __future__ import annotations

import functools
import gc
import statistics
import time

#: The calibration's typical time on the reference host (2 vCPUs of an Intel
#: Xeon, Python 3.11, numpy 2.4, 1 BLAS thread).  It only fixes the scale.
CAL_REF_S = 0.012
#: Calibrations taken up to this many seconds before an operation starts or
#: after it ends count towards its scale.
WINDOW_S = 2.0


@functools.cache
def _matrix():
    # numpy is imported on first use, after the runner has fixed the BLAS threads,
    # and not at all by a set-up probe of a workload that does not need it
    import numpy as np

    return np, np.random.default_rng(0).standard_normal((96, 96)) / 96.0


def _work() -> float:
    np, a = _matrix()
    total = 0
    for i in range(60_000):
        total += i * i
    table = {i: str(i) for i in range(20_000)}
    b = a
    for _ in range(20):
        b = np.tanh(b @ a + 0.5)
    return total + len(table) + float(b[0, 0])


def calibrate() -> float:
    """Seconds the fixed calibration work takes now.

    The garbage collector is off meanwhile, so that the time does not depend on
    how many objects the package keeps alive.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _work()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def local_calibrations(starts: list[float], seconds: list[float], calibrations: list[float]) -> list[float]:
    """For each operation, the mean calibration taken within ``WINDOW_S`` of it.

    Operation ``i`` started at ``starts[i]`` (increasing), took ``seconds[i]``,
    and ``calibrations[i]`` was timed right before it.
    """
    local, lo, hi = [], 0, 0
    for start, spent in zip(starts, seconds):
        while starts[lo] < start - WINDOW_S:
            lo += 1
        while hi < len(starts) and starts[hi] <= start + spent + WINDOW_S:
            hi += 1
        local.append(statistics.fmean(calibrations[lo:hi]))
    return local


def scaled(seconds: float, calibration: float) -> float:
    """``seconds`` as they would read on the reference host."""
    return seconds * CAL_REF_S / calibration
