"""Host-speed correction for the benchmark's wall times.

The shared host this benchmark was written on switches between a fast and a
slow state about 1.5x apart, on scales from a tenth of a second to minutes,
so plain wall times of the same code move by a third from run to run.  A
fixed exact-arithmetic kernel, owned by the benchmark and independent of
``ordineq``, is therefore timed before and after every timed region, and the
region's time is scaled by ``REFERENCE_S`` over the kernel's time around it.
A corrected figure reads as the time the region takes on a host on which the
kernel takes ``REFERENCE_S``.  A change to the program moves it as much as
it moves plain wall time; a change of host speed moves both the region and
the kernel and cancels.

The kernel is Gauss-Jordan elimination over ``Fraction``: the same mix of
big-integer arithmetic, small allocations and list traffic as the exact
simplex, so a slow host state slows it by about as much as the queries.
"""

from __future__ import annotations

import os
import random
import time
from fractions import Fraction

#: The kernel time that corrected figures are scaled to, about its time on
#: the host the bounds were measured on.
REFERENCE_S = 0.008
#: A region's scale uses the kernel times within this many regions of it on
#: either side.  The kernel flips between about 4.5 and 8 ms within a
#: second, so one sample says little; over ten runs of lazy_cuts, windows of
#: 2, 5 and 10 gave solve_ms.p50 spreads of 0.049, 0.048 and 0.058 and
#: verify_ms.p50 spreads of 0.056, 0.034 and 0.062, and one factor for the
#: whole run 0.098 and 0.066.
WINDOW = 5

_SIZE = 10
_rng = random.Random("hostspeed")
_MATRIX = tuple(
    tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(_SIZE + 1)) for _ in range(_SIZE)
)


def pin_to_one_cpu() -> None:
    """Keep this process, and the set-up probes it starts, on one CPU, so
    the kernel samples the speed of the CPU the timed regions run on; the
    CPUs of a shared host are slowed at different times."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: the correction still applies, less exactly


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    rows = [list(row) for row in _MATRIX]
    for col in range(_SIZE):
        pivot = next(r for r in range(col, _SIZE) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(_SIZE):
            if r != col and rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return time.perf_counter() - t0


def scales(kernel: list[float]) -> list[float]:
    """Scale factors for the regions between consecutive kernel samples:
    region ``j`` lies between ``kernel[j]`` and ``kernel[j + 1]``, and its
    factor is ``REFERENCE_S`` over the mean kernel time of the samples
    within ``WINDOW`` regions of it."""
    out = []
    for j in range(len(kernel) - 1):
        near = kernel[max(0, j - WINDOW) : j + WINDOW + 2]
        out.append(REFERENCE_S * len(near) / sum(near))
    return out
