"""Host-speed calibration for the benchmark's timings.

The shared host this benchmark was tuned on changes speed by up to 2x for
a minute or more at a time, so raw wall times of the same operations
spread by about 30% from one 20 s run to the next, however long the run.
Every timed interval is therefore bracketed by a short fixed kernel, and
reported at reference speed:

    reported = measured * REF_S / mean(kernel before, kernel after)

The kernel resembles the package's own work (complex arithmetic with dict
and list churn), which tracks the host's slowdowns far better than a bare
integer loop: on windows of 20 s the spread of mean op time fell from 0.27
to 0.04 (monodromy_loops) and from 0.30 to 0.08 (qset_sweep).  REF_S is
the kernel's duration at the uncontended speed of that host, so a
reported second is close to a wall-clock second there.  The raw wall times
are printed beside the reported ones.
"""
from __future__ import annotations

import time

ITERATIONS = 4000
REF_S = 2.0e-3


def loop_s() -> float:
    """Duration of one run of the fixed calibration kernel."""
    t0 = time.perf_counter()
    z, seen, items = 0j, {}, []
    for i in range(ITERATIONS):
        z = z * 0.999 + complex(i, -i) / (i + 1.0)
        seen[i & 255] = z
        items.append((z, i))
        if len(items) > 512:
            items.clear()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor taking a wall time measured between two kernels to REF speed."""
    return REF_S / (0.5 * (before + after))
