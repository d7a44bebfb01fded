"""Machine-speed calibration for timings taken on a shared, noisy host.

On the host this benchmark was written on (a 2-vCPU x86_64 virtual machine,
Intel Xeon at 2.0 GHz, shared with other tenants), a fixed pure-Python loop
alternates between about 17 ms and 27 ms per 300 000 iterations, in phases
from a tenth of a second to tens of seconds, whatever runs in the process.
Whole 25-second runs came out up to 1.6 times slower than others, which put
the seed-to-seed spread of raw per-op times at 15-55%.

The benchmark therefore times a short fixed kernel right before and after every
op and scales the op's measured time by ``NOMINAL_S / (kernel time)``.  The
result is the op's time in seconds at a fixed nominal machine speed.  Raw
seconds are reported beside it.  Interference cancels as far as it slows the
kernel and the measured code alike, so each measurement has the kernel that
tracked it best on that host:

* ops use ``calibration_s`` (float loop plus simplex-like list bookkeeping).
  With the float loop alone, slow phases still read 12% slower on search.
* set-up uses ``import_calibration_s`` (the float loop alone), run inside the
  fresh interpreter around the import.  Over three sets of ten runs its
  calibrated medians read 0.597-0.611 s, against 0.56-0.83 s raw and a wider
  spread with the mixed kernel.
"""

from __future__ import annotations

import math
from time import perf_counter

REPEATS = 3
# both kernels take about this long on the host above when uncontended (Python 3.11)
NOMINAL_S = 0.002


def _float_loop() -> float:
    x = 0.0
    for i in range(30_000):
        x += i * 0.5
    return x


def _mixed_kernel() -> float:
    x = 0.0
    for i in range(12_000):
        x += i * 0.5
    pts = [[0.1 * i, 0.2 * i, 0.3 * i, 0.4 * i] for i in range(5)]
    for _ in range(200):
        vals = [math.sin(p[0]) + math.cos(p[1]) * p[2] - math.atan2(p[3], 1.0) for p in pts]
        order = sorted(range(5), key=vals.__getitem__)
        pts = [pts[j] for j in order]
        cen = [sum(pts[j][d] for j in range(4)) / 4.0 for d in range(4)]
        pts[-1] = [cen[d] + 0.5 * (cen[d] - pts[-1][d]) for d in range(4)]
    return x + pts[0][0]


def _median_time(kernel) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    times.sort()
    return times[REPEATS // 2]


def calibration_s() -> float:
    """Current time of the op calibration kernel."""
    return _median_time(_mixed_kernel)


def import_calibration_s() -> float:
    """Current time of the set-up calibration kernel."""
    return _median_time(_float_loop)
