"""Host-speed calibration: host time expressed in reference seconds.

The speed of a small shared VM drifts by more than any useful bound: on
a 2-vCPU KVM guest a fixed Python + numpy loop ran up to 1.9x slower for
stretches of tens of seconds to minutes, in CPU time as much as in wall
time, so it is not only time the host steals.  Longer runs and medians
over a run do not remove a slow stretch that covers the whole run.

So every host-time metric is measured with the clock and then scaled by
how fast a fixed calibration kernel ran right before and right after the
measured work::

    reported = measured * REFERENCE_KERNEL_S / kernel_s

Wall times are scaled by the kernel's wall time and CPU times by its CPU
time, so time the host steals slows a wall-time measurement and its
factor alike, and leaves CPU time and its factor alone.

The kernel belongs to the benchmark, not to the program, and runs while
the program is idle.  A change to the program moves the measured time
and leaves the kernel alone, so it moves the reported value by the same
share; a slow stretch of the host slows both and cancels.  The reference
is the kernel's time on a quiet 2-vCPU KVM guest (Intel Xeon, Python
3.11), so reported values read as seconds on that host.  The raw clock
values are kept in every run record.
"""

from __future__ import annotations

import statistics
import time
from typing import NamedTuple

import numpy as np

#: Kernel time on the reference host, in seconds.
REFERENCE_KERNEL_S = 0.020
#: Kernel runs per calibration.
BURST = 8

_POINTS = np.random.default_rng(12345).random((1500, 16))


def kernel() -> float:
    """Fixed work shaped like the program's: interpreted loops over small
    dicts, then k-means steps on a small numpy array."""
    counts: dict[int, int] = {}
    acc = 0
    for i in range(30000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i
        acc += (i * 7) ^ key
    centers = _POINTS[:8].copy()
    for _ in range(15):
        labels = ((_POINTS[:, None, :] - centers[None, :, :]) ** 2).sum(-1).argmin(1)
        for j in range(len(centers)):
            members = labels == j
            if members.any():
                centers[j] = _POINTS[members].mean(0)
    return acc + len(counts) + float(centers.sum())


class Speed(NamedTuple):
    """Seconds one kernel run took: wall clock and CPU time."""

    wall: float
    cpu: float


class Calibrator:
    """The calibrations of one run, kept for its record."""

    def __init__(self) -> None:
        self.history: list[Speed] = []

    def calibrate(self) -> Speed:
        """How long one kernel run takes now: the mean over a burst, so
        time the host takes away during the burst counts in ``wall``, as
        it does for measured wall time, and not in ``cpu``."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for _ in range(BURST):
            kernel()
        speed = Speed((time.perf_counter() - wall0) / BURST,
                      (time.process_time() - cpu0) / BURST)
        self.history.append(speed)
        return speed

    def medians(self) -> dict[str, float]:
        """The run's median kernel times, for its context."""
        return {
            "kernel_wall_s": statistics.median(s.wall for s in self.history),
            "kernel_cpu_s": statistics.median(s.cpu for s in self.history),
        }


def scale(before: Speed, after: Speed) -> Speed:
    """Factors from measured to reference seconds, for wall and for CPU
    time, for work done between two calibrations."""
    return Speed(REFERENCE_KERNEL_S / ((before.wall + after.wall) / 2),
                 REFERENCE_KERNEL_S / ((before.cpu + after.cpu) / 2))


#: Factors for host times left as measured.
UNSCALED = Speed(1.0, 1.0)
