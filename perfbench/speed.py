"""Host-speed calibration for the benchmark's time metrics.

The benchmark shares its CPUs with other tenants of the host, and the speed
they leave it drifts by up to a factor of two over seconds: the same formula
solved again and again takes 0.23 s in one stretch and 0.42 s in the next.
A fixed calibration kernel, timed right before and after each stretch of
solver work on the same CPU, tracks most of that drift: on repeated solves
of fixed formulas it cut the spread between 10 s windows about in half.  Work times are reported in reference
seconds:

    reference seconds = measured seconds * REFERENCE_S / calibration seconds

that is, the time the work would take on a host where the kernel takes
REFERENCE_S.  The kernel imports nothing from sdpsat, so a change to the
solver moves the measured seconds and not the calibration.  It mixes the two
kinds of work the solver does: interpreted Python and numpy calls on short
vectors.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

# about the kernel's time on a 2-vCPU Intel Xeon (family 6, model 207) KVM
# guest; it only sets the unit, any constant would do
REFERENCE_S = 0.004
KERNEL_STEPS = 200
KERNEL_REPEATS = 3
_Z = np.linspace(-1.0, 1.0, 64).reshape(16, 4)


def _kernel() -> float:
    """Column updates shaped like a mixing sweep's: short-vector numpy calls
    inside interpreted loops over four incident rows."""
    z = _Z.copy()
    v = np.full(4, 0.5)
    for step in range(KERNEL_STEPS):
        g = np.zeros(4)
        for j in range(4):
            zj = z[(step + j) & 15]
            zj -= v
            g += (0.125 * (j + 1)) * zj
        norm = float(np.linalg.norm(g))
        if norm > 1e-12:
            v = g / -norm
        for j in range(4):
            z[(step + j) & 15] += v
    return float(z.sum())


def calibrate() -> float:
    """Seconds of one kernel run, the fastest of KERNEL_REPEATS."""
    best = float("inf")
    for _ in range(KERNEL_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


@contextmanager
def one_cpu():
    """Pin this process, and the children it starts meanwhile, to one CPU.

    The calibration then runs on the CPU that runs the work it scales, and
    the scheduler cannot move the work between CPUs that other tenants load
    differently.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class Scaler:
    """Calibrates between stretches of work and scales each stretch.

    `mark()` calibrates and closes the current stretch; `scale(i)` is the
    factor from measured to reference seconds for the stretch whose
    calibrations are number i and i + 1, from their mean.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def mark(self) -> int:
        self.samples.append(calibrate())
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        pair = self.samples[i:i + 2]
        return REFERENCE_S / statistics.fmean(pair)
