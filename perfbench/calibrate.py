"""Host-speed calibration: a fixed piece of interpreter work, timed between
and during a run's measured operations.

On a shared host the same code runs up to 1.5x slower for minutes at a time,
CPU time included, while other tenants load the machine.  A run that falls in
such a phase reads slow from its first round to its last, and no estimator
inside the run (minimum, median) can undo that.  The kernel below slows down
with it: it is the same mix of work as fixdiv's lattice code, an integer
characteristic polynomial and bilinear forms in ``Fraction`` arithmetic with
denominator 2, and it never imports fixdiv, so no change to fixdiv changes
it.

Every time metric is reported in reference seconds: the measured seconds
times ``KERNEL_REF_S`` over the kernel's median time while they were
measured.  That is the time the work would have taken on a host where one
kernel call takes ``KERNEL_REF_S``, a 2-vCPU Xeon at rest.  The raw seconds
and each round's factor are kept in the run's detail file.
"""
from __future__ import annotations

import statistics
import time
from fractions import Fraction

import reference

KERNEL_REF_S = 3.0e-4  # about 0.3 ms: 2% of an operation loop's time
EVERY_S = 0.015  # an operation loop takes one kernel sample per 15 ms of work

_INTEGRAL = reference.chain_rows(2, -8, -4)
_HALVES = [[Fraction(v, 2) for v in row] for row in reference.chain_rows(2, -6, -2)]
_VECTORS = [(1, 0, 1, 2), (2, 1, 0, 1)]


def kernel() -> None:
    reference.signature(_INTEGRAL)
    for x in _VECTORS:
        for y in _VECTORS:
            reference.pair(_HALVES, x, y)


class HostSpeed:
    """Kernel samples, grouped by the round they belong to."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._last = time.perf_counter()

    def sample(self) -> None:
        c0, t0 = time.process_time(), time.perf_counter()
        kernel()
        now = time.perf_counter()
        self.samples.append(now - t0)
        self.spent_wall += now - t0
        self.spent_cpu += time.process_time() - c0
        self._last = now

    def window(self, seconds: float) -> None:
        """Sample back to back for ``seconds`` (at least once)."""
        end = time.perf_counter() + seconds
        self.sample()
        while time.perf_counter() < end:
            self.sample()

    def tick(self) -> None:
        """Sample once if ``EVERY_S`` has passed since the last sample."""
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def take(self) -> float:
        """Factor from measured to reference seconds over the samples since
        the last call, and start a new group."""
        median = statistics.median(self.samples)
        self.samples = []
        return KERNEL_REF_S / median
