"""A fixed CPU kernel that measures how fast the machine runs right now.

On a shared machine the speed available to one process swings by tens of
percent within seconds, and the swing hits interpreted Python and NumPy
kernels alike.  The benchmark times this kernel between consecutive ops and
reports every time in reference seconds:

    reference seconds = measured seconds * REFERENCE_S / (kernel time around the op)

so that a slow stretch of the machine, which slows the kernel as much as the
op, cancels out, while a slower program does not.  The kernel is benchmark
code and never calls polyproj, so no change to the program can move it.
Raw seconds are printed next to every reference-second metric.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0125  # about the kernel's median time on a 2-core x86 box under light load

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def kernel_seconds() -> float:
    """Time one run of the kernel: an interpreter loop, small matmuls and Gaussian draws."""
    t0 = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i & 7
    m = _MATRIX
    for _ in range(30):
        m = np.tanh(m @ _MATRIX)
    np.random.default_rng(total).standard_normal((50_000, 4)).sum()
    return time.perf_counter() - t0


class Clock:
    """Times work in reference seconds, calibrating before and after each timed call."""

    def __init__(self):
        self.kernels: list[float] = [kernel_seconds()]

    def time(self, fn, *args):
        """(result, raw seconds, reference seconds) of fn(*args)."""
        t0 = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - t0
        self.kernels.append(kernel_seconds())
        return result, raw, self.to_reference(raw)

    def to_reference(self, seconds: float) -> float:
        """Reference seconds of work measured between the last two kernel runs."""
        return seconds * REFERENCE_S / (0.5 * (self.kernels[-2] + self.kernels[-1]))
