"""Machine-speed reference: a fixed CPU kernel timed between operations.

On a shared machine the same work can take 20% longer from one minute to
the next, more than any useful regression bound.  The kernel below does
not touch exactquad.  Timing it between operations measures how fast the
machine runs at that moment.  The benchmark scales each operation's time by
``REFERENCE_S / mean of the kernel samples just before and after it`` and
reports reference seconds next to the raw wall-clock figures.  A change to
exactquad cannot change the kernel, so it cannot hide behind the scaling.

Set-up imports numpy itself, so it is scaled by the interpreted part of the
kernel alone, timed before and after it (``scalar_factor``).
"""

from __future__ import annotations

import math
import statistics
import time

REFERENCE_S = 0.005  # kernel seconds that define the reference machine
SCALAR_REFERENCE_S = 0.0009  # the same for the interpreted part alone
EVERY_S = 0.2  # operation time between two kernel samples


def _scalar_part(acc: float = 0.0) -> float:
    for i in range(10000):
        acc = 0.5 * acc + math.sin(i)
    return acc


def _scalar_seconds() -> float:
    samples = []
    for _ in range(9):
        start = time.perf_counter()
        _scalar_part()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def scalar_factor(work):
    """Run ``work()``; return its result, wall seconds and reference seconds."""
    before = _scalar_seconds()
    start = time.perf_counter()
    result = work()
    seconds = time.perf_counter() - start
    after = _scalar_seconds()
    return result, seconds, seconds * 2.0 * SCALAR_REFERENCE_S / (before + after)


class Calibrator:
    def __init__(self):
        import numpy as np

        self._svd = np.linalg.svd
        rng = np.random.default_rng(0)
        # small SVDs and interpreted scalar arithmetic: of the kernels tried
        # (also ufuncs on short arrays, dict and str work) these two tracked
        # the drift of the synthesis time best, correlation 0.96 and 0.92
        self._mats = [rng.standard_normal((8, 7)) for _ in range(200)]
        self.samples: list[float] = []
        self._last = time.perf_counter()

    def _kernel(self) -> float:
        acc = 0.0
        for a in self._mats:
            acc += float(self._svd(a, compute_uv=False)[0])
        return _scalar_part(acc)

    def sample(self):
        start = time.perf_counter()
        self._kernel()
        self._last = time.perf_counter()
        self.samples.append(self._last - start)

    def maybe_sample(self):
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, before: int) -> float:
        """Reference seconds per wall second around samples ``before`` and the next."""
        return 2.0 * REFERENCE_S / (self.samples[before] + self.samples[before + 1])
