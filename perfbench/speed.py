"""Samples the speed of the vCPU while the timed calls run.

On a shared host each vCPU switches between a fast and a slow speed, up
to 2x apart, every few seconds.  A run's call times then depend on the
share of its window spent at each speed, which varies from run to run by
far more than any bound a regression check could use.  ``SpeedProbe``
measures that share as the calls run: every PROBE_INTERVAL_S a SIGALRM
handler, which Python runs on the main thread between two bytecodes of
the timed call, times two fixed pieces of work that use no gmmfad code:

- a Python loop of small NumPy calls, the kind of work that bounds
  select_grid (L-BFGS-B and per-cell overhead on tiny arrays);
- a few 60x60 matrix products, the BLAS work that bounds wide_p and
  mid_np (the Lanczos products).

The two kinds of work slow down by different amounts, so ``scale()`` takes
the mean of each over the stretch sampled and combines the two ratios to
their nominal times by a geometric mean.  Samples come at fixed intervals
of wall time, so a mean weighs each speed by the time spent at it, as the
mean call time does.  The handler's own time is kept in ``busy_s`` and
taken out of the call times.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PROBE_INTERVAL_S = 0.02
PYTHON_LOOPS = 150
BLAS_PRODUCTS = 4
# median sample times on the 2-vCPU guest described in NOTES.md; a
# calibrated second is a wall second at these speeds
PYTHON_NOMINAL_S = 3.0e-4
BLAS_NOMINAL_S = 9.0e-5


class SpeedProbe:
    """Probe samples taken while ``sampling()`` is active."""

    def __init__(self):
        rng = np.random.Generator(np.random.Philox(0))
        self._small = rng.random(3)
        self._square = rng.random((60, 60))
        self.python_s: list[float] = []
        self.blas_s: list[float] = []
        self.busy_s = 0.0

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        total = 0.0
        for i in range(PYTHON_LOOPS):
            total += float(self._small @ self._small) + i
        middle = time.perf_counter()
        for _ in range(BLAS_PRODUCTS):
            self._square @ self._square
        ended = time.perf_counter()
        self.python_s.append(middle - started)
        self.blas_s.append(ended - middle)
        self.busy_s += ended - started

    @contextmanager
    def sampling(self):
        """Sample every PROBE_INTERVAL_S of wall time inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Factor from wall seconds to calibrated seconds over the samples."""
        python = PYTHON_NOMINAL_S / statistics.fmean(self.python_s)
        blas = BLAS_NOMINAL_S / statistics.fmean(self.blas_s)
        return math.sqrt(python * blas)
