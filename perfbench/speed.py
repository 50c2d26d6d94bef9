"""The machine's speed of the moment, from a fixed calibration kernel.

On a machine shared with other tenants the same work can take twice as
long from one minute to the next, and process CPU time grows with it,
so neither wall nor CPU seconds compare across runs.  Between timed
units the benchmark runs a small kernel that does not touch levelkgp
(an interpreted loop and 16x16 Cholesky factorizations, the mix the
program spends its time in) and scales each stretch of wall time by
the kernel's reference time over its measured time.  Times then read
as seconds at the reference speed; on a quiet machine the scale is
close to 1.  The kernel's own time is never counted as work.

The machine's speed changes within a second, so besides the samples
taken at unit boundaries a timer signal takes one every PERIOD_S of
wall time.  Its handler runs between two bytecodes of the main thread,
so a stage that logs nothing still gets samples inside it.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time
from typing import Callable, Optional

import numpy as np

# median kernel time on a quiet 2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4
REFERENCE_S = 0.0017
KERNEL_REPEATS = 5
MIN_GAP_S = 0.25
PERIOD_S = 0.25

_SPD = np.eye(16) * 16.0 + np.random.default_rng(1).standard_normal((16, 16)) * 0.1
_SPD = _SPD @ _SPD.T


def kernel() -> None:
    total = 0.0
    for i in range(10000):
        total += (i % 7) * 0.5
    for _ in range(150):
        np.linalg.cholesky(_SPD)


class SpeedMeter:
    """Speed samples over a run, and wall time scaled by them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 probe: Callable[[], None] = kernel):
        self.clock = clock
        self.probe = probe
        self.times: list[float] = []  # midpoint of each sample
        self.factors: list[float] = []  # reference time over measured time
        self.busy: list[tuple[float, float]] = []  # time spent sampling
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:  # the timer fired during a sample
            return
        self._sampling = True
        try:
            start = self.clock()
            runs = []
            for _ in range(KERNEL_REPEATS):
                begin = self.clock()
                self.probe()
                runs.append(self.clock() - begin)
            end = self.clock()
            self.times.append(0.5 * (start + end))
            self.factors.append(REFERENCE_S / statistics.median(runs))
            self.busy.append((start, end))
        finally:
            self._sampling = False

    @contextlib.contextmanager
    def periodic(self, period: float = PERIOD_S):
        """Also sample every ``period`` seconds of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, period, period)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def tick(self) -> None:
        """Sample unless the last sample is recent."""
        if not self.times or self.clock() - self.busy[-1][1] >= MIN_GAP_S:
            self.sample()

    def _busy_within(self, lo: float, hi: float) -> float:
        return sum(max(0.0, min(b, hi) - max(a, lo)) for a, b in self.busy)

    def _factor_around(self, lo: float, hi: float) -> float:
        """Mean factor of the last sample at or before lo and the first
        at or after hi."""
        if not self.times:
            raise RuntimeError("no speed sample taken")
        picks = []
        i = bisect.bisect_right(self.times, lo) - 1
        if i >= 0:
            picks.append(self.factors[i])
        j = bisect.bisect_left(self.times, hi)
        if j < len(self.times):
            picks.append(self.factors[j])
        return statistics.fmean(picks)

    def scaled(self, lo: float, hi: float) -> float:
        """Seconds at the reference speed of the work in [lo, hi]: each
        stretch between samples is scaled by the samples around it."""
        cuts = [lo] + [t for t in self.times if lo < t < hi] + [hi]
        return sum(
            (b - a - self._busy_within(a, b)) * self._factor_around(a, b)
            for a, b in zip(cuts, cuts[1:])
        )


def rates(samples, meter: Optional[SpeedMeter] = None) -> list[float]:
    """Items per second of each (count, [(start, end, weight), ...])
    sample, scaled to the reference speed when a meter is given."""
    def seconds(lo: float, hi: float) -> float:
        return meter.scaled(lo, hi) if meter is not None else hi - lo

    return [n / sum(w * seconds(lo, hi) for lo, hi, w in parts) for n, parts in samples]
