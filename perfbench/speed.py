"""Machine-speed sampling, so job times can be read at a fixed reference speed.

On a shared machine the speed of one core drifts by tens of percent within
a second, which swamps the differences the benchmark must resolve.  While a
pass runs, a timer signal interrupts it every ``INTERVAL`` seconds to run a
fixed pure-Python reference slice (Fraction arithmetic into a dict, like the
program's inner loops) and record how long the slice took.  A job's measured
time, minus the time spent in those slices, is then scaled by
``NOMINAL_S / slice time`` averaged over the samples taken during the job
and the one on either side of it.  The result is the job's time on a machine where the slice takes
``NOMINAL_S``.  The reference code is part of the benchmark, so no change
to the program can alter it.
"""
from __future__ import annotations

import bisect
import signal
import time
from array import array
from fractions import Fraction

INTERVAL = 0.02
NOMINAL_S = 0.0015


def reference_slice():
    acc = {}
    for i in range(1, 300):
        key = (i % 13, i % 5)
        acc[key] = (acc.get(key, Fraction(0))
                    + Fraction(i % 11 + 1, i % 7 + 1) * Fraction(3, i % 4 + 1))
    return acc


class SpeedProbe:
    """Samples the reference slice on ITIMER_REAL while started."""

    def __init__(self):
        self.times = array("d")
        self.durations = array("d")
        self.spent = 0.0
        self._previous = None

    def sample(self, *_):
        t0 = time.perf_counter()
        reference_slice()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.durations.append(t1 - t0)
        self.spent += t1 - t0

    def start(self):
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def scale(self, t0: float, t1: float) -> float:
        """Mean of NOMINAL_S / slice time over the samples covering [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        window = self.durations[lo:hi]
        return sum(NOMINAL_S / d for d in window) / len(window)

    def at_reference_speed(self, t0: float, t1: float, measured: float) -> float:
        return measured * self.scale(t0, t1)
