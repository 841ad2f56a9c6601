"""Correct wall times for the host's changing speed.

The shared hosts the benchmark runs on change speed by up to 1.8x within a
minute, and every job slows with them: raw pass times spread by 23 %
(interquartile range over median) inside one process.  `SpeedProbe` times
a fixed piece of `Fraction` arithmetic every PROBE_INTERVAL_S from a
SIGALRM handler, so it samples the same core the jobs run on, during the
jobs.  An interval's time at reference speed is its wall time minus the
probe's own samples, scaled by REFERENCE_PROBE_S over the mean sample in and
around it.  The mean, not the median: the host switches between a fast and
a slow state, and a job that spans both slows by the share of time spent in
each.  On repeated `p1` jobs on a busy host this brought the spread of
single job times from 41 % (raw) to 8 %; the median gave 11 %.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.025
# Median probe time on the host the bounds were set on (2 vCPUs, Python
# 3.11, quiet); it only fixes the unit of the corrected times.
REFERENCE_PROBE_S = 0.0004
# Samples this far around an interval also count, so that a job shorter
# than PROBE_INTERVAL_S still has some.
WINDOW_PAD_S = 2 * PROBE_INTERVAL_S
# A sample this many times the window's median was stretched by something
# other than the host's speed (an interrupt, a page fault) and is clipped.
CLIP = 2.5


def probe_kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 80):
        acc += Fraction(i, 7) * Fraction(3, i + 2)
    return acc


class SpeedProbe:
    """Context manager that samples the probe kernel while it is entered."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        started = time.perf_counter()
        probe_kernel()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        while len(self.starts) < 3:  # have samples before the first interval
            probe_kernel()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def correct(self, started: float, finished: float) -> float:
        """Seconds at reference speed for the wall interval [started, finished]."""
        lo = bisect.bisect_left(self.starts, started)
        hi = bisect.bisect_right(self.starts, finished)
        own = sum(self.durations[lo:hi])  # handler time spent inside the interval
        a = bisect.bisect_left(self.starts, started - WINDOW_PAD_S)
        b = bisect.bisect_right(self.starts, finished + WINDOW_PAD_S)
        window = self.durations[a:b] or self.durations[max(0, lo - 3):lo + 3]
        cap = CLIP * statistics.median(window)
        slowness = statistics.fmean(min(d, cap) for d in window)
        return (finished - started - own) * REFERENCE_PROBE_S / slowness
