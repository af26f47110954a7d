"""Reference-time clock for a host whose CPU speed drifts.

On a shared host the same work can take 1.8 times as long for seconds at
a time, for every kind of code alike.  Raw wall times then spread too
widely between runs to hold a regression bound.  This clock times a fixed
calibration loop every INTERVAL_S seconds of wall time (from a SIGALRM
handler, with the garbage collector paused so the loop never pays for a
collection of the program's heap) and converts a measured interval into
reference seconds:

    reference = (wall - time spent in the handler) * REF_S / loop time

where the loop time is the mean of the samples taken inside the interval,
or the nearest sample for an interval too short to hold one.  REF_S is the
loop's time on an unloaded core of the machine the baseline was recorded
on, so reference seconds read as wall seconds on that machine when quiet.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import time

REF_S = 0.0024
INTERVAL_S = 0.25


def calibration_loop() -> int:
    s = 0
    d = {}
    for i in range(12000):
        t = (i, i & 7)
        d[t[1]] = t
        s += len(d) + t[0]
    return s


class RefClock:
    def __init__(self, around=None):
        """around: optional factory of a context manager entered around
        each calibration sample (used to record it as a span)."""
        self._around = around or contextlib.nullcontext
        self._times = []     # end time of each sample
        self._loops = []     # its loop duration
        self._count = 0
        self._spent = 0.0    # wall time spent inside the handler

    def _sample(self, *_):
        t0 = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with self._around():
                a = time.perf_counter()
                calibration_loop()
                b = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self._times.append(b)
        self._loops.append(b - a)
        self._spent += time.perf_counter() - t0
        self._count += 1

    def start(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self) -> tuple:
        """(wall time, handler time so far), read without a sample between."""
        while True:
            n = self._count
            wall = time.perf_counter()
            spent = self._spent
            if n == self._count:
                return wall, spent

    def loop_time(self, a: float, b: float) -> float:
        """Mean calibration time over wall interval [a, b]."""
        lo = bisect.bisect_left(self._times, a)
        hi = bisect.bisect_right(self._times, b)
        if hi > lo:
            return sum(self._loops[lo:hi]) / (hi - lo)
        mid = (a + b) / 2
        near = min((i for i in (lo - 1, lo) if 0 <= i < len(self._times)),
                   key=lambda i: abs(self._times[i] - mid))
        return self._loops[near]

    def elapsed(self, start: tuple, end: tuple) -> tuple:
        """(reference seconds, raw seconds) between two marks."""
        raw = (end[0] - start[0]) - (end[1] - start[1])
        return raw * REF_S / self.loop_time(start[0], end[0]), raw
