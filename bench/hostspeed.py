"""CPU times corrected for the speed the host gives this process.

On a shared virtual machine the same fixed work takes 1.4 to 1.8 times more
CPU time while a neighbour loads the physical core, in stretches of seconds
to minutes, so raw CPU time varied by 20 to 35 % between runs of the same
benchmark. While a `HostSpeed` runs, a SIGPROF timer samples a fixed
calibration kernel every INTERVAL of process CPU time. A duration is then
scaled by REFERENCE over the kernel's mean time in and around it, so that it
reads as CPU seconds at this host's uncontended speed. Work that the program
does is measured the same way before and after a change, so a slower program
still reads slower.

Times come from the main thread's CPU clock less the time spent in the
handler: while a process timer is armed, Linux serves the process CPU clock
from tick-updated totals, too coarse for the kernel's ~1 ms.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL = 0.025  # process CPU seconds between calibration samples
REFERENCE = 0.0008  # the kernel's CPU seconds on an uncontended core of the reference host
MIN_SAMPLES = 16  # a short duration is scaled by at least this many nearby samples
_M = np.arange(48 * 48, dtype=np.int64).reshape(48, 48) % 1091


def kernel() -> int:
    """Fixed calibration work in the library's own mix: interpreted integer
    arithmetic, a set of ints built one by one (the degree-table counting)
    and one small int64 matrix product."""
    s = 0
    for i in range(4000):
        s += i * i % 7
    seen = set()
    for i in range(1500):
        seen.add(i * 7919 % 10007)
    return s + len(seen) + int((_M @ _M % 1091)[0, 0])


class HostSpeed:
    def __init__(self):
        self.spent = 0.0  # thread CPU seconds spent in the handler
        self.at: list[float] = []  # program clock at each sample
        self.took: list[float] = []  # the kernel's CPU seconds at each sample
        self._previous = None

    def clock(self) -> float:
        """Main-thread CPU seconds, less the calibration samples'."""
        return time.thread_time() - self.spent

    def _sample(self, signum, frame):
        t0 = time.thread_time()
        kernel()
        t1 = time.thread_time()
        self.at.append(t0 - self.spent)
        self.took.append(t1 - t0)
        self.spent += time.thread_time() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def scale(self, a: float, b: float) -> float:
        """REFERENCE over the mean kernel time of the samples taken between
        program clock a and b and the nearest one on either side, widened
        to MIN_SAMPLES nearby samples: one sample is noisy, and a stretch of
        contention lasts seconds."""
        lo = max(bisect.bisect_left(self.at, a) - 1, 0)
        hi = min(bisect.bisect_right(self.at, b) + 1, len(self.at))
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.at))
        took = self.took[lo:hi]
        return REFERENCE * len(took) / sum(took) if took else 1.0

    def seconds(self, a: float, b: float) -> float:
        """The program-clock interval [a, b] in reference CPU seconds."""
        return (b - a) * self.scale(a, b)
