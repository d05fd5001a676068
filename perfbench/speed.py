"""Sampling of the host's speed from inside the measured process.

Other tenants share the cores of the host this benchmark runs on, and the
speed of a core drifts by tens of percent within seconds: one CLI job
measured 60 times in a row took 0.55 s to 0.97 s.  A probe timed only
before and after a job misses what happens during it.  ``Sampler``
therefore runs a tiny fixed reference kernel from a SIGALRM handler
every ``INTERVAL_S`` of wall time, on the measured process's own core
while that process works, and records how long each run took.  Each
sample times the second of two back-to-back runs, so that it measures the
core's speed and not the cache state rgpert left behind.

A job's scaled time is its own time (probe runs removed) times
``NOMINAL_S / mean probe time`` over the job: the time the job would take
at the host speed at which the kernel takes ``NOMINAL_S``.  A change to
rgpert moves the scaled time by the same factor as the unscaled one.  Over
five runs of each workload, scaling cut the quartile spread of ``wall_s``
from 16-34% to 4-7%.
"""

import bisect
import fractions
import signal
import statistics
import time

INTERVAL_S = 0.05
NOMINAL_S = 0.0005          # the kernel's time on a quiet core of that host
MIN_SAMPLES = 5

# Exact rational multiply-adds into a dict, the kind of work rgpert's
# polynomial kernel does, in code no change to rgpert can touch.
_VALUES = [fractions.Fraction(i + 1, 3 * i + 7) for i in range(12)]


def kernel():
    acc = {}
    for i, x in enumerate(_VALUES):
        for j, y in enumerate(_VALUES):
            k = (i + j) % 7
            acc[k] = acc.get(k, 0) + x * y
    return acc


class Sampler:
    """Times ``kernel`` every INTERVAL_S while started."""

    def __init__(self):
        self.at = []            # perf_counter at the start of each probe
        self.took = []          # seconds the timed kernel run took
        self.cost = []          # seconds the whole probe took

    def _tick(self, signum=None, frame=None):
        start = time.perf_counter()
        kernel()                # warms the caches
        t0 = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.at.append(start)
        self.took.append(end - t0)
        self.cost.append(end - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def extra(self, n):
        """Take ``n`` samples at once, for a window too short for the timer."""
        for _ in range(n):
            self._tick()

    def window(self, start, end):
        """(probe seconds inside [start, end), scale to the nominal speed).

        The scale uses the probes inside the window, widened to the
        nearest MIN_SAMPLES probes when the window holds fewer.
        """
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_left(self.at, end)
        spent = sum(self.cost[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.at)):
            if lo > 0:
                lo -= 1
            if hi - lo < MIN_SAMPLES and hi < len(self.at):
                hi += 1
        if hi == lo:
            raise ValueError("no speed samples were taken")
        return spent, NOMINAL_S / statistics.fmean(self.took[lo:hi])
