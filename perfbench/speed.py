"""How fast the host runs while the benchmark measures.

On a shared host the same code runs 20-40% slower for minutes at a time, and
its speed changes from one second to the next: one operation may take 50%
longer than the same operation a few seconds later, in user CPU time, with
no system time or page faults to explain it.  Wall times taken at different
moments are therefore not comparable, and a reference computation run
between operations misses the changes that happen during them.

``Sampler`` measures the speed during the operations themselves.  A
``SIGALRM`` timer fires every ``INTERVAL_S``; its handler runs a fixed
pure-Python probe (a dict loop of about 0.4 ms) and records how long it
took.  The mean probe time over a stretch of the run is the host's speed in
that stretch, and times are reported at the speed where one probe takes
``PROBE_NOMINAL_S``: measured seconds times ``PROBE_NOMINAL_S`` over the mean
probe time.  The probe runs no fracmeas code, so a change to the program
moves the reported times and leaves the scale alone.  It costs about 2% of
the run and lands in whatever the program was doing when the timer fired.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
PROBE_NOMINAL_S = 0.0004


def probe():
    tally = {}
    for i in range(3000):
        tally[i & 63] = tally.get(i & 63, 0) + i


class Sampler:
    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take(self):
        """Mean probe time since the last ``take``; runs one probe if none has."""
        if not self.samples:
            self._on_alarm(None, None)
        samples, self.samples = self.samples, []
        return sum(samples) / len(samples)


def scale(probe_s):
    """Factor from measured seconds to seconds at the nominal speed."""
    return PROBE_NOMINAL_S / probe_s
