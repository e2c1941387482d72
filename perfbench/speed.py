"""Reference timing that makes a drifting machine's times comparable.

On a shared machine the speed of one core drifts by tens of percent
within a minute, and whole runs land in slow or fast stretches.  A fixed
reference computation (a little interpreter work and a little numpy, like
the package's own mix) is timed between the measured items.  A measured
time t taken while the reference ran in r seconds is reported as

    t * REFERENCE_S / r

that is, in seconds at the speed the reference has at REFERENCE_S.  On
the machine the baseline was recorded on (2 vCPU Intel Xeon, python
3.11, numpy 2.4) the ratio of an item's time to the adjacent reference
time held within 1% across an 80-second stretch in which the raw item
time moved by 45%.  Raw times are kept in each run's detail record.
"""
import signal
import time

import numpy as np

# the reference's median time on the baseline machine
REFERENCE_S = 0.0017
# take a new reference sample before a piece of work once this much time
# has passed since the last one
GAP_S = 0.02
# and, while the ticker runs, every TICK_S during the work itself
TICK_S = 0.2


def reference():
    """Seconds one run of the fixed reference computation takes."""
    t0 = time.perf_counter()
    acc = 0
    d = {}
    for i in range(6000):
        d[i % 97] = d.get(i % 97, 0) + i
        acc += i * i
    a = np.arange(400, dtype=np.int64).reshape(20, 20)
    for k in range(300):
        a[k % 20] = (a[k % 20] * 3 + a[(k + 1) % 20]) % 7
    return time.perf_counter() - t0


class Speed:
    """Reference samples taken around and during measured work.

    `begin()` before a piece of work samples the reference if none was
    taken in the last GAP_S; `end(token, raw)` after it returns the work's
    time scaled by the mean of the sample before it, those taken during it
    and the next one after it.  While the ticker runs, SIGALRM samples the
    reference every TICK_S inside the work, so a long item is scaled by the
    speed it actually ran at; the handler's own time is taken out of the
    work's.  The ticker is for work in this process only: a sample taken
    while a child runs on the other core is slowed by that child.  Scaled
    times are only known once the next sample
    exists, so `end` returns a closure to call after `close()`.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._last = None
        self._busy = False

    def _sample(self):
        self._busy = True
        try:
            self.samples.append(reference())
        finally:
            self._busy = False
        self._last = time.perf_counter()

    def _tick(self, signum, frame):
        if not self._busy:
            t0 = time.perf_counter()
            self._sample()
            self.stolen += time.perf_counter() - t0

    def start_ticker(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop_ticker(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self):
        if self._last is None or time.perf_counter() - self._last >= GAP_S:
            self._sample()
        return len(self.samples) - 1, self.stolen

    def end(self, token, raw):
        """Work of `raw` seconds ended; returns a function giving
        (raw seconds, scaled seconds) once a later sample exists."""
        first, stolen = token
        after = len(self.samples)
        raw -= self.stolen - stolen

        def scaled():
            around = self.samples[first:after + 1]
            return raw, raw * REFERENCE_S / (sum(around) / len(around))

        return scaled

    def close(self):
        self._sample()
