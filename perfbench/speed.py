"""Machine-speed probe for normalising times on a shared machine.

On a shared VM the same job can run 20% slower or more, for seconds or
minutes, while neighbours are busy. probe() times a fixed exact-arithmetic
kernel (Fraction elimination written here, sharing no code with
anglekit, so a change to the program cannot move it). A run samples it
every PROBE_INTERVAL_S of CPU time, also in the middle of a job, where
the probe's own time is subtracted from the job's. The probe turns the
garbage collector off while it runs, so a collection of the program's
heap never lands inside it. A job's time divided
by the median probe time around it (over PROBE_NOMINAL_S) is its time at
a fixed machine speed, which is what every end-to-end time reports.
"""

import bisect
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# median probe time on the machine the bounds were set on (2-core
# shared VM, Python 3.11); only the scale of reported times depends on it
PROBE_NOMINAL_S = 0.0065
PROBE_INTERVAL_S = 0.25
# probes this close to a job's start or end count towards its speed: the
# speed drifts within seconds, so one factor per pass or per run, or
# probes taken only between jobs, track it too coarsely (see README.md)
PROBE_WINDOW_S = 0.5


def _eliminate():
    rows, cols = 12, 14
    m = [[Fraction((7 * i + 3 * j) % 11 - 5, 1 + (i + j) % 4)
          for j in range(cols)] for i in range(rows)]
    rank = 0
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][c]
        m[rank] = [x / pv for x in m[rank]]
        for r in range(rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def probe():
    """Seconds for one run of the kernel, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _eliminate()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probe samples of one run, with their start times."""

    def __init__(self):
        self.times = []
        self.samples = []
        self.spent = 0.0     # seconds spent probing, to subtract from jobs
        self._busy = False

    def take(self, *_):
        if self._busy:
            return
        self._busy = True
        try:
            start = perf_counter()
            self.samples.append(probe())
            self.times.append(start)
            self.spent += perf_counter() - start
        finally:
            self._busy = False

    def start(self):
        """Probe now, then every PROBE_INTERVAL_S of CPU time, jobs
        included."""
        self.take()
        signal.signal(signal.SIGPROF, self.take)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S,
                         PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)

    def factor(self, start=None, end=None):
        """How much slower than nominal the machine ran: over the whole
        run, or around the interval [start, end]."""
        picked = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.times, start - PROBE_WINDOW_S)
            hi = bisect.bisect_right(self.times, end + PROBE_WINDOW_S)
            picked = self.samples[lo:hi] or picked
        return statistics.median(picked) / PROBE_NOMINAL_S
