"""Machine speed sampled while operations run, and times scaled by it.

Shared cloud hosts slow a process down for seconds to minutes at a time.
On the 2-core KVM guest this benchmark was tuned on, 15-second medians of
one ``roots_at_omega`` call ranged from 3.1 ms to 5.9 ms, and the slowest
of ten back-to-back least-squares refines took 2.1 times the fastest.

A fixed probe, a Python loop of small numpy calls like the solver's own hot
paths, runs from an interval timer every ``PERIOD_S``.  An operation's wall
time, less the probes that interrupted it, is multiplied by
``REFERENCE_S`` over the typical probe time within ``WINDOW_S`` of it.
That is its time at the reference speed, which is what the benchmark
reports.  The speed changes within a second, so an operation shorter than
``SHORT_S`` sees one state and takes the median of the nearby probes; a
longer one sees many and takes their mean, less the top and bottom tenth.
Over five minutes of mixed calls on that guest, this brought the
coefficient of variation of 0.2-0.8 s calls from 19-24% to 3-5%, and of 5 s
refines from 10% to 2.5%.
"""

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
WINDOW_S = 0.15
SHORT_S = 0.1
REFERENCE_S = 0.8e-3  # the probe's median time on the tuning machine when unloaded
_X = np.linspace(0.1, 1.0, 64)


def probe():
    """Fixed work: 200 small numpy calls in a Python loop, about 0.8 ms."""
    acc = 0.0
    for i in range(200):
        acc += float(np.sum(np.cos(_X * i)))
    return acc


class Sampler:
    """Runs ``probe`` on SIGALRM and keeps ``(start, seconds)`` samples."""

    def __init__(self):
        self.starts, self.seconds = [], []

    def _tick(self, signum, frame):
        t = time.perf_counter()
        probe()
        self.starts.append(t)
        self.seconds.append(time.perf_counter() - t)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        """Reference speed over the machine's speed around [t0, t1]."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        near = sorted(self.seconds[lo:hi]) or [REFERENCE_S]
        if t1 - t0 < SHORT_S:
            return REFERENCE_S / statistics.median(near)
        cut = len(near) // 10
        return REFERENCE_S / statistics.fmean(near[cut:len(near) - cut])

    def scaled(self, t0, t1):
        """Seconds at the reference speed of this process's work in [t0, t1]."""
        i, j = bisect.bisect_left(self.starts, t0), bisect.bisect_left(self.starts, t1)
        return (t1 - t0 - sum(self.seconds[i:j])) * self.factor(t0, t1)

    def slowdown(self):
        """Median probe time over the reference: how loaded the machine was."""
        return statistics.median(self.seconds) / REFERENCE_S if self.seconds else 1.0
