"""Scaling timed calls for the host's speed at the time they ran.

On a shared host the same CPU-bound Python work can take anywhere from 1x to
2x as long, switching within a second, while CPU time stays equal to wall
time: other tenants slow this process down without making it wait.  So while
the benchmark measures, a :class:`Sampler` runs a fixed pure-Python probe
from a ``SIGALRM`` handler every ``PERIOD_S`` seconds, inside the calls into
``stab`` as well as between them.  A call's time is then reported as

    (wall time - time spent in the probe) * REFERENCE_S / mean probe time

over the probes taken within ``WINDOW_S`` of the call: its time on a host
where the probe takes ``REFERENCE_S``.  The probe mixes an integer loop with
tuple, dict and sort churn; measured here, that mix slows down in step with
``stab`` (the loop alone slows less, the churn alone more).  It uses nothing
from ``stab``, so no change to ``stab`` can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

# The probe's time on this 2-core host when uncontended (Python 3.11.7).
REFERENCE_S = 0.001
PERIOD_S = 0.02
WINDOW_S = 0.1


def _spin(n):
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def _churn(n):
    rng = random.Random(1)
    table = {}
    for _ in range(n):
        key = tuple(rng.randrange(1 << 40) for _ in range(6))
        table[key] = sum(key) * 12345678901234567 // (key[0] + 1)
    return len(sorted(table.items()))


def probe():
    """Seconds the fixed probe work takes now."""
    start = time.perf_counter()
    _spin(3000)
    _churn(120)
    return time.perf_counter() - start


class Sampler:
    """Runs :func:`probe` every ``PERIOD_S`` while active (a context manager).

    ``on_sample(seconds)`` is told how long each sample interrupted the
    program, so a tracer can keep it out of the span that was running.
    """

    def __init__(self, on_sample=None):
        self.on_sample = on_sample
        self.starts, self.ends, self.took = [], [], []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        took = probe()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.took.append(took)
        if self.on_sample is not None:
            self.on_sample(end - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def interrupted(self, start, end):
        """Seconds of ``[start, end]`` spent in the sampler."""
        i, j = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        return sum(self.ends[k] - self.starts[k] for k in range(i, j))

    def speed(self, start, end):
        """``REFERENCE_S`` over the mean probe time near ``[start, end]``."""
        i = bisect.bisect_left(self.starts, start - WINDOW_S)
        j = bisect.bisect_right(self.starts, end + WINDOW_S)
        if i == j:
            raise RuntimeError("no probe sample near a timed span")
        return REFERENCE_S / statistics.fmean(self.took[i:j])

    def scaled(self, start, end):
        """The span's own seconds at reference speed."""
        return (end - start - self.interrupted(start, end)) * self.speed(start, end)
