"""Host speed, sampled by a fixed reference kernel run between the program's
own work.

On a host whose CPUs are shared with other tenants, speed swings by tens
of percent from one second to the next (on the 2-vCPU host of NOTES.md,
the wall-clock time of the same pass spread 8-27% over 10 seeds).  A
fixed kernel run in the same process, interleaved with the work, slows
down with it.  So
each pass runs `kernel` every INTERVAL_S from a SIGALRM handler (the
program runs unmodified), takes the kernel's time out of every time it
measures (`Sampler.clock`), and reports `Sampler.scale`: the kernel's
nominal duration over its mean duration in that pass.  A measured time
times the scale is that time at reference host speed.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import lu_factor, lu_solve

#: program time between the end of one kernel run and the next
INTERVAL_S = 0.03

#: the kernel's duration at reference host speed; a fixed constant, so
#: scaled times are comparable across runs and commits
NOMINAL_S = 0.0035

_MATRIX = np.random.default_rng(0).random((64, 64)) + 64.0 * np.eye(64)
_GRID = np.linspace(0.0, 1.0, 200)


def kernel():
    """A fixed mix of interpreted Python, small numpy array operations and
    small dense LU solves, like the program's own solver steps."""
    s = 0.0
    for i in range(6000):
        s += i * 0.5
    for _ in range(160):
        y = np.diff(_GRID)
        s += float(np.sum(np.sqrt(1.0 + y * y)))
    for _ in range(4):
        s += float(lu_solve(lu_factor(_MATRIX), _GRID[:64])[0])
    return s


class Sampler:
    """Runs `kernel` every INTERVAL_S of program time between `start` and
    `stop`, and keeps the count and total duration of those runs."""

    def __init__(self):
        self.count = 0
        self.total = 0.0

    def start(self):
        """Take the first sample now, so every started pass has a scale."""
        signal.signal(signal.SIGALRM, self._sample)
        self._sample(None, None)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        # a signal already pending must not end the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)

    def _sample(self, signum, frame):
        start = time.perf_counter()
        kernel()
        self.total += time.perf_counter() - start
        self.count += 1
        # re-armed only now, so the kernel never runs back to back
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def clock(self):
        """perf_counter without the time spent in the kernel."""
        return time.perf_counter() - self.total

    def scale(self):
        """Reference host speed over the speed seen in this process (None
        if the sampler never started)."""
        if not self.count:
            return None
        return NOMINAL_S * self.count / self.total
