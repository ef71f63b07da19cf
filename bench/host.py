"""Host speed, sampled while the jobs run, to take the host's phases out of the times.

On a host shared with other tenants the same job can run up to twice as
slow in phases that last from seconds to minutes, with CPU time following
wall time.  `HostProbe` measures how slow the host is over exactly the time
the jobs run: an interval timer interrupts the jobs every `INTERVAL_S` and
the signal handler, in the benchmark's single thread, times one fixed piece
of reference work.  The reference work uses only the standard library, so a
change to the program cannot move it.

A time divided by `slowdown` (the mean reference time over its stretch,
divided by `REFERENCE_S`) is that time at the reference speed: the speed at
which the reference work takes `REFERENCE_S` seconds.  The handler's own
time is counted apart and left out of the job times.  A step that runs in
another process, the set-up, is taken between two `slowdown_now` samples.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
REFERENCE_S = 0.0025        # the reference work's time at the reference speed
_SIZE = 30


def reference_work():
    """Product of two fixed polynomials with Fraction coefficients kept in
    dicts: the kind of arithmetic the program's coefficient layer does."""
    a = {i: Fraction(i + 1, 2 * i + 3) for i in range(_SIZE)}
    out = {}
    for i, x in a.items():
        for j, y in a.items():
            out[i + j] = out.get(i + j, 0) + x * y
    return out


_EXPECTED = reference_work()


def slowdown_now(samples=5):
    """The host slowdown right now, from a few runs of the reference work."""
    t0 = time.perf_counter()
    for _ in range(samples):
        reference_work()
    return (time.perf_counter() - t0) / samples / REFERENCE_S


class HostProbe:
    """Totals of the reference work's wall and CPU time and of its samples,
    while started."""

    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.samples = 0

    def _sample(self, signum, frame):
        t0, c0 = time.perf_counter(), time.process_time()
        result = reference_work()
        t1, c1 = time.perf_counter(), time.process_time()
        if result != _EXPECTED:
            raise RuntimeError("reference work gave a different result")
        self.wall += t1 - t0
        self.cpu += c1 - c0
        self.samples += 1

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """Stops the timer; takes one sample if the timer never fired."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        if not self.samples:
            self._sample(None, None)

    def totals(self):
        return self.wall, self.cpu, self.samples
