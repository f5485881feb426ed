"""Host-speed probe: timings scaled to a fixed reference speed.

The benchmark's host is a few cores of a shared machine, and how fast
one core runs changes by a quarter within seconds.  On a 2-core VM
(shared host), a fixed pure-Python loop timed in 3 s windows over a
minute read 14-22 ms per call (IQR 31% of the median), with CPU time
equal to wall time: the core itself ran slower, so longer runs do not
average it out (IQR 23% over 60 s windows).  A *second* fixed loop
interleaved with the first on the same thread slows in step with it:
the ratio of the two varied by 4-5% IQR where each alone varied by
25-30%.  A reference loop run concurrently in another process did not
track it (IQR of the ratio 33%), so the probe must share the thread.

:class:`HostProbe` therefore interrupts the timed work with a short
fixed reference burst every :data:`PERIOD_S` (an ``ITIMER_REAL``
signal, whose handler runs on the main thread between bytecodes).
Each timing is then reported as ``busy × speed``: its duration minus
the bursts inside it, at the speed at which a burst takes
:data:`NOMINAL_S`, where the speed is ``NOMINAL_S / burst`` averaged
over the bursts within :data:`WINDOW_S` of the interval.  A
program change that makes the work slower makes these seconds longer
in proportion; a slower host does not.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.05
"""Time between reference bursts."""
NOMINAL_S = 1.0e-3
"""Burst duration that defines the reference speed (about the median
burst on the 2-core VM above, so scaled times read close to its own)."""
WINDOW_S = 0.5
"""Bursts this close to an interval set its host speed."""

_ARRAY = np.linspace(0.0, 1.0, 256)


def reference() -> float:
    """The fixed reference work: an interpreter loop and small array ops."""
    total = 0
    for i in range(5000):
        total += i * i % 7
    x = _ARRAY
    for _ in range(120):
        x = np.sqrt(x * x + 1.0)
    return total + float(x[0])


class HostProbe:
    """Reference bursts on a timer, and timings scaled by them.

    Use as a context manager around the timed work, then call
    :meth:`scaled` for each interval it recorded.
    """

    def __init__(self) -> None:
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._previous = None

    def _burst(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        self._starts.append(start)
        self._ends.append(time.perf_counter())

    def __enter__(self) -> "HostProbe":
        self._burst(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._burst)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def total_s(self) -> float:
        """Summed duration of every burst so far."""
        return sum(e - s for s, e in zip(self._starts, self._ends))

    def busy(self, start: float, end: float) -> float:
        """Wall time of ``[start, end]`` minus the bursts inside it."""
        lo = bisect.bisect_left(self._ends, start)
        hi = bisect.bisect_right(self._starts, end)
        inside = sum(
            min(e, end) - max(s, start)
            for s, e in zip(self._starts[lo:hi], self._ends[lo:hi])
        )
        return (end - start) - max(inside, 0.0)

    def speed(self, start: float, end: float) -> float:
        """Host speed over ``[start, end]``, relative to the reference.

        Work done in a short slice of time is proportional to the speed
        then, ``NOMINAL_S / burst``, so the bursts near the interval
        are averaged as speeds.  A burst the host preempted reads as a
        speed near 0, as the work beside it would have run.
        """
        lo = bisect.bisect_left(self._starts, start - WINDOW_S)
        hi = bisect.bisect_right(self._starts, end + WINDOW_S)
        if lo == hi:
            # No burst near: take the nearest one on either side.
            lo, hi = max(0, lo - 1), min(len(self._starts), hi + 1)
        if lo == hi:
            raise RuntimeError("the host probe recorded no burst")
        return statistics.fmean(
            NOMINAL_S / (e - s) for s, e in zip(self._starts[lo:hi], self._ends[lo:hi])
        )

    def scaled(self, start: float, end: float) -> float:
        """Busy time of ``[start, end]`` at the reference speed."""
        return self.busy(start, end) * self.speed(start, end)
