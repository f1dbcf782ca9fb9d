"""How fast the machine runs right now, measured beside the work.

On a machine shared with other tenants the speed of pure-Python code
drifts by 40% or more within a minute, and the process CPU clock drifts
with the wall clock, so raw op times from two runs a minute apart are
not comparable.  A fixed reference loop, timed next to the work, says
how fast the machine ran at that moment.  Times are then reported
scaled to a reference speed, the speed at which one loop takes
``REF_LOOP_S``: ``t * REF_LOOP_S / loop_time``.

A ``Speedometer`` takes loop samples on request and, while ``running``,
from a ``SIGPROF`` handler every ``INTERVAL_S`` of process CPU time, so
that a long op is sampled all along.  The time spent in the handler is
added up in ``stolen`` for the caller to subtract from what it timed.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

# One loop takes about this long on the 2-core machine the benchmark was
# tuned on; any constant would do, this one keeps scaled times near real
# seconds there.
REF_LOOP_S = 0.002
INTERVAL_S = 0.05

_BIG = 3**300
_MOD = 7**400


def loop():
    """Small-int arithmetic and a few bigint products: the interpreter
    work that htspec's counting, DP and division code is made of.  Of the
    loops tried, this one's time followed the library's op times most
    closely as the machine's speed changed."""
    s = 0
    big = _BIG
    for i in range(14000):
        s += (i * i) % 7
        if i % 90 == 0:
            big = (big * 12345678901234567) % _MOD
    return s, big


def _time_loop() -> float:
    t0 = time.perf_counter()
    loop()
    return time.perf_counter() - t0


class Speedometer:
    def __init__(self, on_steal=None):
        self.samples: list[float] = []
        self.stolen = 0.0
        self._on_steal = on_steal

    def sample(self, n: int = 1) -> None:
        for _ in range(n):
            self.samples.append(_time_loop())

    def _on_prof(self, signum, frame):
        t0 = time.perf_counter()
        try:
            loop()
        except RecursionError:
            # the op stood at the recursion limit; take no sample
            pass
        else:
            self.samples.append(time.perf_counter() - t0)
        d = time.perf_counter() - t0
        self.stolen += d
        if self._on_steal is not None:
            self._on_steal(d)

    @contextlib.contextmanager
    def running(self):
        """Sample every INTERVAL_S of CPU time inside the block."""
        old = signal.signal(signal.SIGPROF, self._on_prof)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            signal.signal(signal.SIGPROF, old)


def factor(samples) -> float:
    """Multiply a time taken while ``samples`` were taken by this to get
    the time at the reference speed."""
    return REF_LOOP_S / statistics.median(samples)
