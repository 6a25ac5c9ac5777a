"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was built on is shared. Its speed for the same
work switched between a fast state and one 1.5-1.7x slower, in phases from
under a second to several minutes long. A whole run could fall in the slow
state, so the same code read up to 50% slower from one batch of runs to
the next. Timings alone could not tell a slower program from a slower
machine.

So each pass times a fixed calibration round every ``Sampler.INTERVAL_S``
seconds, and each job's time is multiplied by
``REF_S * mean(1 / round time)`` over the rounds from half a second
before the job starts to half a second after it ends. The rounds sample the
machine's speed uniformly in time, so a long job is scaled by the speed
over its whole length. The round mixes what the program does
(interpreted Python, small numpy operations and a LAPACK ``eigh``) and
calls nothing of spingraph, so a change to the program does not change
it. On the reference machine state a round takes ``REF_S``,
and a calibrated time reads in seconds.

In ten-second windows of one process on that machine, the median time
of a fixed job varied by up to 50% between windows, and its ratio to the
calibration rounds of the same window by up to 14%. Over ten runs per
workload, calibrated times spread by a few percent between runs.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: Seconds one calibration round took in the fast state of the machine the
#: benchmark was built on (2 vCPUs, Intel Xeon, OpenBLAS with one thread).
REF_S = 0.0015

_rng = np.random.default_rng(20240101)
_A = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_H = _A + _A.conj().T
_V = np.arange(2048.0)
# bound now, so that a traced pass's wrapper of numpy.linalg.eigh never
# sees the calibration's calls
_eigh = np.linalg.eigh


def _round() -> int:
    s = 0
    for i in range(12000):
        s += i * i
    v = _V
    for _ in range(40):
        v = np.sqrt(v * v + 1.0)
    _eigh(_H)
    return s


def sample() -> float:
    """Seconds one calibration round takes now."""
    start = perf_counter()
    _round()
    return perf_counter() - start


def factor(rounds: list[float]) -> float:
    """Scale from measured seconds to calibrated seconds, for rounds taken
    at a uniform rate in time."""
    return REF_S * statistics.fmean(1.0 / r for r in rounds)


class Sampler:
    """Calibration rounds during a pass, one every ``INTERVAL_S`` seconds
    of wall time from a SIGALRM handler, plus one at entry and one at exit.

    ``clock()`` is ``perf_counter()`` minus the time spent in the handler,
    so the rounds add nothing to a time measured with it. The handler runs
    between bytecodes; during a long call into native code it waits, and
    timer signals that arrive meanwhile merge into one.
    """

    INTERVAL_S = 0.1
    #: rounds this close to a timed interval calibrate it, so that a short
    #: job is scaled by the machine's speed around it, not by the pass mean
    WINDOW_S = 0.5

    def __init__(self) -> None:
        #: seconds each round took, and the ``clock()`` time it ran at
        self.rounds: list[float] = []
        self.at: list[float] = []
        self._spent = 0.0
        self._previous = None

    def _take(self, *_signal) -> None:
        start = perf_counter()
        self.at.append(start - self._spent)
        self.rounds.append(sample())
        self._spent += perf_counter() - start

    def clock(self) -> float:
        while True:
            spent = self._spent
            now = perf_counter()
            if spent == self._spent:  # no round ran in between
                return now - spent

    def __enter__(self) -> "Sampler":
        self._take()
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._take()

    def factor_between(self, start: float, end: float) -> float:
        """Scale for a time measured from ``start`` to ``end`` on
        ``clock()``: from the rounds within ``WINDOW_S`` of that interval,
        or all rounds if none are."""
        lo = bisect.bisect_left(self.at, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.at, end + self.WINDOW_S)
        return factor(self.rounds[lo:hi] or self.rounds)
