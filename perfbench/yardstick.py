"""A fixed yardstick computation that tracks the speed of the machine.

The test machine is a shared 2-vCPU VM whose speed drifts: a fixed
``radius`` call, timed over 3 s windows, ranged from 97 to 168 ms within a
minute, its two vCPUs differ in speed from moment to moment, and whole
stretches of minutes run 20-30 % slow, in CPU time as much as in wall time.
No amount of work inside one run averages out a stretch that outlasts it.

So the run takes a yardstick sample before every timed operation: a fixed
computation of the same make-up as the library's work (a pure-Python loop,
small LAPACK eigensolves, a Nelder-Mead run over a largest-eigenvalue
function, all in numpy and scipy and none in matvar), whose work never
changes.  Every operation's time is then scaled by NOMINAL_S / (the
trimmed mean time of the WINDOW yardstick samples nearest to its start),
which reads as the time it would take on the machine at its nominal speed.
A change to matvar cannot move the yardstick, so it moves a scaled time
exactly as it moves the raw one.  Over seven 25 s runs (on one CPU, as
``run.py`` arranges) of fixed ``radius`` calls at d = 4 and 8 and
``python -c "import matvar"`` subprocesses, the run's median time varied by
12-13 % and 7 % raw (coefficient of variation), by 3 % and 4 % scaled.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np
from scipy import optimize

# The yardstick time taken as the machine's nominal speed: about its typical
# time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4, scipy 1.17,
# OpenBLAS 0.3.31), where scales ranged from 0.89 to 1.21 over twenty runs.
NOMINAL_S = 0.0050
REPEATS = 3      # yardstick runs per sample; a sample is their median
WINDOW = 9       # samples nearest in time that set an operation's scale
TRIM = 0.2       # share of samples left out at each end of their mean

_rng = np.random.default_rng(12345)
_G = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_A = _G + _G.conj().T
_B = 1j * (_G - _G.conj().T)
_STACK = np.stack([(_G @ _G.conj().T) * k for k in range(1, 9)])


def _work() -> None:
    s = 0
    for i in range(6000):
        s += (i * i) % 7
    for _ in range(60):
        np.linalg.eigvalsh(_STACK)

    def lam(xy):
        return float(np.linalg.eigvalsh(xy[0] * _A + xy[1] * _B + _A @ _A)[-1])

    optimize.minimize(lam, [0.3, -0.2], method="Nelder-Mead",
                      options={"maxiter": 60, "maxfev": 60, "xatol": 0.0, "fatol": 0.0})


def _trimmed_mean(values: list[float]) -> float:
    values = sorted(values)
    k = int(len(values) * TRIM)
    return statistics.fmean(values[k:len(values) - k])


class Yardstick:
    """Timed yardstick samples, and the scale they give."""

    def __init__(self):
        _work()   # warm-up: the first run pays for lazy set-up
        self.at: list[float] = []       # perf_counter at the end of each sample
        self.took: list[float] = []     # seconds per yardstick run

    def sample(self) -> None:
        runs = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            _work()
            runs.append(time.perf_counter() - start)
        self.at.append(time.perf_counter())
        self.took.append(statistics.median(runs))

    def scale(self, t: float | None = None) -> float:
        """NOMINAL_S over the trimmed mean time of the WINDOW samples nearest
        to perf_counter time ``t``, or of all samples when ``t`` is None."""
        if t is None:
            return NOMINAL_S / _trimmed_mean(self.took)
        k = bisect.bisect_left(self.at, t)
        lo = max(0, min(k - WINDOW // 2, len(self.at) - WINDOW))
        return NOMINAL_S / _trimmed_mean(self.took[lo:lo + WINDOW])
