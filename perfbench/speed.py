"""Machine speed, measured with a fixed calibration loop, for turning
measured seconds into reference seconds.

The machine this benchmark was written on is shared: over minutes its
speed drifts by a third, and within a run it changes in phases of
several seconds.  Process CPU time drifts with the wall time, so it does
not help.  The calibration loop is pure Python table arithmetic of the
same kind as the program's field operations (a 3x3 matrix times a
vector, as in `apply_raw`); its duration at a given moment measures how
fast the machine runs Python just then.  A duration d measured while the
loop takes c seconds becomes d * REFERENCE_S / c: the time the work
would take on a machine where the loop takes REFERENCE_S.  The loop is
part of the benchmark and never changes, so a change to the program
moves the scaled figures as it moves the work; what is taken out is the
machine's drift, as far as the loop and the program slow down alike.
"""

from __future__ import annotations

import signal
import statistics
import time

REFERENCE_S = 0.0045  # the loop's median duration in the timed phases here
PERIOD_S = 0.1  # one sample every tenth of a second in the timed phase


class _PrimeField:
    """Log/exp-table arithmetic mod 4099, in the style of the program's FieldCtx."""

    def __init__(self, p=4099, g=2):
        self.p = p
        self._exp = [pow(g, i, p) for i in range(p - 1)] * 2
        self._log = [0] * p
        for i, v in enumerate(self._exp[: p - 1]):
            self._log[v] = i

    def add(self, a, b):
        s = a + b
        return s - self.p if s >= self.p else s

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]


_FIELD = _PrimeField()
_MATRIX = ((1, 0, 2), (0, 3, 1), (5, 1, 0))


def calibration_s():
    """Duration of one pass of the fixed calibration loop: 1000 products of
    a 3x3 matrix and a vector, like `apply_raw`."""
    add, mul = _FIELD.add, _FIELD.mul
    t0 = time.perf_counter()
    for i in range(1, 1001):
        coords = (i, i + 7, 3 * i + 1)
        out = []
        for row in _MATRIX:
            acc = 0
            for m, c in zip(row, coords):
                if m and c:
                    acc = add(acc, mul(m, c))
            out.append(acc)
        tuple(out)
    return time.perf_counter() - t0


def now_calibration_s():
    """Mean of five passes, for a single reading (the loop's duration
    jumps between a fast and a slow level; the mean follows the mix)."""
    return statistics.fmean(calibration_s() for _ in range(5))


class Sampler:
    """Runs the calibration loop every PERIOD_S seconds (on SIGALRM, in the
    main thread) and keeps (start, duration) pairs.  `spent` is the total
    time taken by the samples, which the caller takes out of its own
    measurements."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append((t0, calibration_s()))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def scale(self, t0, t1):
        """REFERENCE_S over the mean loop duration around [t0, t1]."""
        near = [d for t, d in self.samples if t0 - PERIOD_S <= t <= t1 + PERIOD_S]
        if not near:  # a sample was delayed past the window by a long native call
            near = [min(self.samples, key=lambda s: abs(s[0] - t0))[1]]
        return REFERENCE_S / statistics.fmean(near)
