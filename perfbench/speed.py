"""CPU speed probe for a shared machine whose speed drifts.

On a shared VM the same pass can take 20 s or 27 s minutes apart, with
CPU time equal to wall time: the core itself runs slower, so neither
CPU time nor steal time shows it. The probe measures that speed in the
same thread while the program runs. A CPU-time timer interrupts the
program every ``INTERVAL_S`` of CPU time and times one fixed slice of
exact rational arithmetic, the kind of work the program does. The
trimmed mean of the slice times over a pass is the pass's speed; a time
divided by it and multiplied by ``REFERENCE_SLICE_S`` is the time the
pass would have taken at the reference speed.

Slices cost about 1.5 % of a pass. Their time is excluded from every
reported time: callers subtract ``total`` accrued over an interval.
"""

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# Typical slice time on the reference machine (README.md), so that
# reference-speed times read close to CPU times there.
REFERENCE_SLICE_S = 0.0003
TRIM = 0.1  # share of samples dropped at each end

_MATRIX = [[Fraction((i * 7 + j * 13) % 17 + 1, (i + 2 * j) % 5 + 1) for j in range(5)]
           for i in range(5)]


def _slice():
    """Fraction elimination on a fixed 5x5 rational matrix."""
    a = [row[:] for row in _MATRIX]
    for c in range(5):
        for r in range(c + 1, 5):
            f = a[r][c] / a[c][c]
            for k in range(c, 5):
                a[r][k] -= f * a[c][k]
    return a


class SpeedProbe:
    """Context manager that samples slice times while it is active."""

    def __init__(self):
        self.samples = []
        self.total = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _slice()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.total += dt

    def __enter__(self):
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def factor(self, start=0, end=None):
        """Reference slice time over the trimmed mean of samples[start:end]."""
        xs = sorted(self.samples[start:end])
        cut = int(len(xs) * TRIM)
        kept = xs[cut:len(xs) - cut] or xs
        return REFERENCE_SLICE_S / statistics.fmean(kept) if kept else 1.0
