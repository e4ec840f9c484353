"""The machine's current speed, from a fixed calibration kernel.

The shared host this benchmark runs on switches between a fast and a slow
state every few seconds, and the share of time spent slow drifts over
minutes; pure-Python engine code runs up to 1.7 times slower in the slow
state.  A wall time taken alone therefore measures the host as much as the
engine.  End-to-end times are instead rescaled to a reference speed: each
job's wall time is multiplied by `REF_S / c`, where `c` is the mean time of
the `kernel()` rounds run during that job and within WINDOW_S of it.

The kernel is stdlib `Fraction` Gaussian elimination and sparse
dict-of-`Fraction` accumulation, the kind of work the engine does, so it
slows down in the same states as the engine; a plain integer loop tracks
them only half as well.  It is the benchmark's own code and never calls the
engine, so a faster engine shows in full.
"""

from __future__ import annotations

import random
import signal
import time
from fractions import Fraction

REF_S = 0.0025          # kernel time at the reference speed
TICK_S = 0.2            # sampling period inside a job
WINDOW_S = 0.25         # rounds this close to a job describe its speed

_rng = random.Random(1)
_MATRIX = [[Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(9)]
           for _ in range(9)]
_VECTORS = [{(_rng.randrange(64),): Fraction(_rng.randint(-3, 3), _rng.randint(1, 3))
             for _ in range(20)} for _ in range(20)]


def _eliminate(rows):
    rows = [list(r) for r in rows]
    n = len(rows)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            continue
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, n):
            f = rows[r][c] / rows[c][c]
            if f:
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return rows


def _accumulate(vectors):
    acc = {}
    for v in vectors:
        for k, x in v.items():
            y = acc.get(k, 0) + x * 2
            if y:
                acc[k] = y
            else:
                acc.pop(k, None)
    return acc


def kernel() -> float:
    """Wall time of one calibration round, in seconds."""
    t0 = time.perf_counter()
    _eliminate(_MATRIX)
    _accumulate(_VECTORS)
    return time.perf_counter() - t0


class Sampler:
    """Calibration rounds with their start times: one per `round()` call,
    and one every TICK_S seconds of wall time (SIGALRM) while armed.
    `spent` is the time spent in the armed rounds, so that a job's own time
    is its wall time minus what `spent` grew by during it."""

    def __init__(self):
        self.rounds: list[tuple[float, float]] = []
        self.spent = 0.0
        self._busy = False

    def round(self):
        self.rounds.append((time.perf_counter(), kernel()))

    def _tick(self, _sig, _frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.round()
        self.spent += time.perf_counter() - t0
        self._busy = False

    def arm(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def kernel_s(self, start: float, end: float) -> float:
        """Mean kernel time of the rounds that started within WINDOW_S of
        the interval [start, end]."""
        ks = [k for t, k in self.rounds if start - WINDOW_S <= t <= end + WINDOW_S]
        return sum(ks) / len(ks)
