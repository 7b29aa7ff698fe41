"""Timings scaled by the host speed measured around them.

On a shared two-core host the same code runs 20-40% slower for stretches
from a tenth of a second to tens of seconds, with no CPU time stolen:
neighbours change how fast a core runs. A run median cannot remove that
when the slow stretches outlast a run. So a fixed kernel that uses no
package code is timed right after every operation and, by a timer signal,
every ``PERIOD_S`` seconds inside a long one, and every timing is scaled
by ``REFERENCE_S / mean kernel time near it``. A change to the package
leaves the kernel alone, so it moves the scaled timings in full.

The host's speed holds for about a tenth of a second (kernel times 35 ms
apart correlate at 0.7, 1 s apart not at all), so only kernel runs during
an operation or right next to it say how fast it ran. On that host the
quartile spread of 3 s fits scaled by kernel runs inside them was 0.06,
against 0.14 unscaled, and 0.07-0.13 when scaled by runs in the seconds
around them.
"""

from __future__ import annotations

import gc
import signal
import time

import numpy as np

# median kernel time on the reference host (2-core Intel Xeon, Python 3.11,
# numpy 2.4); it only sets the scale, so a scaled timing reads in seconds
# at that host's usual speed
REFERENCE_S = 0.0040
# seconds between kernel runs inside an operation; each takes about 4 ms,
# which is not counted in the operation's time
PERIOD_S = 0.25
# a timing is scaled by the kernel runs within NEAR_S of it
NEAR_S = 0.1

_X = np.random.default_rng(1).standard_normal((7, 200))
_Y = np.random.default_rng(2).standard_normal(200)
_POS = np.arange(1, 200, dtype=float)
_ROWS = np.random.default_rng(3).standard_normal((10_000, 7))
_FEATURE = np.random.default_rng(4).integers(0, 7, 511)
_THRESHOLD = np.random.default_rng(5).standard_normal(511)


def kernel() -> float:
    """The package's two kinds of work on fixed data, using no package code.

    A split search (sorts, prefix sums, argmin, masks, interpreter
    arithmetic) like tree growth, then a level-by-level descent of 10,000
    rows through a 511-node tree like prediction. It allocates no
    containers, so no garbage collection of the benchmark's heap lands in it.
    """
    acc = 0.0
    for i in range(8):
        for row in _X:
            order = np.argsort(row, kind="stable")
            ys = _Y[order]
            c1 = np.cumsum(ys)[:-1]
            c2 = np.cumsum(ys * ys)[:-1]
            sse = c2 - c1 * c1 / _POS
            k = int(np.argmin(sse))
            acc += float(np.count_nonzero(row <= row[order[k]]))
        for j in range(40):
            acc += (i * j) % 7
    node = np.zeros(len(_ROWS), dtype=np.int64)
    for _ in range(8):
        go_left = _ROWS[np.arange(len(_ROWS)), _FEATURE[node]] <= _THRESHOLD[node]
        node = np.where(go_left, 2 * node + 1, 2 * node + 2)
    return acc + float(node.sum())


class Clock:
    """Samples the kernel during and right after each operation and scales
    each timing by the mean kernel time near it."""

    def __init__(self):
        self.kernel_s: list[tuple[float, float]] = []  # (start, duration)
        self._pending: list[tuple] = []

    def sample(self) -> None:
        """Time the kernel now."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.kernel_s.append((start, time.perf_counter() - start))
        finally:
            if enabled:
                gc.enable()

    def _alarm(self, signum, frame) -> None:
        self.sample()
        # re-armed only now, so a slow kernel run cannot nest another
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def measure(self, fn, *args):
        """``fn(*args)`` and its time, sampling the kernel every
        ``PERIOD_S`` seconds while it runs; the samples' own time is left
        out of the returned time."""
        before = len(self.kernel_s)
        previous = signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        inside = sum(d for _, d in self.kernel_s[before:])
        return out, end - start - inside

    def add(self, sink: list, value: float, start: float, end: float, power: int = 1) -> None:
        """Queue a timing (power 1) or a rate (power -1) measured over [start, end]."""
        self._pending.append((sink, value, start, end, power))

    def finish(self) -> None:
        """Scale every queued value and append it to its sink."""
        starts = np.array([t for t, _ in self.kernel_s])
        durations = np.array([d for _, d in self.kernel_s])
        for sink, value, start, end, power in self._pending:
            near = (starts >= start - NEAR_S) & (starts <= end + NEAR_S)
            local = durations[near] if near.any() else durations
            sink.append(value * (REFERENCE_S / float(local.mean())) ** power)
        self._pending.clear()
