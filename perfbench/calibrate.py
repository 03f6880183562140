"""Machine-speed calibration for a shared, noisy host.

On a host shared with other tenants the same interpreted work can run
30-50% slower for seconds to minutes at a time. The benchmark therefore
times a fixed loop of interpreter work every ``EVERY_S`` seconds of a
timed run, from a timer signal, and scales each operation's time by
``REFERENCE_S`` over the loop times taken while it ran or within
``WINDOW_S`` of it, so that a short operation is scaled by a few
samples rather than one. The result stays in seconds: the time the work
takes with the loop at ``REFERENCE_S``, about this host's uncontended
speed. The loop is the benchmark's own code, so no change to fmpsat can
move it. The time spent in the loop is taken out of the operation it
interrupted. Raw times go to stderr.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time

import numpy as np

REFERENCE_S = 0.002
EVERY_S = 0.25
WINDOW_S = 0.5
_ARRAY = np.arange(256, dtype=np.int64)


def _loop() -> int:
    """List and dict access with NumPy scalar reads, as in the interpreted
    kernel, then many small lists turned into text, as in the encoders and
    DIMACS writer. Alone, either half tracked only one kind of work."""
    a, lst, d, s = _ARRAY, list(range(256)), {}, 0
    for i in range(3000):
        j = i & 255
        s += lst[j] + int(a[j])
        d[j] = s & 1023
    rows = [[i, -i - 1, i + 2] for i in range(1, 1500)]
    return s + len(" ".join(str(x) for r in rows for x in r))


def loop_time() -> float:
    """Best of three runs of the loop, with the collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            _loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Sampler:
    """Loop times, taken on demand or every ``EVERY_S`` s inside ``with``.

    ``paused`` is the total time spent sampling; an operation's own time
    is its wall time minus the growth of ``paused`` while it ran.
    """

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.paused = 0.0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        self.samples.append(loop_time())
        self.at.append(t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> float:
        """Factor that brings a time measured over [start, end] to the
        reference speed: the mean of REFERENCE_S / loop time over the
        samples within WINDOW_S of the interval, else the nearest one."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.at) - 1)
            hi = lo + 1
        return sum(REFERENCE_S / s for s in self.samples[lo:hi]) / (hi - lo)
