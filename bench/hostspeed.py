"""Host-speed reference for the end-to-end timings.

The speed of a shared host drifts by tens of percent from one minute to the
next, and wall time follows it although the program is the same. While a
run measures, a timer signal interrupts it every TICK_S seconds and times a
fixed chunk of reference work: interpreter dict arithmetic and small numpy
products, the two kinds of work the package does. The chunk's mean time
over a measured interval, against NOMINAL_CHUNK_S, is the host's slowness
during that interval. A timing is reported at nominal host speed: its own
seconds minus the time of the chunks run inside it, divided by that ratio.

The mean, not the median: the host loses its time in rare long stalls, which
a chunk catches in proportion to the time it samples (NOTES.md gives the
measurements).

The chunk is the benchmark's own code, so a change to the package does not
move it; it takes a few milliseconds, so a workload's cache state costs it
little.
"""

import signal
import statistics
import time

import numpy as np

TICK_S = 0.2
# the chunk's mean time on a 2-core VM at its usual speed; a constant, so
# it scales every normalised figure alike
NOMINAL_CHUNK_S = 0.0025
CHUNK_ITERATIONS = 4000
# fewest chunk timings an interval is judged by; a short interval borrows
# the chunks nearest to it
MIN_SAMPLES = 5

_clock = time.perf_counter
_M = np.arange(200 * 32, dtype=float).reshape(200, 32) / 6400
_Q = np.linspace(-1.0, 1.0, 32)


def chunk() -> float:
    table: dict = {}
    acc = 0.0
    for i in range(CHUNK_ITERATIONS):
        k = i % 97
        table[k] = table.get(k, 0) + i
        if i % 20 == 0:
            acc += float((_M @ _Q).max())
    return acc


class HostSpeed:
    """Times the reference chunk on a timer signal between start and stop."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._previous = None

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, _signum, _frame):
        self.sample()

    def sample(self):
        t0 = _clock()
        chunk()
        self.samples.append((t0, _clock() - t0))

    def normalise(self, t0: float, t1: float) -> float:
        """Seconds of the interval [t0, t1) at nominal host speed."""
        inside = [d for t, d in self.samples if t0 <= t < t1]
        judged = inside
        if len(judged) < MIN_SAMPLES:
            while len(self.samples) < MIN_SAMPLES:
                self.sample()
            mid = (t0 + t1) / 2
            judged = [d for _, d in sorted(self.samples, key=lambda s: abs(s[0] - mid))
                      [:MIN_SAMPLES]]
        slowness = statistics.fmean(judged) / NOMINAL_CHUNK_S
        return (t1 - t0 - sum(inside)) / slowness
