"""Scaling measured times to the machine's nominal speed.

The benchmark shares its machine, whose speed drifts by up to 2x within
seconds (a fixed CLI call measured back to back took 31 ms to 62 ms in
3-second windows). The speed probe times fixed work; a span of work is
multiplied by the probe's nominal time over the probe's time measured
around and inside it, which gives the time the work takes at the speed at
which the probe takes its nominal time.

Slowdowns hit interpreted loops and small numpy calls differently, so the
probe does both: over 100 s of back-to-back calls, a pure loop alone left
0.12 and 0.05 IQR/median in the 8-call window medians of `achieve --dreq`
and `simulate`, a small-array numpy loop alone 0.05 and 0.14, the two
together 0.07 and 0.08. Imports are timed before numpy is loaded, against
the pure loop alone, which left 0.06 there (0.30 unscaled).
"""

from __future__ import annotations

import bisect
import signal
import time

PURE_ITERS = 25000
NUMPY_ITERS = 500
# the probes' times on this 2-CPU sandbox when idle (x86-64, Python 3.11)
PURE_NOMINAL_S = 1.5e-3
PROBE_NOMINAL_S = 2.5e-3
PROBE_EVERY = 0.1


def probe_pure() -> float:
    """Seconds a fixed pure-Python loop takes now; needs no third-party import."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PURE_ITERS):
        acc += i * i % 7
    return time.perf_counter() - t0


def probe() -> float:
    """Seconds the pure loop plus a loop of small numpy calls take now."""
    import numpy as np

    x = np.arange(16.0)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(NUMPY_ITERS):
        acc += float((x * i).sum())
    return time.perf_counter() - t0 + probe_pure()


def scaled(seconds: float, nominal: float, *probes: float) -> float:
    """Nominal-speed time of work that took `seconds` amid these probe times."""
    return seconds * nominal * len(probes) / sum(probes)


class SpeedSampler:
    """Runs probe() from SIGALRM every PROBE_EVERY seconds while in use."""

    def __init__(self):
        self.ends: list[float] = []   # when each probe ended
        self.secs: list[float] = []   # how long it took

    def _sample(self, *_):
        self.secs.append(probe())
        self.ends.append(time.perf_counter())

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def scale(self, t0: float, t1: float) -> float:
        """Nominal-speed time of the work done in [t0, t1], probes inside it excluded."""
        lo = bisect.bisect_left(self.ends, t0)
        hi = bisect.bisect_right(self.ends, t1)
        inside = self.secs[lo:hi]
        return scaled(t1 - t0 - sum(inside), PROBE_NOMINAL_S,
                      *self.secs[max(lo - 1, 0):hi + 1])
