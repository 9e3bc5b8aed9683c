"""Machine-speed reference for the end-to-end times.

The benchmark host is shared.  Its speed drifts by up to a factor of two
within seconds while other tenants compete for the same cores, caches and
memory bandwidth, and the drift shows in CPU time as much as in wall time,
so no choice of clock or of statistic over a half-minute run removes it.

``SpeedProbe`` tracks the drift while an interval is measured: a SIGALRM
handler, which Python runs in the measuring thread between bytecodes,
times a short fixed reference loop every ``SAMPLE_PERIOD_S``.  The
interval's time, less the time spent in the handler, divided by the mean
slowdown of the loop against ``REF_NOMINAL_S`` is the time the interval
would have taken at nominal speed.

The loop does the two kinds of work slspec does, interpreted complex
arithmetic and small numpy array operations, and calls no slspec code, so
no change to slspec can move it.
"""

from __future__ import annotations

import signal
import time

import numpy as np

REF_NOMINAL_S = 0.0025
SAMPLE_PERIOD_S = 0.2

_X = np.linspace(0.0, 3.0, 2048)
_ONES = np.ones((256, 2, 2), dtype=complex)


def reference_loop() -> float:
    """Seconds taken by the fixed reference loop."""
    t = time.perf_counter()
    a, b = 0.3 + 0.1j, 0.7 - 0.2j
    for _ in range(6000):
        a, b = 0.6 * a + 0.8j * b, -0.8j * a + 0.6 * b
    for k in range(12):
        np.exp(1j * k * _X) * (_X * _X + 1.0)
        np.einsum("nij,njk->nik", _ONES, _ONES)
    return time.perf_counter() - t


class SpeedProbe:
    """Samples the reference loop before, during and after a measured interval.

    Use as ``with SpeedProbe() as probe: ...measure raw...`` and then
    ``probe.at_nominal(raw)``.  Only the main thread may use it.
    """

    def __init__(self):
        self.inside = []        # samples taken by the handler
        self.edges = []         # samples taken on entry and exit
        self._old = None

    def _sample(self, signum, frame):
        self.inside.append(reference_loop())

    def __enter__(self):
        self.edges.append(reference_loop())
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.edges.append(reference_loop())
        return False

    def slowdown(self) -> float:
        """Mean reference time over its nominal value (> 1 is slower)."""
        samples = self.inside + self.edges
        return sum(samples) / len(samples) / REF_NOMINAL_S

    def at_nominal(self, raw_s: float) -> float:
        """raw_s, measured inside the ``with`` block, at nominal speed."""
        return (raw_s - sum(self.inside)) / self.slowdown()
