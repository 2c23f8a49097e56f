"""Host-speed probe.

On a shared host the same single-threaded work can take 1.2x to 1.9x its
best time for seconds at a stretch (measured on a 2-vCPU Intel Xeon VM:
100 ms windows of a fixed loop ranged 1.17x to 1.88x its minimum), so raw
wall times of identical runs spread by 20-40%.  The probe is a fixed loop
of small numpy operations, the same kind of work as cfrk's inner loops.
While the benchmark's solves run, a timer interrupts them every
SAMPLE_EVERY_S to time one probe sample, so the samples weigh host speed
by time as the solves experience it.  A time measured while the probe took
p microseconds on average, multiplied by REFERENCE_US / p, is the time at
a fixed reference speed.  On the VM above this brought the spread (IQR
over median, five seeds) of heavytop-convergence's wall_s from 36% raw to
3%.
"""

import math
import signal
import time

import numpy as np

# Time of one probe sample, in microseconds, at the reference host speed.
REFERENCE_US = 200.0
SAMPLE_EVERY_S = 0.01

_W = np.array([0.1, 0.5, -0.4])


def probe_sample_us() -> float:
    """Time of a fixed 10-iteration numpy loop, in microseconds."""
    v = np.array([0.6, -0.3, 0.2])
    t0 = time.perf_counter()
    for _ in range(10):
        v = np.cross(v, _W) + 0.5 * v
        v = v / math.sqrt(float(v @ v))
    return (time.perf_counter() - t0) * 1e6


def at_reference_speed(seconds: float, probe_us: float) -> float:
    """A time measured while the probe took probe_us on average, at
    reference speed."""
    return seconds * REFERENCE_US / probe_us


class HostSampler:
    """Context in which a SIGALRM handler appends probe_sample_us() to
    .samples every SAMPLE_EVERY_S of wall time.  The handler runs between
    Python bytecodes, so the interrupted code computes the same results."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _tick(self, _signum, _frame):
        self.samples.append(probe_sample_us())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
