"""Processor-speed scaling for the end-to-end timings.

On a shared host the processor the benchmark gets runs faster or slower
with what else runs there: the same 250-cell solver run takes from 0.39 to
0.88 s, in phases of seconds to tens of seconds.  ``Monitor`` therefore
times a short slice of a fixed kernel every ``PROBE_INTERVAL_S`` seconds
while a sample runs, and the benchmark scales the sample by
``REFERENCE_SLICE_S / slice time``: the result is the time the sample would
take at the reference speed.  The slice time is a mean without the fastest
and slowest tenth of the slices, whose times have a long tail (an interrupt
or a cold cache can double one).  The kernel uses only numpy and scipy,
never the solver, and mixes the calls a solver step makes (small-array
ufuncs, fancy-index updates, banded solves), so a slower processor slows
both alike.  It runs in the solver's process, between solver calls, so a
change to the solver could still move it; ``scale_check.py`` measures how
far (see README.md).
"""

import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# Typical slice time on the reference machine (2-core Intel Xeon virtual
# machine, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).  It only sets the scale:
# every comparison is between runs that use the same constant.
REFERENCE_SLICE_S = 3.2e-3
# One slice of about 3 ms every 0.1 s: 3% of a sample, subtracted from it.
SLICE_ITERATIONS = 8
PROBE_INTERVAL_S = 0.1
_N = 250


def kernel():
    """Fixed numpy/scipy work; returns a checksum."""
    x = np.linspace(0.5, 1.5, _N)
    idx = (np.arange(_N) * 7) % _N
    checksum = 0.0
    for _ in range(SLICE_ITERATIONS):
        ab = np.zeros((9, 3 * _N))
        for shift in range(-4, 5, 2):
            cols = np.arange(max(0, shift), 3 * _N + min(0, shift))
            np.add.at(ab, (4 + shift, cols), 0.1)
        ab[4] += 4.0
        y = solve_banded((4, 4), ab, np.repeat(x, 3))
        tri = np.vstack([np.full(_N, -1.0), np.full(_N, 4.0), np.full(_N, -1.0)])
        z = solve_banded((1, 1), tri, np.where(x > 1.0, x, -x)[idx])
        checksum += float(np.max(np.abs(y[::3] - z)) + np.sum(np.maximum(z, 0.0)))
    return checksum


class Monitor:
    """Times a kernel slice every ``PROBE_INTERVAL_S`` seconds while active.

    The slices run from a SIGALRM handler, so they sample the processor's
    speed all through a long solver call.  At least one slice is taken.
    """

    def __init__(self):
        self.slices = []  # (start, end) perf_counter pairs
        self.paused_s = 0.0

    def _slice(self, signum, frame):
        started = time.perf_counter()
        kernel()
        self.slices.append((started, time.perf_counter()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # time the slices took away from the monitored code
        self.paused_s = sum(end - start for start, end in self.slices)
        if not self.slices:
            self._slice(None, None)
        return False

    def scale(self):
        """Reference slice time over the trimmed mean slice time."""
        times = sorted(end - start for start, end in self.slices)
        cut = len(times) // 10
        kept = times[cut:len(times) - cut]
        return REFERENCE_SLICE_S * len(kept) / sum(kept)
