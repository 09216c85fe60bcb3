"""A fixed piece of work that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed swings by a third and more
over minutes.  The swing shows in CPU time as well as in wall time, so it is
not time spent descheduled.  The worker runs `probe` between operations, at
most once every EVERY_S, and run.py scales every time of the run by
(REFERENCE_S / median probe time) ** SENSITIVITY.  The probe calls nothing
of factorcube, so no change to the program moves it; the unscaled times are
kept beside the scaled ones.

The probe does what factorcube's hot paths do, in two parts: tuple-keyed
dicts, frozensets and big-integer Fractions (tree building on small nets,
costing), and one greedy pair-scan step in numpy (Gram matrix, gather over
every pair, lexsort).  Scaling by a broadcast product+sum, numeric's own
kernel, tracked every workload worse.  The workloads swing less than the
probe: over 20 runs of 30 s per workload on a 2 vCPU host, their ops_per_s
and op_p50_ms moved as the probe's speed to the power 0.67-0.84, hence
SENSITIVITY.  On those runs (the ones it was fitted on) scaling cut the
spread (IQR / median over 10 seeds) of ops_per_s from 0.07-0.16 to
0.05-0.07, and of op_p50_ms from 0.08-0.19 to 0.05-0.09.
"""

import random
import statistics
import time
from fractions import Fraction

import numpy as np

# Median probe time on the reference host (2 vCPU, Python 3.11, numpy 2.4,
# one BLAS thread).  It only fixes the scale of the reported times.
REFERENCE_S = 0.025
SENSITIVITY = 0.7
EVERY_S = 0.25

# ~250 factors of a 400-variable net, as in the large workload
_PRESENT = (np.random.default_rng(0).random((250, 400)) < 0.02).astype(np.float64)
_IU, _JU = np.triu_indices(250, 1)


def probe() -> float:
    """Run the fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    rng = random.Random(1)
    table = {}
    for i in range(6000):
        key = (rng.randrange(500), rng.randrange(50))
        table[key] = table.get(key, 0) + i
        frozenset(key)
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(3**i, 7 ** (i % 50 + 1))
    for _ in range(4):
        shared = _PRESENT @ _PRESENT.T
        sizes = _PRESENT.sum(axis=1)
        union = (sizes[_IU] + sizes[_JU] - shared[_IU, _JU]).astype(np.int64)
        np.lexsort((union[::-1], union))
    return time.perf_counter() - t0


class HostClock:
    """Probe samples taken between operations, and the time they took."""

    def __init__(self, span=None):
        self.samples = []
        self.spent = 0.0
        self._span = span  # context manager factory, to mark probes in a trace
        probe()  # warm-up: first calls into numpy cost more
        self._last = -float("inf")

    def tick(self) -> None:
        """Probe, if EVERY_S has passed since the last probe ended."""
        now = time.perf_counter()
        if now - self._last < EVERY_S:
            return
        if self._span:
            with self._span("bench.probe"):
                took = probe()
        else:
            took = probe()
        self.samples.append(took)
        self._last = time.perf_counter()
        self.spent += self._last - now


def scale(samples) -> float:
    """Factor that turns a time of this run into reference-host time."""
    return (REFERENCE_S / statistics.median(samples)) ** SENSITIVITY
