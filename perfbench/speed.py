"""Machine-speed reference for the end-to-end timings.

The host's speed drifts by tens of percent over minutes while the
process keeps its CPU (other tenants contend for the same cores), so a
raw op time says as much about the minute it ran in as about the
program.  ``measure()`` times a fixed computation of the benchmark's own
-- an interpreter loop and numpy arithmetic on a 16k-point batch, the
two kinds of work the workloads do -- that no change to ``annuli`` can
alter.  Taken between timed ops, it gives the factor that rescales an
op's CPU time to the reference speed ``NOMINAL_S``.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

NOMINAL_S = 0.1   # CPU seconds of one ``measure()`` at the reference speed
CHUNKS = 15

_rng = np.random.default_rng(0)
_POINTS = _rng.normal(size=(16384, 3))
_MATRIX = _rng.normal(size=(3, 3))


def _chunk() -> float:
    x = 0.0
    for i in range(40_000):
        x += i * 0.5
    for _ in range(4):
        q = _POINTS @ _MATRIX.T
        q /= np.sqrt((q * q).sum(axis=1))[:, None]
    return x + float(q[0, 0])


def measure() -> float:
    """CPU seconds of the fixed reference computation."""
    t0 = time.process_time()
    for _ in range(CHUNKS):
        _chunk()
    return time.process_time() - t0


def scale(refs: list[float], k: int) -> float:
    """Factor taking a time measured between ``refs[k]`` and
    ``refs[k + 1]`` to the reference speed.  It uses the median of the
    two references on each side, since one reference is itself noisy."""
    return NOMINAL_S / statistics.median(refs[max(k - 1, 0):k + 3])
