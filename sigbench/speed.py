"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by tens
of percent over seconds to minutes (other tenants' load, turbo frequency).
The same tests on the same code then take a quarter more or less wall time
from one run to the next, which buries any change worth measuring.

To take that drift out, the timed loop runs a fixed reference block every
``REF_EVERY_S`` seconds: ``REF_STEPS`` steps of a Metropolis transposition
chain on a 40-slot permutation, written here and never changed.  Its mix of
interpreter work and scalar numpy ``Generator`` calls is that of the exmcmc
chains and kernels.  Each test's wall time is multiplied by
``REF_NOMINAL_S / m``, where ``m`` is the median reference-block time in the
test's ``WINDOW_S`` window of the run.  The result is the test's time on a
machine on which the reference block takes ``REF_NOMINAL_S`` (about this
benchmark's usual shared 2-core Xeon host).  No exmcmc code runs inside the
block, so a change to exmcmc moves the test times and leaves the reference
alone.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter

import numpy as np

REF_STEPS = 1500
REF_NOMINAL_S = 0.010
REF_EVERY_S = 0.1
WINDOW_S = 1.0

_N = 40
_Q = -0.5 * np.subtract.outer(np.linspace(0.0, 3.0, _N), np.linspace(0.0, 3.0, _N)) ** 2


def _chain(steps: int) -> int:
    """The reference work: a fixed-seed swap chain; returns its accepted moves."""
    rng = np.random.default_rng(12345)
    perm = tuple(range(_N))
    accepted = 0
    for _ in range(steps):
        j = int(rng.integers(_N))
        k = int(rng.integers(_N))
        if j == k:
            continue
        pj, pk = perm[j], perm[k]
        delta = _Q[pk, j] + _Q[pj, k] - _Q[pj, j] - _Q[pk, k]
        if delta >= 0 or math.log(rng.random()) < delta:
            moved = list(perm)
            moved[j], moved[k] = pk, pj
            perm = tuple(moved)
            accepted += 1
    return accepted


def reference_block() -> float:
    """Seconds for one reference block.  Garbage collection is paused, so
    that a collection of the program's own heap is not charged to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _chain(REF_STEPS)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def normalise(starts, times, refs: list) -> tuple[np.ndarray, np.ndarray]:
    """Scale each test time to reference seconds.

    ``starts`` and ``times`` are the tests' perf_counter start times and
    durations; ``refs`` holds (start, seconds) of the reference blocks run
    among them.  Returns the scaled times and each test's window index.  A
    window without a reference block uses the run's median block."""
    starts, times = np.asarray(starts), np.asarray(times)
    ref_at = np.array([at for at, _ in refs])
    ref_s = np.array([secs for _, secs in refs])
    t0 = min(starts[0], ref_at[0])
    windows = ((starts - t0) // WINDOW_S).astype(np.int64)
    ref_windows = ((ref_at - t0) // WINDOW_S).astype(np.int64)
    factors = np.full(windows.max() + 1, REF_NOMINAL_S / np.median(ref_s))
    for w in np.unique(ref_windows[ref_windows < len(factors)]):
        factors[w] = REF_NOMINAL_S / np.median(ref_s[ref_windows == w])
    return times * factors[windows], windows
