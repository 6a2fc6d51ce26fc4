"""Reference kernel: a fixed piece of CPU work that gauges the host's speed.

The benchmark runs on shared virtual machines whose speed drifts by 20 to
50% in phases that last from seconds to minutes, most likely as other
tenants load the same physical cores.  CPU time rises with wall time, so
no clock of this process can tell a slow phase from slow code.  The worker therefore runs this kernel between jobs.  It does the
same two kinds of work as the program, small batched numpy linear
algebra (the noise engine's per-step ``eigh``) and interpreted Python
arithmetic (a DOP853 right-hand side, scenario handling), and it does
not depend on darkqubit, so no change to the program moves it.

A job's time multiplied by ``speed(before, after)``, from the kernel's
times just before and just after it, reads as the time the job would
take on the host the constant ``NOMINAL_S`` was measured on.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# Median time of sample() on the reference host, an Intel Xeon 2-vCPU
# virtual machine with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31 on one
# thread, over its 1467 runs in twelve benchmark runs.  It sets the unit
# of the scaled times only.
NOMINAL_S = 0.0316

_RNG = np.random.default_rng(20261018)


def _hermitian(batch: int, dim: int) -> np.ndarray:
    m = (_RNG.normal(size=(batch, dim, dim))
         + 1j * _RNG.normal(size=(batch, dim, dim)))
    return m + m.conj().transpose(0, 2, 1)


_PAIRS = _hermitian(384, 2)
_SIXES = _hermitian(16, 6)


def sample() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(40):
        w, v = np.linalg.eigh(_PAIRS)
        np.einsum("tij,tj->ti", v, np.exp(-1j * w))
        np.linalg.eigh(_SIXES)
    acc = 0.0
    for i in range(50000):
        acc += math.sin(i * 1e-3) * i
    return time.perf_counter() - start


def gauge(seconds: float) -> list[float]:
    """Times of sample(), run at least once and for at least seconds."""
    samples = [sample()]
    while sum(samples) < seconds:
        samples.append(sample())
    return samples


def speed(before: list[float], after: list[float]) -> float:
    """Host speed relative to the reference host between two gauges.

    Each gauge is a list of sample() times; a single run of the kernel
    is as noisy as the host, so each gauge counts by its median.
    """
    return 2.0 * NOMINAL_S / (statistics.median(before)
                              + statistics.median(after))
