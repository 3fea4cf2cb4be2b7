"""The machine's speed, measured with a fixed kernel between timed starts.

The benchmark runs on a few cores of a shared host whose speed drifts, by up
to 1.8x, over seconds to minutes as the load of other tenants comes and goes.
The drift slows CPU time as much as wall time, so it is contention for the
core and its caches, not waiting.  A median over one run cannot remove it when
a whole run falls into a slow phase.

So run.py times this kernel, which uses no fuzzytorus code, before the first
iteration and after each iteration (with the set-up starts that follow it),
for about a tenth of the time they took, and divides their times by the mean
speed factor of the two calibrations around them.  The timings it reports
are then seconds at the reference speed: the speed at which each part of the
kernel takes its REFERENCE_S.  The parts mirror what the workloads spend
their time on: interpreted Python, many small numpy calls, numpy writing
arrays larger than the caches, and BLAS.
"""

from __future__ import annotations

import math
import time

import numpy as np

# Seconds each part takes at the reference speed: about the fastest seen on
# a 2-core VM (Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = {"python": 0.052, "numpy_small": 0.043, "numpy_large": 0.035,
               "blas": 0.044}

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((2, 8, 8))
_LARGE = (_rng.standard_normal((8, 8)) + 1j, _rng.standard_normal((128, 128)) + 1j)
_SQUARE = _rng.standard_normal((192, 192))


def _python() -> int:
    total = 0
    for i in range(900_000):
        total += i * i
    return total


def _numpy_small() -> None:
    a, b = _SMALL
    for _ in range(2000):
        np.kron(a, b)


def _numpy_large() -> None:
    # a 1024 x 1024 complex output (16 MB), as embed writes at n = 1024
    a, b = _LARGE
    for _ in range(16):
        np.kron(a, b)


def _blas() -> None:
    for _ in range(200):
        _SQUARE @ _SQUARE


PARTS = {"python": _python, "numpy_small": _numpy_small,
         "numpy_large": _numpy_large, "blas": _blas}


def part_times() -> dict[str, float]:
    times = {}
    for name, part in PARTS.items():
        t = time.perf_counter()
        part()
        times[name] = time.perf_counter() - t
    return times


def factor(times: dict[str, float]) -> float:
    """How many times slower than the reference speed: the geometric mean of
    the parts' time ratios."""
    logs = [math.log(times[name] / REFERENCE_S[name]) for name in REFERENCE_S]
    return math.exp(sum(logs) / len(logs))


def measure(at_least: float = 0.0) -> float:
    """Mean speed factor of repeated runs of the kernel, repeated until they
    have taken at least ``at_least`` seconds (one run at least)."""
    start = time.perf_counter()
    factors = [factor(part_times())]
    while time.perf_counter() - start < at_least:
        factors.append(factor(part_times()))
    return sum(factors) / len(factors)
