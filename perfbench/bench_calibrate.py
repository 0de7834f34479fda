"""Host-speed calibration for the benchmark's timings.

A shared VM changes speed by tens of percent over minutes as its
neighbours come and go, and that moves every time the benchmark takes,
process CPU time included. So a fixed kernel doing the same kind of work
as mbsplan (short NumPy calls from a Python loop, then rank-one updates of
a simplex-tableau-sized array) is timed before and after each measured
operation. Each operation's times are multiplied by ``scale``: the factor
that brings them to the host speed at which the kernel takes
``REFERENCE_S``. The kernel belongs to the benchmark and never changes
with the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.025
REPEATS = 3

_X = np.linspace(0.1, 1.0, 64)
_TABLEAU = np.random.default_rng(0).random((200, 400))


def _kernel() -> float:
    total = 0.0
    for i in range(1500):
        total += float(np.sum(np.log1p(_X * (i + 1)) / (_X + i)))
    tableau = _TABLEAU.copy()
    for i in range(60):
        tableau -= np.outer(tableau[:, i], tableau[i]) * 1e-9
    return total + float(tableau[0, 0])


def kernel_s() -> float:
    """Median time of a few runs of the kernel, in seconds."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(before_s: float, after_s: float) -> float:
    """Factor for times measured between two kernel timings."""
    return REFERENCE_S / (0.5 * (before_s + after_s))
