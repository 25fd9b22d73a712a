"""Reference kernel that measures how fast the machine runs right now.

On a shared virtual machine (a 2-core Xeon VM in our measurements) the
same code runs up to 1.6x slower for minutes at a time, with CPU time
tracking wall time (the slowdown is the host's, not time stolen from the
process).  A run of
``--seconds`` sits inside one such phase, so no statistic over one run
removes it; the speed also swings within a second.  The benchmark therefore
times this fixed kernel right after each op, ``STEPS_PER_PASS`` steps spread
evenly over the pass's ops, takes the pass's average kernel step time, and
reports each pass scaled to a machine on which one kernel step takes
``NOMINAL_STEP_US``: ``calibrated = raw * NOMINAL_STEP_US / measured``.  The
number of steps depends only on the op count, never on how long the program
under test takes, so the reference is the same work on every commit.

The kernel is the same kind of work as pdmdyn's hot path: interpreted
Python driving an explicit Runge-Kutta step on 2-vectors with small numpy
operations.  It lives in the benchmark and never imports pdmdyn, so a change
to the program cannot change it.
"""

from __future__ import annotations

import math
import time

import numpy as np

#: kernel step time of the reference machine, in microseconds
NOMINAL_STEP_US = 20.0
#: kernel steps per pass over a workload's ops (about 0.16 s)
STEPS_PER_PASS = 8000


def _pendulum(t: float, y: np.ndarray) -> np.ndarray:
    return np.array([y[1], -math.sin(y[0])])


def steps_per_op(ops: int) -> int:
    """Kernel steps to run after each of a pass's ops."""
    return max(1, round(STEPS_PER_PASS / ops))


def step_us(steps: int) -> float:
    """Microseconds per RK4 step of a pendulum, measured now."""
    y = np.array([1.0, 0.0])
    h = 1e-3
    t = 0.0
    t0 = time.perf_counter()
    for _ in range(steps):
        k1 = _pendulum(t, y)
        k2 = _pendulum(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = _pendulum(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = _pendulum(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return (time.perf_counter() - t0) / steps * 1e6
