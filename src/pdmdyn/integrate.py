"""Time integration with domain guards, dense output and period estimation.

Two schemes run on one stepping loop: an embedded Dormand-Prince 5(4) pair
with PI step-size control, and classical fixed-step RK4.  Each is a tableau
whose last stage row equals its weights, so the stage at the new state is the
next step's first (FSAL) and RK4 costs four right-hand-side calls per step.
The loop keeps the stage derivatives in one (stages, 2n) array and forms each
stage state, the propagated solution and, for the 5(4) pair, the error
estimate as tableau-row products with it.  The fixed scheme differs only
where it must: no error estimate, no step-size change and no retry.  The
domain guard runs at every internal stage, not just accepted steps, so
trajectories that approach a mass-profile boundary terminate cleanly instead
of corrupting the step-size controller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import State, Termination, Trajectory
from .errors import (DomainViolation, ExprDomainError, InvalidParameter,
                     NoPeriod, SingularCoefficient, SingularPoint)

RhsFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]

FIXED_RK4 = "fixed_rk4"
ADAPTIVE45 = "adaptive45"

# a float ZeroDivisionError or OverflowError inside a catalog formula (a mass
# that underflows to 0, an exp that overflows) ends a run like a domain error
_GUARDABLE = (DomainViolation, SingularCoefficient, SingularPoint,
              ExprDomainError, ArithmeticError)


@dataclass(frozen=True)
class IntegratorOptions:
    t_end: float
    scheme: str = ADAPTIVE45
    h: float = 1e-3                 # fixed-step size
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-14
    h_max: float = math.inf
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.scheme not in (FIXED_RK4, ADAPTIVE45):
            raise InvalidParameter("scheme", f"unknown scheme {self.scheme!r}")
        for name in ("t_end", "h", "rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(name, f"must be finite, got {getattr(self, name)!r}")
        for name in ("h", "h_init", "h_min"):
            if not getattr(self, name) > 0.0:
                raise InvalidParameter(name, f"must be positive, got {getattr(self, name)!r}")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidParameter("rel_tol/abs_tol", "must be positive")
        if not (self.h_min <= self.h_init <= self.h_max):
            raise InvalidParameter("h_init", "need h_min <= h_init <= h_max")


# Dormand-Prince 5(4) tableau; row i of _A weights the stage derivatives
# that form stage i.  The 5th-order solution is propagated, and the last row
# of _A equals _B5, so the last stage is reused as the next first one (FSAL).
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
])
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4

# Classical RK4 in the same layout: a fifth row at c = 1 holds the weights, so
# its stage is the derivative at the new state and serves the next step.
_RK4_C = np.array([0.0, 1 / 2, 1 / 2, 1.0, 1.0])
_RK4_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 2, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1 / 2, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [1 / 6, 1 / 3, 1 / 3, 1 / 6, 0.0],
])

# scheme -> (nodes, stage rows, weights, error weights or None for a fixed step)
_TABLEAUS = {ADAPTIVE45: (_C, _A, _B5, _E), FIXED_RK4: (_RK4_C, _RK4_A, _RK4_A[-1], None)}


def integrate(rhs: RhsFn, initial: State, opts: IntegratorOptions) -> Trajectory:
    """Integrate up to opts.t_end, or truncate on a guard/step failure."""
    t = initial.t
    x0 = np.array(initial.x, dtype=float)
    v0 = np.array(initial.v, dtype=float)
    if not (math.isfinite(t) and np.all(np.isfinite(x0)) and np.all(np.isfinite(v0))):
        raise InvalidParameter("initial", f"state must be finite, got t={t!r}, "
                                          f"x={x0.tolist()}, v={v0.tolist()}")
    if not opts.t_end >= t:
        raise InvalidParameter("t_end", f"{opts.t_end!r} is before the initial time {t!r}")
    try:
        a0 = np.array(rhs(t, x0, v0))  # initial state must be valid
    except ArithmeticError as err:
        what = "float overflow" if isinstance(err, OverflowError) else err
        raise DomainViolation(f"{what} at the initial state", t=t) from err
    # float arithmetic on a finite state turns non-finite only by overflowing
    if not np.all(np.isfinite(a0)):
        raise DomainViolation("float overflow at the initial state", t=t)

    c, a, b, e = _TABLEAUS[opts.scheme]
    adaptive = e is not None
    n = len(x0)
    ts, xs, vs, accs = [t], [x0], [v0], [a0]
    y = np.concatenate([x0, v0])
    K = np.empty((len(c), 2 * n))  # stage derivatives (v, a) of y = (x, v), by row
    K[0] = np.concatenate([v0, a0])
    if adaptive:
        h = min(opts.h_init, opts.h_max, max(opts.t_end - t, opts.h_min))
    else:
        h = opts.h
    accepted = rejected = 0
    nfev = 1  # the initial acceleration
    max_err = 0.0
    err_prev = 1.0
    # PI controller exponents for a 5th-order pair
    k_i, k_p = 0.7 / 5.0, 0.4 / 5.0
    safety = 0.9
    eps_end = 1e-12 * max(1.0, abs(opts.t_end))
    term = Termination("completed")

    while t < opts.t_end - eps_end:
        if accepted + rejected >= opts.max_steps:
            term = Termination("step_failure", t)
            break
        h = min(h, opts.t_end - t)
        try:
            for i in range(1, len(c)):
                yi = y + h * a[i, :i].dot(K[:i])
                vi = yi[n:]
                K[i, :n] = vi
                K[i, n:] = rhs(t + c[i] * h, yi[:n], vi)
        except _GUARDABLE as err:
            nfev += i
            if adaptive and h > opts.h_min * 4.0:
                # retry closer to the boundary before giving up
                h = max(h * 0.25, opts.h_min)
                rejected += 1
                continue
            term = Termination("domain_violation", t, getattr(err, "coordinate", None))
            break
        nfev += len(c) - 1

        y_new = y + h * b.dot(K)
        if adaptive:
            r = e.dot(K) / (opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
            err = h * math.sqrt(r.dot(r) / r.size)  # RMS of the scaled error

            if not math.isfinite(err):
                h = max(h * 0.25, opts.h_min)
                rejected += 1
                if h <= opts.h_min:
                    term = Termination("step_failure", t)
                    break
                continue

            if err > 1.0:
                rejected += 1
                if h <= opts.h_min * (1.0 + 1e-12):
                    term = Termination("step_failure", t)
                    break
                factor = max(safety * err ** (-0.2), 0.2)
                h = max(h * min(factor, 1.0), opts.h_min)
                continue

        t += h
        y = y_new  # a fresh array, so the x and v views below stay valid
        K[0] = K[-1]  # FSAL
        ts.append(t)
        xs.append(y[:n])
        vs.append(y[n:])
        accs.append(K[-1, n:].copy())
        accepted += 1
        if adaptive:
            max_err = max(max_err, err)
            factor = safety * (err ** -k_i if err > 0.0 else 10.0) * (err_prev ** k_p)
            err_prev = max(err, 1e-10)
            h = min(max(h * min(max(factor, 0.2), 5.0), opts.h_min), opts.h_max)
    return Trajectory(np.array(ts), np.vstack(xs), np.vstack(vs), np.vstack(accs),
                      accepted, rejected, max_err, term, nfev)


# --- dense output ---------------------------------------------------------------


def _hermite(theta: np.ndarray, y0, s0, y1, s1, h: float):
    """Cubic Hermite on one interval; theta in [0, 1]."""
    t2 = theta * theta
    t3 = t2 * theta
    h00 = 2 * t3 - 3 * t2 + 1
    h10 = t3 - 2 * t2 + theta
    h01 = -2 * t3 + 3 * t2
    h11 = t3 - t2
    return h00 * y0 + h10 * h * s0 + h01 * y1 + h11 * h * s1


def sample_dense(traj: Trajectory, t_eval: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities at arbitrary times inside the trajectory span.

    Positions interpolate cubically with velocities as slopes; velocities
    interpolate cubically with the stored accelerations as slopes.
    """
    tq = np.asarray(t_eval, dtype=float)
    if np.any(tq < traj.t[0] - 1e-12) or np.any(tq > traj.t[-1] + 1e-12):
        raise InvalidParameter("t_eval", "outside the trajectory time span")
    idx = np.clip(np.searchsorted(traj.t, tq, side="right") - 1, 0, len(traj.t) - 2)
    h = traj.t[idx + 1] - traj.t[idx]
    theta = np.where(h > 0, (tq - traj.t[idx]) / np.where(h > 0, h, 1.0), 0.0)
    th = theta[:, None]
    hh = h[:, None]
    x = _hermite(th, traj.x[idx], traj.v[idx], traj.x[idx + 1], traj.v[idx + 1], hh)
    v = _hermite(th, traj.v[idx], traj.a[idx], traj.v[idx + 1], traj.a[idx + 1], hh)
    return x, v


# --- period estimation ------------------------------------------------------------


def _refine_crossing(traj: Trajectory, coord: int, k: int, level: float) -> float:
    """Root of x_coord(t) - level inside [t_k, t_{k+1}] via the dense cubic."""
    t0, t1 = traj.t[k], traj.t[k + 1]
    lo, hi = t0, t1
    y_lo = traj.x[k, coord] - level
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        xm, _ = sample_dense(traj, [mid])
        ym = xm[0, coord] - level
        if ym == 0.0:
            return mid
        if (ym > 0) == (y_lo > 0):
            lo, y_lo = mid, ym
        else:
            hi = mid
        if hi - lo < 1e-15 * max(1.0, abs(t1)):
            break
    return 0.5 * (lo + hi)


def estimate_period(traj: Trajectory, coordinate: int = 0) -> float:
    """Oscillation period from successive same-direction mean crossings.

    The mean is the time average of the coordinate; each crossing time is
    refined on the dense cubic.  Returns the mean of the consecutive
    crossing-to-crossing estimates; raises NoPeriod when the signal does not
    oscillate or the estimates disagree by more than 1%.
    """
    if len(traj) < 4:
        raise NoPeriod("trajectory too short")
    y = traj.x[:, coordinate]
    dt = np.diff(traj.t)
    level = float(np.sum(0.5 * (y[1:] + y[:-1]) * dt) / (traj.t[-1] - traj.t[0]))
    d = y - level
    upward = np.nonzero((d[:-1] < 0.0) & (d[1:] >= 0.0))[0]
    if len(upward) < 2:
        raise NoPeriod("fewer than 2 same-direction crossings")
    times = np.array([_refine_crossing(traj, coordinate, k, level) for k in upward])
    estimates = np.diff(times)
    mean = float(np.mean(estimates))
    if len(estimates) >= 2 and (np.max(estimates) - np.min(estimates)) > 0.01 * mean:
        raise NoPeriod("period estimates disagree by more than 1%")
    return mean
