"""Time integration with domain guards, dense output and period estimation.

Two schemes: a classical fixed-step RK4 and an embedded Dormand-Prince 5(4)
pair with PI step-size control.  The Dormand-Prince stepper keeps its seven
stage derivatives in one (7, 2n) array and forms each stage state, the
propagated solution and the error estimate as tableau-row products with it.
The domain guard runs at every internal stage, not just accepted steps, so
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
GuardFn = Callable[[float, np.ndarray, np.ndarray], None]

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
    guard: GuardFn | None = None

    def __post_init__(self):
        if self.scheme not in (FIXED_RK4, ADAPTIVE45):
            raise InvalidParameter("scheme", f"unknown scheme {self.scheme!r}")
        for name in ("t_end", "h", "rel_tol", "abs_tol"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidParameter(name, f"must be finite, got {getattr(self, name)!r}")
        if self.h <= 0.0:
            raise InvalidParameter("h", "must be positive")
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise InvalidParameter("rel_tol/abs_tol", "must be positive")
        if not (self.h_min <= self.h_init <= self.h_max):
            raise InvalidParameter("h_init", "need h_min <= h_init <= h_max")


def rk4_step(rhs: RhsFn, state: State, h: float) -> State:
    """One classical 4-stage step of the first-order system (x, v) -> (v, a)."""
    if h < 0.0:
        raise InvalidParameter("h", "must be non-negative")
    if h == 0.0:
        return state
    t, x, v = state.t, state.x, state.v
    a1 = rhs(t, x, v)
    k1x, k1v = v, a1
    a2 = rhs(t + 0.5 * h, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k2x, k2v = v + 0.5 * h * k1v, a2
    a3 = rhs(t + 0.5 * h, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k3x, k3v = v + 0.5 * h * k2v, a3
    a4 = rhs(t + h, x + h * k3x, v + h * k3v)
    k4x, k4v = v + h * k3v, a4
    xn = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    vn = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return State(t + h, xn, vn)


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


def integrate(rhs: RhsFn, initial: State, opts: IntegratorOptions) -> Trajectory:
    """Integrate up to opts.t_end, or truncate on a guard/step failure."""
    if not opts.t_end >= initial.t:
        raise InvalidParameter("t_end", f"{opts.t_end!r} is before the initial time "
                                        f"{initial.t!r}")
    f = rhs
    if opts.guard is not None:
        guard = opts.guard

        def f(t: float, x: np.ndarray, v: np.ndarray) -> np.ndarray:
            guard(t, x, v)
            return rhs(t, x, v)

    ts = [initial.t]
    xs = [np.array(initial.x, dtype=float)]
    vs = [np.array(initial.v, dtype=float)]
    try:
        accs = [np.array(f(initial.t, xs[0], vs[0]))]  # initial state must be valid
    except ArithmeticError as err:
        what = "float overflow" if isinstance(err, OverflowError) else err
        raise DomainViolation(f"{what} at the initial state", t=initial.t) from err
    if opts.scheme == FIXED_RK4:
        return _run_fixed(f, ts, xs, vs, accs, opts)
    return _run_adaptive(f, ts, xs, vs, accs, opts)


def _termination_from(err, t: float) -> Termination:
    coord = getattr(err, "coordinate", None)
    return Termination("domain_violation", t, coord)


def _make_traj(ts, xs, vs, accs, accepted, rejected, max_err, term, nfev) -> Trajectory:
    return Trajectory(np.array(ts), np.vstack(xs), np.vstack(vs), np.vstack(accs),
                      accepted, rejected, max_err, term, nfev)


def _run_fixed(f, ts, xs, vs, accs, opts: IntegratorOptions) -> Trajectory:
    nfev = 1  # the initial acceleration

    def counted(tt: float, xx: np.ndarray, vv: np.ndarray) -> np.ndarray:
        nonlocal nfev
        nfev += 1
        return f(tt, xx, vv)

    t, x, v = ts[0], xs[0], vs[0]
    eps_end = 1e-12 * max(1.0, abs(opts.t_end))
    accepted = 0
    term = Termination("completed")
    while t < opts.t_end - eps_end:
        if accepted >= opts.max_steps:
            term = Termination("step_failure", t)
            break
        h = min(opts.h, opts.t_end - t)
        try:
            nxt = rk4_step(counted, State(t, x, v), h)
            a = counted(nxt.t, nxt.x, nxt.v)
        except _GUARDABLE as err:
            term = _termination_from(err, t)
            break
        t, x, v = nxt.t, nxt.x, nxt.v
        ts.append(t)
        xs.append(x)
        vs.append(v)
        accs.append(a)
        accepted += 1
    return _make_traj(ts, xs, vs, accs, accepted, 0, 0.0, term, nfev)


def _run_adaptive(f, ts, xs, vs, accs, opts: IntegratorOptions) -> Trajectory:
    t = ts[0]
    n = len(xs[0])
    y = np.concatenate([xs[0], vs[0]])
    K = np.empty((7, 2 * n))  # stage derivatives (v, a) of y = (x, v), by row
    K[0] = np.concatenate([vs[0], accs[0]])
    h = min(opts.h_init, opts.h_max, max(opts.t_end - t, opts.h_min))
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
            for i in range(1, 7):
                yi = y + h * _A[i, :i].dot(K[:i])
                vi = yi[n:]
                K[i, :n] = vi
                K[i, n:] = f(t + _C[i] * h, yi[:n], vi)
        except _GUARDABLE as err:
            nfev += i
            if h > opts.h_min * 4.0:
                # retry closer to the boundary before giving up
                h = max(h * 0.25, opts.h_min)
                rejected += 1
                continue
            term = _termination_from(err, t)
            break
        nfev += 6

        y_new = y + h * _B5.dot(K)
        r = _E.dot(K) / (opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new)))
        err = h * math.sqrt(r.dot(r) / r.size)  # RMS of the scaled error

        if not math.isfinite(err):
            h = max(h * 0.25, opts.h_min)
            rejected += 1
            if h <= opts.h_min:
                term = Termination("step_failure", t)
                break
            continue

        if err <= 1.0:
            t += h
            y = y_new  # a fresh array, so the x and v views below stay valid
            K[0] = K[6]  # FSAL
            ts.append(t)
            xs.append(y[:n])
            vs.append(y[n:])
            accs.append(K[6, n:].copy())
            accepted += 1
            max_err = max(max_err, err)
            factor = safety * (err ** -k_i if err > 0.0 else 10.0) * (err_prev ** k_p)
            err_prev = max(err, 1e-10)
            h = min(max(h * min(max(factor, 0.2), 5.0), opts.h_min), opts.h_max)
        else:
            rejected += 1
            if h <= opts.h_min * (1.0 + 1e-12):
                term = Termination("step_failure", t)
                break
            factor = max(safety * err ** (-0.2), 0.2)
            h = max(h * min(factor, 1.0), opts.h_min)
    return _make_traj(ts, xs, vs, accs, accepted, rejected, max_err, term, nfev)


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
