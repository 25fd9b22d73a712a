"""Time integration with domain guards, dense output and period estimation.

Two schemes run on one stepping loop: the Dormand-Prince 8(5,3) pair
(DOP853) with PI step-size control, the default, and classical fixed-step
RK4.  Each is a tableau whose last stage row equals its weights, so the
stage at the new state is the next step's first (FSAL): RK4 costs four
right-hand-side calls per step and DOP853 twelve.  The loop runs on lists of
floats; each stage state, the new state and the error estimates sum a
tableau row's non-zero weights in stage order.  DOP853's error norm blends
its 5th- and 3rd-order estimates.  The fixed scheme differs only where it
must: no error estimate, no step-size change, no retry, and a non-finite
step ends it.  The domain guard runs at every internal stage, so a
trajectory that approaches a mass-profile boundary terminates cleanly
instead of corrupting the step-size controller.

Dense output: a DOP853 trajectory carries the pair's 7th-order interpolant.
The loop keeps, per accepted step, only what the interpolant needs beyond
the trajectory's rows: h and stages 5-11, in one flat buffer of doubles.
The three extra stages per step are evaluated the first time a caller asks
for dense data (``sample_dense``), not while integrating, and are added to
the trajectory's ``nfev`` then.  Every other trajectory interpolates with
cubic Hermite polynomials.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import State, Termination, Trajectory
from .errors import (DomainViolation, ExprDomainError, InvalidParameter,
                     NoPeriod, SingularCoefficient, SingularPoint)

RhsFn = Callable[[float, list, list], Sequence[float]]  # x, v: lists of n floats

FIXED_RK4 = "fixed_rk4"
DOP853 = "dop853"

#: accepted plus rejected steps after which a run ends as a step failure
MAX_STEPS = 5_000_000

# a float ZeroDivisionError or OverflowError inside a catalog formula (a mass
# that underflows to 0, an exp that overflows) ends a run like a domain error
_GUARDABLE = (DomainViolation, SingularCoefficient, SingularPoint,
              ExprDomainError, ArithmeticError)


@dataclass(frozen=True)
class IntegratorOptions:
    t_end: float
    scheme: str = DOP853
    h: float = 1e-3                 # fixed-step size
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-14
    h_max: float = math.inf

    def __post_init__(self):
        if self.scheme not in _TABLEAUS:
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


# Classical RK4; row i of _RK4_A weights the stage derivatives that form stage
# i.  A fifth row at c = 1 holds the weights, so its stage is the derivative
# at the new state and serves the next step as its first (FSAL).
_RK4_C = np.array([0.0, 1 / 2, 1 / 2, 1.0, 1.0])
_RK4_A = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 2, 0.0, 0.0, 0.0, 0.0],
    [0.0, 1 / 2, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0],
    [1 / 6, 1 / 3, 1 / 3, 1 / 6, 0.0],
])

# Dormand-Prince 8(5,3) (Hairer, Norsett & Wanner, Solving ODEs I, II.10) in
# the same layout, rows written as {stage: weight}: row 12, at c = 1, holds
# the 8th-order weights, so stage 12 is the derivative at the new state (FSAL)
# and a step costs 12 RHS calls.  Rows 13-15 are the three extra stages of the
# 7th-order dense output.
_DOP_C = np.array([0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
                   0.2816496580927726, 1 / 3, 1 / 4, 4 / 13, 127 / 195, 3 / 5, 6 / 7,
                   1.0, 1.0, 1 / 10, 1 / 5, 7 / 9])
_DOP_ROWS = [
    {},
    {0: 0.05260015195876773},
    {0: 0.0197250569845379, 1: 0.0591751709536137},
    {0: 0.02958758547680685, 2: 0.08876275643042054},
    {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
     5: -0.015319437748624402, 6: 0.008273789163814023},
    {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726,
     5: 27.59209969944671, 6: 20.154067550477894, 7: -43.48988418106996},
    {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
     5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
     8: -0.020331201708508627},
    {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
     5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505,
     8: 2.4936055526796523, 9: -3.0467644718982196},
    {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625,
     5: -17.9589318631188, 6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063,
     9: 12.360567175794303, 10: 0.6433927460157636},
    {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
     7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
     10: 0.20136540080403034, 11: 0.04471061572777259},
    {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
     8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
     11: 0.007567897660545699, 12: -0.008298},
    {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
     7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
     12: -0.00034046500868740456, 13: 0.1413124436746325},
    {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599,
     7: 4.06898981839711, 8: 0.3567271874552811, 12: -0.0013990241651590145,
     13: 2.9475147891527724, 14: -9.15095847217987},
]


def _matrix(rows: list, width: int) -> np.ndarray:
    """Rows written as {stage: weight} as a dense (len(rows), width) array."""
    return np.array([[row.get(j, 0.0) for j in range(width)] for row in rows])


_DOP_A = _matrix(_DOP_ROWS, 16)
# error weights of the 5th-order and the 3rd-order estimate, which the error
# norm blends; the 3rd-order one is b minus these three weights
_DOP_E5 = _matrix([
    {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
     7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
     10: 0.08192320648511571, 11: -0.022355307863886294}], 13)[0]
_DOP_E3 = _DOP_A[12, :13] - _matrix([{0: 0.2440944881889764, 8: 0.7338466882816118,
                                      11: 0.022058823529411766}], 13)[0]
# dense output: F[3 + r] = h * sum over the 16 stages of D[r, j] K[j]
_DOP_D = _matrix([
    {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917,
     7: 2.38466765651207, 8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883,
     11: 0.6315787787694688, 12: -0.08899033645133331, 13: 18.148505520854727,
     14: -9.194632392478356, 15: -4.436036387594894},
    {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028,
     7: -374.5467547226902, 8: -22.113666853125306, 9: 7.733432668472264,
     10: -30.674084731089398, 11: -9.332130526430229, 12: 15.697238121770845,
     13: -31.139403219565178, 14: -9.35292435884448, 15: 35.81684148639408},
    {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758,
     7: 527.8081592054236, 8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838,
     11: 0.7777137798053443, 12: -2.778205752353508, 13: -60.19669523126412,
     14: 84.32040550667716, 15: 11.99229113618279},
    {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455,
     7: 357.6391179106141, 8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623,
     11: 29.8402934266605, 12: -43.53345659001114, 13: 96.32455395918828,
     14: -39.17726167561544, 15: -149.72683625798564},
], 16)


def _pairs(row) -> tuple:
    return tuple((k, float(w)) for k, w in enumerate(row) if w)


# per scheme: the nodes c of stages 1.. and the non-zero (stage, weight) pairs
# of their rows
_TABLEAUS = {DOP853: (_DOP_C[1:13].tolist(), [_pairs(r) for r in _DOP_A[1:13]]),
             FIXED_RK4: (_RK4_C[1:].tolist(), [_pairs(r) for r in _RK4_A[1:]])}
# DOP853's 5th- and 3rd-order error estimates.  The step-size controller's
# exponents are 1/8; as in Hairer's DOP853 the PI term floors the previous
# step's error at 1e-4, so a very accurate step does not hold back the next
_DOP_ERRORS = (_pairs(_DOP_E5), _pairs(_DOP_E3))
_DOP_ORDER = 8
_DOP_PREV_FLOOR = 1e-4
# DOP853's dense output: nodes and rows of the extra stages 13-15, rows of D
_DOP_DENSE = (_DOP_C[13:].tolist(), [_pairs(r) for r in _DOP_A[13:]],
              [_pairs(r) for r in _DOP_D])


def _combine(y: list, h: float, K: list, pairs: tuple) -> list:
    """y + h * (sum of w * K[k] over the pairs, in stage order), componentwise."""
    out = []
    for j, p in enumerate(y):
        s = 0.0
        for k, w in pairs:
            s += w * K[k][j]
        out.append(p + h * s)
    return out


def integrate(rhs: RhsFn, initial: State, opts: IntegratorOptions) -> Trajectory:
    """Integrate up to opts.t_end, or truncate on a guard/step failure."""
    t = initial.t
    x0, v0 = (np.array(s, dtype=float).tolist() for s in (initial.x, initial.v))
    if not (math.isfinite(t) and all(map(math.isfinite, x0 + v0))):
        raise InvalidParameter("initial", f"state must be finite, got t={t!r}, "
                                          f"x={x0}, v={v0}")
    if not opts.t_end >= t:
        raise InvalidParameter("t_end", f"{opts.t_end!r} is before the initial time {t!r}")
    try:
        a0 = [*map(float, rhs(t, x0, v0))]  # initial state must be valid
    except ArithmeticError as err:
        what = "float overflow" if isinstance(err, OverflowError) else err
        raise DomainViolation(f"{what} at the initial state", t=t) from err
    # float arithmetic on a finite state turns non-finite only by overflowing
    if not all(map(math.isfinite, a0)):
        raise DomainViolation("float overflow at the initial state", t=t)

    nodes, rows = _TABLEAUS[opts.scheme]
    adaptive = opts.scheme == DOP853
    n = len(x0)
    y = x0 + v0
    ts, xs, vs, accs = [t], [x0], [v0], [a0]
    K = [v0 + a0] + [None] * len(rows)  # stage derivatives (v, a) of y = (x, v)
    # DOP853 keeps what its interpolant needs beyond the rows: h and stages 5-11
    kept = array("d") if adaptive else None
    if adaptive:
        h = min(opts.h_init, opts.h_max, max(opts.t_end - t, opts.h_min))
    else:
        h = opts.h
    accepted = rejected = rejected_guard = 0
    nfev = 1  # the initial acceleration
    max_err = 0.0
    err_prev = 1.0
    k_i, k_p = 0.7 / _DOP_ORDER, 0.4 / _DOP_ORDER  # PI controller exponents
    safety = 0.9
    eps_end = 1e-12 * max(1.0, abs(opts.t_end))
    term = Termination("completed")

    while t < opts.t_end - eps_end:
        h = min(h, opts.t_end - t)
        if accepted + rejected >= MAX_STEPS or t + h == t:  # h too small to move t
            term = Termination("step_failure", t)
            break
        try:
            for i, (c, row) in enumerate(zip(nodes, rows), 1):
                yi = _combine(y, h, K, row)
                vi = yi[n:]
                K[i] = vi + [*map(float, rhs(t + c * h, yi[:n], vi))]
        except _GUARDABLE as err:
            nfev += i
            if adaptive and h > opts.h_min * 4.0:
                # retry closer to the boundary before giving up
                h = max(h * 0.25, opts.h_min)
                rejected += 1
                rejected_guard += 1
                continue
            term = Termination("domain_violation", t, getattr(err, "coordinate", None))
            break
        nfev += len(rows)

        y_new = yi  # the last stage row is the weights
        if adaptive:
            err = _error_norm(h, K, y, y_new, opts.abs_tol, opts.rel_tol)

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
                factor = max(safety * err ** (-1.0 / _DOP_ORDER), 0.2)
                h = max(h * min(factor, 1.0), opts.h_min)
                continue
        elif not all(map(math.isfinite, y_new + K[-1])):
            term = Termination("step_failure", t)  # no error estimate caught it
            break

        if kept is not None:
            kept.append(h)
            for k in K[5:12]:
                kept.extend(k)
        t += h
        y = y_new
        K[0] = K[-1]  # FSAL
        ts.append(t)
        xs.append(y[:n])
        vs.append(y[n:])
        accs.append(K[0][n:])
        accepted += 1
        if adaptive:
            max_err = max(max_err, err)
            factor = safety * (err ** -k_i if err > 0.0 else 10.0) * (err_prev ** k_p)
            err_prev = max(err, _DOP_PREV_FLOOR)
            h = min(max(h * min(max(factor, 0.2), 5.0), opts.h_min), opts.h_max)
    return Trajectory(np.array(ts), np.array(xs), np.array(vs), np.array(accs),
                      accepted, rejected, max_err, term, nfev, rejected_guard,
                      _Interpolant(rhs, kept) if kept else None)


def _error_norm(h: float, K: list, y: list, y_new: list,
                abs_tol: float, rel_tol: float) -> float:
    """h times DOP853's scaled error, the blend
    |e5|^2 / sqrt(N (|e5|^2 + 0.01 |e3|^2)) of its 5th- and 3rd-order estimates."""
    zero = [0.0] * len(y)
    sums = []
    for e in _DOP_ERRORS:
        sq = 0.0
        for d, p, q in zip(_combine(zero, 1.0, K, e), y, y_new):
            r = d / (abs_tol + rel_tol * max(abs(p), abs(q)))
            sq += r * r
        sums.append(sq)
    sq5, sq3 = sums
    if sq5 == 0.0 and sq3 == 0.0:
        return 0.0
    return h * sq5 / math.sqrt((sq5 + 0.01 * sq3) * len(y))


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


@dataclass
class _Interpolant:
    """DOP853's 7th-order dense output of one trajectory, built on first use."""

    rhs: RhsFn
    # per accepted step: h, then the 2n-float stages 5-11; stages 1-4 enter
    # neither the extra stages nor D, and stages 0 and 12 are the trajectory's
    # (v, a) at the step's two ends
    kept: array | None
    coeffs: np.ndarray | None = None   # (steps, 7, 2n) once built


def _dense_coefficients(traj: Trajectory) -> np.ndarray:
    """The interpolant's F_0..F_6 on every step, evaluating the three extra
    stages per step once and counting them in traj.nfev.  A step whose extra
    stages fail the guard or overflow keeps F_3..F_6 = 0, its cubic Hermite."""
    dense = traj.dense
    if dense.coeffs is None:
        nodes, rows, d_rows = _DOP_DENSE
        n = traj.x.shape[1]
        cubic = [[0.0] * (2 * n)] * len(d_rows)
        ts = traj.t.tolist()
        ys = np.hstack([traj.x, traj.v]).tolist()
        derivs = np.hstack([traj.v, traj.a]).tolist()
        kept = np.frombuffer(dense.kept).reshape(len(ts) - 1, 1 + 14 * n).tolist()
        out = []
        for k, (h, *mid) in enumerate(kept):
            t, y, y_new = ts[k], ys[k], ys[k + 1]
            K = [derivs[k], None, None, None, None,
                 *(mid[j:j + 2 * n] for j in range(0, 14 * n, 2 * n)), derivs[k + 1]]
            try:
                for c, row in zip(nodes, rows):
                    yi = _combine(y, h, K, row)
                    traj.nfev += 1
                    K.append(yi[n:] + [*map(float, dense.rhs(t + c * h, yi[:n], yi[n:]))])
                high = [_combine(cubic[0], h, K, d) for d in d_rows]
            except _GUARDABLE:
                high = cubic
            if not all(math.isfinite(f) for fs in high for f in fs):
                high = cubic
            dy = [q - p for p, q in zip(y, y_new)]
            out.append([dy, [h * f - d for f, d in zip(K[0], dy)],
                        [2 * d - h * (f1 + f0) for d, f0, f1 in zip(dy, K[0], K[12])], *high])
        dense.coeffs, dense.kept = np.array(out), None
    return dense.coeffs


def sample_dense(traj: Trajectory, t_eval: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities at arbitrary times inside the trajectory span.

    A DOP853 trajectory evaluates its 7th-order interpolant.  Otherwise
    positions interpolate cubically with velocities as slopes, and
    velocities with the stored accelerations as slopes.
    """
    tq = np.asarray(t_eval, dtype=float)
    if np.any(tq < traj.t[0] - 1e-12) or np.any(tq > traj.t[-1] + 1e-12):
        raise InvalidParameter("t_eval", "outside the trajectory time span")
    idx = np.clip(np.searchsorted(traj.t, tq, side="right") - 1, 0, len(traj.t) - 2)
    h = traj.t[idx + 1] - traj.t[idx]
    theta = np.where(h > 0, (tq - traj.t[idx]) / np.where(h > 0, h, 1.0), 0.0)
    th = theta[:, None]
    if traj.dense is not None:
        # y0 + th (F0 + (1-th) (F1 + th (F2 + (1-th) (F3 + ... + th F6))))
        F = _dense_coefficients(traj)[idx]
        acc = F[:, 6]
        for j in range(5, -1, -1):
            acc = F[:, j] + (th if j % 2 else 1.0 - th) * acc
        n = traj.x.shape[1]
        y = np.concatenate([traj.x[idx], traj.v[idx]], axis=1) + th * acc
        return y[:, :n], y[:, n:]
    hh = h[:, None]
    x = _hermite(th, traj.x[idx], traj.v[idx], traj.x[idx + 1], traj.v[idx + 1], hh)
    v = _hermite(th, traj.v[idx], traj.a[idx], traj.v[idx + 1], traj.a[idx + 1], hh)
    return x, v


# --- period estimation ------------------------------------------------------------


def _refine_crossing(traj: Trajectory, coord: int, k: int, level: float) -> float:
    """Root of x_coord(t) - level inside [t_k, t_{k+1}] via the dense output."""
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
    refined on the dense output.  Returns the mean of the consecutive
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
