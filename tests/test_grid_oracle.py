"""The closed-form grid kernel against the per-sample generator it replaced.

``exact_trajectory`` and ``kinematics`` run every coordinate's closed form
in one generated loop over the times (``ExactSolutionSpec.grid``).  Before
that loop they ran a Python generator, kept here as the oracle: one
compiled closed-form kernel per coordinate, called time by time, coordinate
by coordinate, each after its branch check, then the pole and finiteness
checks, and every error inside re-raised as an InvalidSpec naming the time.
On every ``verify`` case and on n = 2 cases with distinct frequencies,
amplitudes and phases, both must give the same bits, and at the first
failing time the same error type, text, time and coordinate.
"""

import math
import operator

import numpy as np
import pytest

from pdmdyn import verify
from pdmdyn.core import Termination, Trajectory, _substitute, parameter_set
from pdmdyn.errors import DomainViolation, ExprError, InvalidSpec, PdmError
from pdmdyn.exact import (_CHUNK, ExactSolutionSpec, exact_solution, exact_trajectory,
                          kinematics, oscillation_period)
from pdmdyn.exprparse import compile_expression, parse_cached
from pdmdyn.families import AMENDED_FORM


def _oracle_values(spec, times):
    """x_i, xdot_i and xddot_i for each time in turn, coordinate by
    coordinate; at the first that fails, the InvalidSpec (or, off the
    record's branch, the DomainViolation) it owes."""
    record = spec.record
    template = (record.amended_form if spec.variant == AMENDED_FORM and record.amended_form
                else record.closed_form)
    forms = [(i, compile_expression(parse_cached(_substitute(
        template, spec.params, i, A=A, phase=phase, rate=rate), ("t",)), ("t",)), rate, phase)
        for i, (A, phase, rate) in enumerate(zip(spec.amplitude, spec.phase, spec.frequency))]
    family, branch, pole = spec.family, record.branch, record.pole
    for t in times:
        try:
            for i, kernel, rate, phase in forms:
                if branch and math.cos(rate * t + phase) <= 0.0:
                    raise DomainViolation(f"{family} closed form leaves its branch (cos <= 0)",
                                          t=t, coordinate=i)
                x, v, a = row = kernel(t, 1.0)
                if pole is not None and x == pole:
                    raise OverflowError(f"x = {x!r} is the pole: u is not finite")
                if not (math.isfinite(x) and math.isfinite(v) and math.isfinite(a)):
                    raise ArithmeticError(f"(x, xdot, xddot) = {row} is not finite")
                yield x
                yield v
                yield a
        except (ArithmeticError, ValueError, ExprError) as err:
            raise InvalidSpec(f"closed form fails at t={t!r}, amplitude {spec.amplitude}: "
                              f"{err}") from err


def _oracle_kinematics(spec, t):
    flat = np.array([*_oracle_values(spec, (t,))])
    return flat[0::3], flat[1::3], flat[2::3]


def _oracle_trajectory(spec, t0, t1, samples):
    samples = operator.index(samples)
    ts = np.linspace(t0, t1, samples)
    flat = np.fromiter(_oracle_values(spec, ts.tolist()), float, 3 * samples * spec.n)
    xs, vs, accs = flat.reshape(samples, spec.n, 3).transpose(2, 0, 1).copy()
    return Trajectory(ts, xs, vs, accs, samples, 0, 0.0, Termination("completed"))


def _solution_xv(spec, t):
    state = exact_solution(spec, t)
    return state.x, state.v


def _oracle_solution_xv(spec, t):
    return _oracle_kinematics(spec, t)[:2]


def _outcome(fn, *args):
    """Each array's shape, strides and bytes, or the error's type, text, time,
    coordinate and the type of its cause."""
    try:
        out = fn(*args)
    except PdmError as err:
        return (type(err), str(err), getattr(err, "t", None),
                getattr(err, "coordinate", None), type(err.__cause__))
    if isinstance(out, Trajectory):
        out = (out.t, out.x, out.v, out.a)
    return [(a.shape, a.strides, a.tobytes()) for a in out]


def _n2(family, params, amplitude, phase=(0.4, -0.7), variant="published"):
    """A two-coordinate spec: every vector parameter has distinct entries."""
    return ExactSolutionSpec(family, parameter_set(params, 2), amplitude, phase, variant)


_SW2 = {"omega": [1.0, 1.6], "kappa": [1.0, 0.5], "beta": 1.1}
N2 = {
    "ml1+": _n2("ml1", {"omega": [1.0, 2.0], "lambda": 0.6, "sign": "+"}, (1.0, 0.5)),
    "ml1-": _n2("ml1", {"omega": [1.0, 2.0], "lambda": 0.6, "sign": "-"}, (0.5, 1.0)),
    "ml2": _n2("ml2", {"omega": [1.0, 1.5], "lambda": 0.25, "sign": "-",
                       "eta_const": [2.0, -2.0]}, (1.0, 0.5)),
    "powerlaw": _n2("powerlaw", {"omega": [1.0, 1.7], "alpha": 1.2, "upsilon": 1.5},
                    (1.0, 0.5), (0.2, -0.3)),
    "morse": _n2("morse", {"omega": [1.0, 2.0], "zeta": [1.0, 2.0]}, (0.5, -0.3)),
    "sw1+": _n2("sw1", {"omega": [1.0, 2.0], "lambda": 0.5, "sign": "+",
                        "kappa": [0.3, 0.8]}, (1.0, 0.7)),
    "sw1-": _n2("sw1", {"omega": [1.3, 0.9], "lambda": 0.5, "sign": "-",
                        "kappa": [0.5, 0.2]}, (0.8, -0.6)),
    "sw2-eta-neg1": _n2("sw2", {**_SW2, "eta_exp": -1.0}, (1.2, 0.9)),
    "sw2-amended-eta2": _n2("sw2", {**_SW2, "eta_exp": 2.0}, (1.1, 0.8),
                            variant=AMENDED_FORM),
    "sw2-published-eta2": _n2("sw2", {**_SW2, "eta_exp": 2.0}, (1.1, 0.8)),
    "harmonic": _n2("harmonic", {"omega": [1.0, 2.5]}, (1.0, -0.5)),
    "isotonic": _n2("isotonic", {"omega": [1.0, 2.5], "kappa": [1.0, 0.4]}, (1.3, 0.6)),
}
# closed forms that fail: the second coordinate's acceleration overflows, its
# inverse-square form is not finite, its u overflows to the pole x = 0, and
# the power-law orbit leaves its branch within a quarter period
FAILING = {
    "overflow": _n2("harmonic", {"omega": [1.0, 1e200]}, (1.0, 2.0)),
    "not-finite": _n2("isotonic", {"omega": [1.0, 2.0], "kappa": [0.9, 0.4]}, (1.0, 1e-160)),
    "pole": _n2("sw2", {"omega": [1.0, 0.01], "kappa": [1.0, 1.0], "beta": 1.0,
                        "eta_exp": -1.0}, (1.2, 1e-153)),
    "off-branch": _n2("powerlaw", {"omega": [1.0, 1.7], "alpha": 1.2, "upsilon": 1.5},
                      (1.0, 0.5), (0.2, -0.3)),
}
SPECS = {**{f"case:{name}": case.spec() for name, case in verify.CASES.items()},
         **{f"n2:{name}": spec for name, spec in N2.items()},
         **{f"fails:{name}": spec for name, spec in FAILING.items()}}


def _grids(spec):
    """(t0, t1, samples): 3 periods from 0 and from a negative start, over
    more than two of exact_trajectory's chunks, an arc inside every branch,
    and a grid that ends at a time whose phase is infinite."""
    T = float(np.max(oscillation_period(spec)))
    arc = 0.2 / max(spec.frequency)
    return [(0.0, 3.0 * T, 301), (-1.3 * T, 1.7 * T, 2 * _CHUNK + 5), (-arc, arc, 41),
            (0.0, 0.0, 1), (1e300, 1.7e308, 3)]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_exact_trajectory_is_the_generator(name):
    spec = SPECS[name]
    for t0, t1, samples in _grids(spec):
        assert (_outcome(exact_trajectory, spec, t0, t1, samples)
                == _outcome(_oracle_trajectory, spec, t0, t1, samples)), (t0, t1, samples)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_kinematics_is_the_generator(name):
    spec = SPECS[name]
    T = float(np.max(oscillation_period(spec)))
    times = [0.0, 0.1 * T, 0.3 * T, -0.45 * T, 2.7 * T, 1e10, -40.0, 1.7e308,
             math.inf, math.nan, 3, np.float64(0.25 * T)]
    for t in times:
        assert _outcome(kinematics, spec, t) == _outcome(_oracle_kinematics, spec, t), t
    assert _outcome(_solution_xv, spec, 0.3) == _outcome(_oracle_solution_xv, spec, 0.3)


def test_the_cases_meet_every_outcome():
    """Values, the branch error, a pole, a non-finite triple, an error in the
    lines (an infinite phase) and an overflow are all reached."""
    kinds = set()
    for spec in SPECS.values():
        for t0, t1, samples in _grids(spec):
            out = _outcome(exact_trajectory, spec, t0, t1, samples)
            kinds.add("values" if isinstance(out, list) else (out[0], out[4]))
    assert kinds >= {"values", (DomainViolation, type(None)), (InvalidSpec, OverflowError),
                     (InvalidSpec, ArithmeticError), (InvalidSpec, ValueError)}
    messages = [_outcome(exact_trajectory, spec, 0.0, 3.0, 31)[1]
                for spec in FAILING.values()]
    assert any("is the pole" in m for m in messages)
    assert any("is not finite" in m and "(x, xdot, xddot)" in m for m in messages)


def test_a_branch_left_in_a_later_chunk():
    # cos(Omega t) <= 0 from t = pi/(2 Omega): 95% into the grid, its third chunk
    spec = SPECS["case:powerlaw-1"]
    quarter = 0.5 * math.pi / spec.frequency[0]
    grid = (-0.9 * quarter, 1.1 * quarter, 2 * _CHUNK + 5)
    out = _outcome(exact_trajectory, spec, *grid)
    assert out[0] is DomainViolation and out[2] > 0.9 * quarter
    assert out == _outcome(_oracle_trajectory, spec, *grid)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_the_first_failing_coordinate_is_named(n):
    # coordinate n - 1 alone leaves its branch, at the grid time 0.4 > pi/8
    omega = [0.25] * (n - 1) + [2.0]
    spec = ExactSolutionSpec("powerlaw", parameter_set(
        {"omega": omega, "alpha": 1.0, "upsilon": 1.0}, n), (1.0,) * n)
    with pytest.raises(DomainViolation) as err:
        exact_trajectory(spec, 0.0, 1.0, 11)
    assert (err.value.t, err.value.coordinate) == (0.4, n - 1)
    assert _outcome(exact_trajectory, spec, 0.0, 1.0, 11) == _outcome(
        _oracle_trajectory, spec, 0.0, 1.0, 11)
