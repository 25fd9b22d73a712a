"""Symbolic oracle for the closed forms' velocity and acceleration.

Each family record states its closed form x_i(t) as one template; the
package compiles it with the dual numbers that also differentiate the
masses and potentials, so a slip in that arithmetic would reach the
equations of motion and the closed forms alike.  Here sympy reads the same
template, with coordinate i's values for A, phase, rate and the parameters,
differentiates it twice in t and evaluates the result at 30 digits.
kinematics must agree with it at seeded times, for every family, both sw2
variants and n = 1..3, with distinct per-coordinate parameters and non-zero
phases.  sympy shares no code with ``exprparse``.
"""

import zlib

import numpy as np
import pytest

from pdmdyn.core import ParameterSet, parameter_set
from pdmdyn.exact import ExactSolutionSpec, kinematics
from pdmdyn.families import AMENDED_FORM, FAMILIES, PUBLISHED_FORM

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

TOL = 1e-12     # relative, floored at each column's scale
TIMES = 20      # seeded times per case


def _draw(rng, family, sign, n):
    """Seeded parameters, amplitudes, phases and times inside every branch."""
    u = rng.uniform

    def signs():
        return rng.choice([-1.0, 1.0], n)

    p = {"omega": list(u(0.5, 2.0, n))}
    amplitude = u(0.3, 1.5, n)
    if sign:
        p.update({"lambda": float(u(0.2, 0.4)), "sign": sign})
    if sign == "-":
        amplitude = u(0.2, 0.9, n) / np.sqrt(p["lambda"])
    if family == "ml2":
        # the closed form exists only in the reduction lam = 1/eta^2
        p["eta_const"] = list(signs() / np.sqrt(p["lambda"]))
    if family in ("sw1", "sw2", "isotonic"):
        p["kappa"] = list(u(0.1, 0.4, n))
        amplitude = amplitude * signs() if family != "sw2" else amplitude
    if family == "powerlaw":
        p.update({"alpha": float(u(0.5, 1.5)), "upsilon": float(u(-0.6, 2.5))})
    if family == "morse":
        p["zeta"] = list(u(0.3, 1.2, n))
        amplitude = u(-0.8, 0.8, n)
    if family == "sw2":
        p.update({"beta": float(u(0.5, 1.5)), "eta_exp": float(u(1.2, 2.5) * signs()[0])})
    phase = u(-1.0, 1.0, n)
    times = u(-10.0, 10.0, TIMES)
    if family == "powerlaw":
        # every coordinate's (1+upsilon) omega_i t + phase_i inside (-pi/2, pi/2)
        phase = u(-0.3, 0.3, n)
        rate = (1.0 + p["upsilon"]) * max(p["omega"])
        times = u(-1.2, 1.2, TIMES) / rate
    return p, tuple(amplitude), tuple(phase), times


def _oracle(template, params, i, A, phase, rate):
    """The template's (x, xdot, xddot) in t, differentiated by sympy and
    evaluated by mpmath at 30 digits."""
    t = sp.Symbol("t", real=True)
    names = {"t": t, "A": sp.Float(A), "phase": sp.Float(phase), "rate": sp.Float(rate),
             "ln": sp.log}
    for name in ParameterSet.__dataclass_fields__:
        value = getattr(params, name)
        if name == "sign" and value is not None:
            value = 1.0 if value == "+" else -1.0
        elif isinstance(value, tuple):
            value = value[i]
        if value is not None:
            names[name] = sp.Float(value)
    x = sp.sympify(template.replace("^", "**"), locals=names)
    fn = sp.lambdify(t, [x, sp.diff(x, t), sp.diff(x, t, 2)], "mpmath")

    def at(time):
        with mpmath.workdps(30):
            return [float(v) for v in fn(mpmath.mpf(time))]
    return at


#: (family, sign of the 1 +- lam x^2 families, variant)
CASES = [("ml1", "+", PUBLISHED_FORM), ("ml1", "-", PUBLISHED_FORM),
         ("ml2", "-", PUBLISHED_FORM), ("powerlaw", None, PUBLISHED_FORM),
         ("morse", None, PUBLISHED_FORM), ("sw1", "+", PUBLISHED_FORM),
         ("sw1", "-", PUBLISHED_FORM), ("sw2", None, PUBLISHED_FORM),
         ("sw2", None, AMENDED_FORM), ("harmonic", None, PUBLISHED_FORM),
         ("isotonic", None, PUBLISHED_FORM)]


def test_every_family_is_a_case():
    assert set(FAMILIES) == {family for family, _, _ in CASES}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("family,sign,variant", CASES)
def test_kinematics_matches_the_symbolic_derivatives(family, sign, variant, n):
    rng = np.random.default_rng([n, zlib.crc32(f"{family}:{sign}:{variant}".encode())])
    params, amplitude, phase, times = _draw(rng, family, sign, n)
    spec = ExactSolutionSpec(family, parameter_set(params, n), amplitude, phase, variant)
    record = spec.record
    template = (record.amended_form if variant == AMENDED_FORM and record.amended_form
                else record.closed_form)
    oracles = [_oracle(template, spec.params, i, amplitude[i], phase[i], spec.frequency[i])
               for i in range(n)]
    got = np.array([np.array(kinematics(spec, float(t))).T for t in times])
    want = np.array([[oracle(float(t)) for oracle in oracles] for t in times])
    # (time, coordinate, derivative order): each column's scale floors the error's
    scale = np.maximum(np.abs(want), np.max(np.abs(want), axis=0))
    assert np.all(np.abs(got - want) <= TOL * scale)
