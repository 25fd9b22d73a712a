"""Symbolic Euler-Lagrange oracle for the equations of motion.

sympy builds each Lagrangian from its definition,

    type1:  L = 1/2 sum_i m_i(x_i) xdot_i^2 - sum_i V_i(x_i)
    type2:  L = 1/2 m(x) |xdot|^2 - sum_i V_i(x_i),

solves d/dt dL/dxdot - dL/dx = 0 for xddot and lambdifies the result.  The
masses and potentials below are written in sympy from the paper's
definitions, and sympy differentiates them, so the oracle shares no formula
with ``families.py`` and no code with ``exprparse.py``.  el1_acceleration and
el2_acceleration must agree with it at seeded states inside each domain.
"""

import zlib

import numpy as np
import pytest

from pdmdyn.core import TYPE2, State, build_system
from pdmdyn.eom import el1_acceleration, el2_acceleration

sp = pytest.importorskip("sympy")

TOL = 1e-12     # relative, floored at 1
STATES = 200    # seeded states per case


def _ml(p, x):
    s = 1 if p["sign"] == "+" else -1
    return 1 / (1 + s * p["lambda"] * x ** 2)


def _oscillator(p, i, x, m):
    return p["omega"][i] ** 2 * m * x ** 2 / 2


def _inverse_square(p, i, x, m):
    return (p["omega"][i] ** 2 * m * x ** 2 + p["kappa"][i] / (m * x ** 2)) / 2


# family -> (p, i, x) -> (m_i, V_i) as sympy expressions in the symbol x
MODELS = {
    "ml1": lambda p, i, x: (_ml(p, x), _oscillator(p, i, x, _ml(p, x))),
    "ml2": lambda p, i, x: (_ml(p, x),
                            p["omega"][i] ** 2 * p["eta_const"][i] ** 2 * _ml(p, x) / 2),
    "powerlaw": lambda p, i, x: (
        p["alpha"] ** 2 * x ** (2 * p["upsilon"]),
        _oscillator(p, i, x, p["alpha"] ** 2 * x ** (2 * p["upsilon"]))),
    "morse": lambda p, i, x: (
        sp.exp(2 * p["zeta"][i] * x),
        _oscillator(p, i, 1 - sp.exp(-p["zeta"][i] * x), sp.exp(2 * p["zeta"][i] * x))),
    "sw1": lambda p, i, x: (_ml(p, x), _inverse_square(p, i, x, _ml(p, x))),
    "sw2": lambda p, i, x: (
        p["beta"] ** 2 * x ** (2 * (p["eta_exp"] - 1)),
        _inverse_square(p, i, x, p["beta"] ** 2 * x ** (2 * (p["eta_exp"] - 1)))),
    "harmonic": lambda p, i, x: (sp.Integer(1), _oscillator(p, i, x, 1)),
    "isotonic": lambda p, i, x: (sp.Integer(1), _inverse_square(p, i, x, 1)),
}


def _draw(rng, name, n):
    """Seeded parameters and a sampler of n positions inside the domain."""
    family, _, sign = name.partition(":")
    u = rng.uniform

    def signs():
        return rng.choice([-1.0, 1.0], n)

    p = {"omega": list(u(0.5, 2.0, n))}
    if sign:
        p.update({"lambda": float(u(0.2, 1.5)), "sign": sign})
    if family == "ml2":
        p["eta_const"] = list(u(0.5, 2.0, n) * signs())
    if family in ("sw1", "sw2", "isotonic"):
        p["kappa"] = list(u(0.3, 1.5, n))
    if family == "powerlaw":
        p.update({"alpha": float(u(0.5, 1.5)), "upsilon": float(u(-0.6, 2.5))})
    if family == "morse":
        p["zeta"] = list(u(0.3, 1.2, n))
    if family == "sw2":
        p.update({"beta": float(u(0.5, 1.5)), "eta_exp": float(u(1.2, 2.5) * signs()[0])})
    edge = 0.9 / np.sqrt(p["lambda"]) if sign == "-" else 2.5
    sample = {
        "ml1": lambda: u(-edge, edge, n),
        "ml2": lambda: u(-edge, edge, n),
        "sw1": lambda: u(0.2, edge, n) * signs(),
        "powerlaw": lambda: u(0.2, 2.5, n),
        "sw2": lambda: u(0.2, 2.5, n),
        "morse": lambda: u(-1.5, 1.5, n),
        "harmonic": lambda: u(-2.5, 2.5, n),
        "isotonic": lambda: u(0.2, 2.5, n) * signs(),
    }[family]
    return family, p, sample


def _accelerations(lagrangian, xs, vs):
    """xddot solving the Euler-Lagrange equations of L(xs, vs), lambdified."""
    n = len(xs)
    hess = sp.Matrix(n, n, lambda i, j: sp.diff(lagrangian, vs[i], vs[j]))
    rhs = sp.Matrix(n, 1, lambda i, _: sp.diff(lagrangian, xs[i]) - sum(
        sp.diff(lagrangian, vs[i], xs[j]) * vs[j] for j in range(n)))
    return sp.lambdify([*xs, *vs], list(hess.LUsolve(rhs)), "math")


def _symbols(n):
    return sp.symbols(f"x1:{n + 1}", real=True), sp.symbols(f"v1:{n + 1}", real=True)


def _worst(system, accel, oracle, states):
    worst = 0.0
    for x, v in states:
        got = accel(system, State.of(0.0, x, v))
        want = oracle(*x, *v)
        for a, b in zip(got, want):
            worst = max(worst, abs(a - float(b)) / max(abs(float(b)), 1.0))
    return worst


CATALOG = ["ml1:+", "ml1:-", "ml2:+", "ml2:-", "powerlaw", "morse",
           "sw1:+", "sw1:-", "sw2", "harmonic", "isotonic"]


def test_every_family_has_a_model():
    assert set(MODELS) == {name.partition(":")[0] for name in CATALOG}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", CATALOG)
def test_el1_matches_symbolic_euler_lagrange(name, n):
    rng = np.random.default_rng([n, zlib.crc32(name.encode())])
    family, params, sample = _draw(rng, name, n)
    xs, vs = _symbols(n)
    lagrangian = 0
    for i in range(n):
        m, V = MODELS[family](params, i, sp.Symbol("x"))
        lagrangian += (m * vs[i] ** 2 / 2 - V).subs(sp.Symbol("x"), xs[i])
    oracle = _accelerations(lagrangian, xs, vs)
    system = build_system(family, n, params)
    states = [(sample(), rng.uniform(-2.0, 2.0, n)) for _ in range(STATES)]
    assert _worst(system, el1_acceleration, oracle, states) <= TOL


# shared multiplier m(x1..xn) and per-coordinate potentials, as the CLI takes them
TYPE2_CASES = {
    "n1-rational": (["1/(1+0.8*x1^2)"], ["0.5*x^2"]),
    "n2-quadratic": (["1+x1^2+x2^2"], ["0.5*x^2", "0.3*x^4"]),
    "n2-exp-sin": (["exp(0.3*x1)*(2+sin(x2))"], ["0.5*1.7*x^2", "0.5*x^2+0.1*x^3"]),
    "n3-rational": (["1/(1+0.5*x1^2+0.3*x2^2+0.2*x3^2)"],
                    ["0.5*x^2", "0.4*x^2", "0.5*(x^2+1/x^2)"]),
    "n3-mixed": (["(1.5+sin(x1))*exp(0.2*x2-0.1*x3)+x3^2"],
                 ["cos(x)", "0.5*x^2", "exp(0.1*x)"]),
}


def _sympy(text, **names):
    return sp.sympify(text.replace("^", "**"), locals={"ln": sp.log, **names})


@pytest.mark.parametrize("name", sorted(TYPE2_CASES))
def test_el2_matches_symbolic_euler_lagrange(name):
    (mass,), potentials = TYPE2_CASES[name]
    n = len(potentials)
    xs, vs = _symbols(n)
    names = {f"x{i + 1}": xs[i] for i in range(n)}
    lagrangian = _sympy(mass, **names) * sum(v ** 2 for v in vs) / 2
    for i, text in enumerate(potentials):
        lagrangian -= _sympy(text, x=xs[i])
    oracle = _accelerations(lagrangian, xs, vs)
    system = build_system("custom", n, mass_exprs=[mass], potential_exprs=potentials,
                          kind=TYPE2)
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    states = [(rng.uniform(0.3, 2.0, n) * rng.choice([-1.0, 1.0], n),
               rng.uniform(-2.0, 2.0, n)) for _ in range(STATES)]
    assert _worst(system, el2_acceleration, oracle, states) <= TOL
