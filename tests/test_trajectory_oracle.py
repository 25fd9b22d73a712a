"""High-precision trajectory oracle for systems with no closed form.

sympy derives each system's Euler-Lagrange equations from its Lagrangian,

    type1:  L = 1/2 sum_i m_i(x_i) xdot_i^2 - sum_i V_i(x_i)
    type2:  L = 1/2 m(x) |xdot|^2 - sum_i V_i(x_i),

as xddot = H^-1 (dL/dx - (d2L/dxdot dx) xdot) with H = d2L/dxdot^2, and
``mpmath.odefun`` integrates them at 25 digits over a short span.  The
masses and potentials are written in sympy, so the oracle shares no code
with ``eom`` or ``exprparse``.  ``integrate`` (DOP853, rel_tol 1e-12) must
agree with it at the end point, and ``sample_dense`` halfway through each
step, to 1e-10 relative, floored at 1.  The cases are the type1 n = 2 and
the type2 n = 2 and n = 3 systems of the benchmark's expression workload
and ``ml2`` at n = 2 with distinct ``eta_const``, which has no closed form.
"""

import numpy as np
import pytest

from pdmdyn.core import TYPE1, TYPE2, State, build_system
from pdmdyn.eom import el1_rhs, el2_rhs
from pdmdyn.integrate import DOP853, IntegratorOptions, integrate, sample_dense

sp = pytest.importorskip("sympy")
mpmath = pytest.importorskip("mpmath")

TOL = 1e-10       # relative, floored at 1
DIGITS = 25
T_END = 1.0
HALF = sp.Rational(1, 2)


def _ml2(x):
    """ml2 at omega (1, 3/2), lambda 1/2, '+' and eta_const (3/2, -5/2):
    m_i = 1/(1 + lambda x_i^2), V_i = omega_i^2 eta_i^2 m_i / 2."""
    masses = [1 / (1 + HALF * xi ** 2) for xi in x]
    params = [(1, sp.Rational(3, 2)), (sp.Rational(3, 2), -sp.Rational(5, 2))]
    return masses, [w ** 2 * eta ** 2 * m / 2 for m, (w, eta) in zip(masses, params)]


# name -> (system builder, (x0, v0), model): model(xs) gives the masses and
# potentials in sympy, n masses in x_i for type1, one mass in x_1..x_n for type2
CASES = {
    "type1-n2": (
        lambda: build_system("custom", 2, mass_exprs=["1+0.5*sin(x)^2", "exp(-0.25*x^2)+0.5"],
                             potential_exprs=["sqrt(1+x^2)-1", "0.5*x^2+0.1*ln(1+x^2)"]),
        ([0.5, -0.4], [0.3, 0.2]),
        lambda x: ([1 + HALF * sp.sin(x[0]) ** 2, sp.exp(-x[1] ** 2 / 4) + HALF],
                   [sp.sqrt(1 + x[0] ** 2) - 1,
                    HALF * x[1] ** 2 + sp.Rational(1, 10) * sp.log(1 + x[1] ** 2)])),
    "type2-n2": (
        lambda: build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2),
        ([0.4, -0.3], [0.7, 0.5]),
        lambda x: ([1 + x[0] ** 2 + x[1] ** 2], [0, 0])),
    "type2-n3": (
        lambda: build_system("custom", 3, mass_exprs=["2+sin(x1*x2)+0.5*x3^2"],
                             potential_exprs=["0.5*x^2"] * 3, kind=TYPE2),
        ([0.4, -0.3, 0.2], [0.3, 0.4, -0.2]),
        lambda x: ([2 + sp.sin(x[0] * x[1]) + HALF * x[2] ** 2], [HALF * xi ** 2 for xi in x])),
    "ml2-n2": (
        lambda: build_system("ml2", 2, {"omega": [1.0, 1.5], "lambda": 0.5, "sign": "+",
                                        "eta_const": [1.5, -2.5]}),
        ([0.5, -0.3], [0.2, 0.4]), _ml2),
}


def euler_lagrange(n: int, kind: str, model):
    """xddot(x, v) of the model's Lagrangian, lambdified to mpmath."""
    x, v = sp.symbols(f"x1:{n + 1}"), sp.symbols(f"v1:{n + 1}")
    masses, potentials = model(x)
    if kind == TYPE1:
        kinetic = sum(m * vi ** 2 for m, vi in zip(masses, v)) / 2
    else:
        kinetic = masses[0] * sum(vi ** 2 for vi in v) / 2
    lagrangian = kinetic - sum(potentials)
    momenta = [sp.diff(lagrangian, vi) for vi in v]
    hessian = sp.Matrix(n, n, lambda i, j: sp.diff(momenta[i], v[j]))
    force = sp.Matrix([sp.diff(lagrangian, x[i])
                       - sum(sp.diff(momenta[i], x[j]) * v[j] for j in range(n))
                       for i in range(n)])
    accel = list(hessian.LUsolve(force))
    return sp.lambdify((x, v), accel, modules="mpmath")


def _close(got, want) -> bool:
    return all(abs(g - float(w)) <= TOL * max(1.0, abs(float(w))) for g, w in zip(got, want))


@pytest.mark.parametrize("name", sorted(CASES))
def test_dop853_and_its_dense_output_follow_the_oracle(name):
    make, (x0, v0), model = CASES[name]
    system = make()
    n = system.n
    rhs = el2_rhs(system) if system.kind == TYPE2 else el1_rhs(system)
    traj = integrate(rhs, State.of(0.0, x0, v0),
                     IntegratorOptions(t_end=T_END, scheme=DOP853, rel_tol=1e-12, abs_tol=1e-14))
    assert traj.termination.kind == "completed"
    accel = euler_lagrange(n, system.kind, model)
    with mpmath.workdps(DIGITS):
        orbit = mpmath.odefun(lambda t, y: [*y[n:], *accel(y[:n], y[n:])], 0,
                              [mpmath.mpf(c) for c in (*x0, *v0)])
        end = orbit(T_END)
        assert _close([*traj.x[-1], *traj.v[-1]], end), (name, traj.x[-1], end[:n])
        # halfway through each step: the interpolant, not a node
        mids = 0.5 * (traj.t[1:] + traj.t[:-1])
        xs, vs = sample_dense(traj, mids)
        for t, x, v in zip(mids, xs, vs):
            assert _close([*x, *v], orbit(t)), (name, t)
    assert len(mids) >= 5 and np.all(np.diff(traj.t) > 0.0)
