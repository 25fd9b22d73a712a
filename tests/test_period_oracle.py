"""Independent period oracle: each catalog frequency relation against quadrature.

Each family's mass m(x) and potential V(x) are written afresh here in mpmath,
not read from ``families``.  The energy E comes from one point of the closed
form, the turning points are roots of E - V(x), and the period of the
position is T = 2 * integral of sqrt(m / (2 (E - V))) dx between them, with
x = c + r sin(theta) so that the integrand stays finite at both ends.  For
the power law, whose every orbit reaches the origin, the time from the
turning point to the origin is compared with the quarter period.  Draws are
seeded, at n = 2 and 3 with distinct parameters per coordinate.
"""

import math

import numpy as np
import pytest

from pdmdyn.core import parameter_set
from pdmdyn.errors import InvalidSpec
from pdmdyn.exact import AMENDED_FORM, ExactSolutionSpec, exact_solution, oscillation_period

mp = pytest.importorskip("mpmath").mp

DPS = 20
REL_TOL = 1e-12


def _mass_and_potential(family, p, i):
    """(m, V, domain) of coordinate i, each a function of an mpf x."""
    w, s = mp.mpf(p.omega[i]), (1 if p.sign == "+" else -1)
    lam = mp.mpf(p.lam) if p.lam is not None else None
    if family in ("ml1", "ml2", "sw1"):
        def m(x):
            return 1 / (1 + s * lam * x * x)
        bound = 1 / mp.sqrt(lam) if s < 0 else mp.inf
        domain = (0, bound) if family == "sw1" else (-bound, bound)
        if family == "ml1":
            return m, lambda x: w * w * x * x * m(x) / 2, domain
        if family == "ml2":
            eta = mp.mpf(p.eta_const[i])
            return m, lambda x: w * w * eta * eta * m(x) / 2, domain
        k = mp.mpf(p.kappa[i])
        return m, lambda x: (w * w * x * x * m(x) + k / (m(x) * x * x)) / 2, domain
    if family == "powerlaw":
        a, u = mp.mpf(p.alpha), mp.mpf(p.upsilon)
        return (lambda x: a * a * x ** (2 * u),
                lambda x: w * w * a * a * x ** (2 * u + 2) / 2, (0, mp.inf))
    if family == "morse":
        z = mp.mpf(p.zeta[i])
        return (lambda x: mp.exp(2 * z * x),
                lambda x: w * w * (mp.exp(z * x) - 1) ** 2 / 2, (-mp.inf, mp.inf))
    if family == "isotonic":
        k = mp.mpf(p.kappa[i])
        return lambda x: mp.one, lambda x: (w * w * x * x + k / (x * x)) / 2, (0, mp.inf)
    if family == "sw2":
        b, e, k = mp.mpf(p.beta), mp.mpf(p.eta_exp), mp.mpf(p.kappa[i])
        return (lambda x: b * b * x ** (2 * e - 2),
                lambda x: (w * w * b * b * x ** (2 * e) + k / (b * b * x ** (2 * e))) / 2,
                (0, mp.inf))
    raise AssertionError(family)


def _turning_point(gap, x0, edge):
    """The root of gap (positive at x0) between x0 and the domain edge."""
    inside = x0
    for k in range(1, 200):
        if mp.isinf(edge):
            probe = x0 + mp.sign(edge) * (abs(x0) + 1) * (2 ** k - 1) / 16
        else:
            probe = edge - (edge - x0) / mp.mpf(2) ** k
        if gap(probe) < 0:
            return mp.findroot(gap, (inside, probe), solver="anderson")
        inside = probe
    raise AssertionError(f"no turning point between {x0} and {edge}")


def _transit_time(m, gap, x, dx, pieces):
    """Integral of sqrt(m / (2 gap)) dx along x(theta), one method per piece.

    Near a turning point the integrand is smooth in theta, and Gauss-Legendre
    keeps its nodes away from the end, where E - V cancels to a few digits.
    At the power law's origin m^(1/2) ~ x^upsilon is singular but E - V is
    not small: tanh-sinh takes that piece.
    """
    def integrand(th):
        g = gap(x(th))
        return mp.sqrt(m(x(th)) / (2 * g)) * dx(th) if g > 0 else mp.zero
    return sum(mp.quad(integrand, span, method=method) for span, method in pieces)


def quadrature_period(spec, i):
    """Position period of coordinate i of the orbit through the closed form at
    t = 0.3 (t = 0 on the power law's branch, |phase| < 1); for the power law,
    four times the transit from the turning point to the origin."""
    with mp.workdps(DPS):
        m, V, (lo, hi) = _mass_and_potential(spec.family, spec.params, i)
        state = exact_solution(spec, 0.0 if spec.family == "powerlaw" else 0.3)
        x0, v0 = mp.mpf(float(state.x[i])), mp.mpf(float(state.v[i]))
        E = m(x0) * v0 * v0 / 2 + V(x0)

        def gap(x):
            return E - V(x)
        right = _turning_point(gap, x0, hi)
        if spec.family == "powerlaw":     # x = right sin(theta) from the origin
            quarter = _transit_time(m, gap, lambda th: right * mp.sin(th),
                                    lambda th: right * mp.cos(th),
                                    [([0, mp.pi / 4], "tanh-sinh"),
                                     ([mp.pi / 4, mp.pi / 2], "gauss-legendre")])
            return float(4 * quarter)
        left = _turning_point(gap, x0, lo)
        c, r = (right + left) / 2, (right - left) / 2
        half = _transit_time(m, gap, lambda th: c + r * mp.sin(th),
                             lambda th: r * mp.cos(th),
                             [([-mp.pi / 2, 0, mp.pi / 2], "gauss-legendre")])
        return float(2 * half)


def _draw(family, sign, n, rng):
    """A seeded spec of family at n coordinates, redrawn where the relation has
    no real frequency (sw1 '+' at small C)."""
    for _ in range(100):
        omega = rng.uniform(0.5, 2.5, n)
        amp = rng.uniform(0.2, 0.9, n) * rng.choice([-1.0, 1.0], n)
        params = {"omega": omega.tolist(), "sign": sign}
        variant = "published"
        if family in ("ml1", "ml2", "sw1"):
            params["lambda"] = lam = float(rng.uniform(0.2, 1.5))
            amp = amp / math.sqrt(lam) if sign == "-" else amp * 2.5   # '-': |A| < lam^-1/2
        if family == "ml2":     # the reduction case: lam = 1/eta_i^2 on every coordinate
            eta = 1.0 / math.sqrt(params["lambda"])
            params["eta_const"] = (eta * rng.choice([-1.0, 1.0], n)).tolist()
        if family == "powerlaw":
            params.update(alpha=float(rng.uniform(0.5, 2.0)),
                          upsilon=float(rng.choice([-0.4, 0.3, 2.5])))
            amp = np.abs(amp) * 2.0
        if family == "morse":
            params["zeta"] = rng.uniform(0.3, 2.0, n).tolist()
        if family in ("isotonic", "sw1", "sw2"):
            params["kappa"] = rng.uniform(0.2, 1.5, n).tolist()
            amp = np.abs(amp) * 1.5
        if family == "sw2":
            params.update(beta=float(rng.uniform(0.5, 2.0)),
                          eta_exp=float(rng.choice([-1.0, -0.5, 1.5, 2.0, 3.0])))
            variant = AMENDED_FORM
        phase = rng.uniform(-1.0, 1.0, n)
        try:
            return ExactSolutionSpec(family, parameter_set(params, n), tuple(amp.tolist()),
                                     tuple(phase.tolist()), variant)
        except InvalidSpec:
            continue
    raise AssertionError(f"no admissible draw for {family}{sign}")


CASES = [("ml1", "+"), ("ml1", "-"), ("ml2", "-"), ("powerlaw", None), ("morse", None),
         ("sw1", "+"), ("sw1", "-"), ("sw2", None), ("isotonic", None)]


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family, sign", CASES, ids=[f + (s or "") for f, s in CASES])
def test_period_matches_quadrature(family, sign, n):
    rng = np.random.default_rng([n, CASES.index((family, sign))])
    spec = _draw(family, sign, n, rng)
    periods = oscillation_period(spec)
    for i in range(n):
        T = quadrature_period(spec, i)
        assert abs(periods[i] - T) <= REL_TOL * T, (i, spec)
