"""The per-point closures against the code paths they replaced.

A NonlocalMap's point closure, a PotentialSpec's energy closure and the
closed forms evaluated on Python floats must return exactly what the
layered evaluations returned (the map and the energy), or agree with the
numpy evaluation to rounding (the inverse-square closed forms), and raise
where those raised.
"""

import math

import numpy as np
import pytest

from pdmdyn.core import VECTORS, build_system, parameter_set, potential_energy
from pdmdyn.errors import DomainViolation, InvalidSpec, SingularPoint
from pdmdyn.exact import ExactSolutionSpec, kinematics
from pdmdyn.families import FAMILIES, _sqrt_shape
from pdmdyn.transform import f_scale, q_map, reference_map

# family, parameters at n = 3 (n < 3 takes the leading entries), a box inside
# every coordinate's domain, and a point outside it (None: the real line)
MAPPED = {
    "ml1+": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "+"},
             (-3.0, 3.0), None),
    "ml1-": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "-"},
             (-1.25, 1.25), 1.3),
    "ml2": ("ml2", {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "-",
                    "eta_const": [1.5, -2.5, 3.0]}, (-1.9, 1.9), -2.0),
    "powerlaw": ("powerlaw", {"omega": [1.0, 1.7, 0.6], "alpha": 1.2, "upsilon": 1.5},
                 (0.05, 2.5), 0.0),
    "morse": ("morse", {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
              (-1.5, 1.5), None),
    "sw1+": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.5, "sign": "+",
                     "kappa": [0.3, 0.8, 0.5]}, (0.1, 2.5), None),
    "sw1-": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.3, "sign": "-",
                     "kappa": [0.3, 0.8, 0.5]}, (0.1, 1.8), -1.9),
    "sw2": ("sw2", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3], "beta": 1.3,
                    "eta_exp": -1.0}, (0.1, 2.5), -0.5),
}
CASES = [(name, n) for name in MAPPED for n in (1, 2, 3)]


def _system(name, n):
    family, params, _, _ = MAPPED[name]
    return build_system(family, n, {k: v[:n] if k in VECTORS else v
                                    for k, v in params.items()})


def _layered(nmap, i, x):
    """(q, dq/dx, f, m) as q_map and f_scale computed them, one mass
    evaluation each."""
    p, record = nmap.params, nmap.record
    m, m1, _ = nmap.profiles[i].eval(x)
    root = math.sqrt(m)
    f = record.f(p, i, x, m1 / (2.0 * m))
    return record.q(p, i, x, root), f * root, f, m


def test_every_mapped_family_is_covered():
    assert {family for family, *_ in MAPPED.values()} == {
        name for name, record in FAMILIES.items() if record.mapped}


@pytest.mark.parametrize("name,n", CASES)
def test_map_closure_equals_the_layered_map(name, n):
    system = _system(name, n)
    nmap, _ = reference_map(system)
    lo, hi = MAPPED[name][2]
    for i, point in enumerate(nmap.points):
        for x in np.linspace(lo, hi, 41).tolist():
            got = point(x)
            assert got == _layered(nmap, i, x), (i, x)
            assert got[:2] == q_map(nmap, i, x) and got[2] == f_scale(nmap, i, x)
            assert got[3] == system.profiles[i].eval(x)[0]


@pytest.mark.parametrize("name,n", CASES)
def test_map_closure_raises_the_profile_error(name, n):
    nmap, _ = reference_map(_system(name, n))
    outside = MAPPED[name][3]
    for i, point in enumerate(nmap.points):
        for x in [math.nan] + ([] if outside is None else [outside]):
            with pytest.raises(DomainViolation) as want:
                nmap.profiles[i].eval(x)
            for fn in (point, lambda x: q_map(nmap, i, x), lambda x: f_scale(nmap, i, x)):
                with pytest.raises(DomainViolation) as got:
                    fn(x)
                assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,n", CASES)
def test_energy_closure_sums_the_compiled_terms(name, n):
    system = _system(name, n)
    lo, hi = MAPPED[name][2]
    rng = np.random.default_rng(n)
    for x in rng.uniform(lo, hi, (50, n)).tolist():
        total = 0.0
        for term, xi in zip(system.potential.compiled, x):
            total += term(xi, 1.0)[0]
        assert system.potential.energy(x) == total == potential_energy(system, np.array(x))


class TestEnergyClosureChecks:
    def test_isotonic_pole_is_a_singular_point(self):
        energy = build_system("isotonic", 2, {"omega": [1.0, 2.0],
                                              "kappa": [1.0, 0.5]}).potential.energy
        with pytest.raises(SingularPoint) as err:
            energy([0.7, 0.0])
        assert err.value.coordinate == 1

    @pytest.mark.parametrize("name,x,coordinate", [("ml1-", [0.2, 1.3], 1),
                                                   ("powerlaw", [-0.5, 1.0], 0),
                                                   ("sw2", [1.0, math.nan], 1)])
    def test_outside_the_domain_is_a_domain_violation(self, name, x, coordinate):
        with pytest.raises(DomainViolation) as err:
            _system(name, 2).potential.energy(x)
        assert err.value.coordinate == coordinate

    def test_overflowing_potential_is_a_domain_violation(self):
        energy = build_system("harmonic", 2, {"omega": [1.0, 2.0]}).potential.energy
        with pytest.raises(DomainViolation, match="not finite"):
            energy([1.0, 1e200])


# --- the inverse-square closed forms on floats ------------------------------------


def _sqrt_shape_numpy(theta_dot, num_s, num_c, denom, rho, t, phase):
    """The closed form's shape on one-element numpy arrays, the reference for
    the float version; numpy's power rounds differently from libm's."""
    th = theta_dot * np.array([t]) + phase
    s2 = np.sin(th) ** 2
    u = (num_c + (num_s - num_c) * s2) / denom
    ud = (num_s - num_c) * np.sin(2.0 * th) * theta_dot / denom
    udd = (num_s - num_c) * 2.0 * np.cos(2.0 * th) * theta_dot ** 2 / denom
    x = u ** rho
    xd = rho * u ** (rho - 1.0) * ud
    xdd = rho * (rho - 1.0) * u ** (rho - 2.0) * ud * ud + rho * u ** (rho - 1.0) * udd
    return x[0], xd[0], xdd[0]


@pytest.mark.parametrize("rho", [0.5, 0.25, -0.5, -0.25])
def test_sqrt_shape_matches_the_numpy_evaluation(rho):
    rng = np.random.default_rng(7)
    theta_dot, num_s, num_c, denom = 1.3, 2.1, 0.7, 1.7
    ts = rng.uniform(-20.0, 20.0, 2000).tolist()
    got = np.array([_sqrt_shape(theta_dot, num_s, num_c, denom, rho, t, 0.4) for t in ts])
    want = np.array([_sqrt_shape_numpy(theta_dot, num_s, num_c, denom, rho, t, 0.4)
                     for t in ts])
    # a few ulps of each column's scale: xddot sums two terms that cancel
    # near its zeros, where the last bits move but not the scale
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


TINY = [("isotonic", {"omega": [1.0], "kappa": [1.0]}, "published")] + [
    ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": eta}, variant)
    for eta in (2.0, -1.0) for variant in ("published", "amended")]


@pytest.mark.parametrize("family,params,variant", TINY)
@pytest.mark.parametrize("t", [0.0, 0.3, 1e10])
def test_non_finite_closed_form_is_an_invalid_spec(family, params, variant, t):
    spec = ExactSolutionSpec(family, parameter_set(params, 1), (1e-160,), variant=variant)
    with pytest.raises(InvalidSpec):
        kinematics(spec, t)


@pytest.mark.parametrize("variant", ["published", "amended"])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_overflow_hidden_by_a_negative_exponent_is_an_invalid_spec(variant, t):
    # u overflows, x = u^(-1/2) reads 0 and the velocity and acceleration stay
    # finite: every returned value is finite, and none of it is the orbit
    params = {"omega": [0.01], "kappa": [1.0], "beta": 1.0, "eta_exp": -1.0}
    spec = ExactSolutionSpec("sw2", parameter_set(params, 1), (1e-153,), variant=variant)
    with pytest.raises(InvalidSpec, match="not finite"):
        kinematics(spec, t)


def test_overflowing_acceleration_is_an_invalid_spec():
    # x and xdot are finite at t = 0; xddot = -A omega^2 overflows to -inf
    spec = ExactSolutionSpec("harmonic", parameter_set({"omega": [1e200]}, 1), (1.0,))
    with pytest.raises(InvalidSpec, match="not finite"):
        kinematics(spec, 0.0)
