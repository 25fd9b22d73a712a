"""Equation-of-motion right-hand sides and the residual oracle."""

import math
import struct
from functools import lru_cache, partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pdmdyn import exprparse
from pdmdyn.core import (TYPE1, TYPE2, PdmSystem, PotentialSpec, State, build_system,
                         kinetic_energy, parameter_set, potential_gradient, total_energy)
from pdmdyn.eom import el1_acceleration, el1_residual, el1_rhs, el2_acceleration, el2_rhs
from pdmdyn.errors import (DomainViolation, ExprDomainError, InvalidParameter,
                           MissingParameter, SingularCoefficient, SingularPoint)
from pdmdyn.exact import ExactSolutionSpec, kinematics
from pdmdyn.integrate import IntegratorOptions, integrate, sample_dense
from pdmdyn.exprparse import eval_gradient
from pdmdyn.profiles import REAL_LINE, CoupledProfile, CustomProfile
from pdmdyn.transform import el2_mapped_residual, el2_obstruction, elg_residual, reference_map


def ml1_system(sign="+", lam=1.0, omega=1.0):
    return build_system("ml1", 1, {"omega": [omega], "lambda": lam, "sign": sign})


class TestEl1:
    def test_ml1_turning_point(self):
        a = el1_acceleration(ml1_system(), State.of(0, [1.0], [0.0]))
        assert a[0] == pytest.approx(-0.5)

    def test_origin_is_force_free(self):
        a = el1_acceleration(ml1_system(), State.of(0, [0.0], [5.0]))
        assert a[0] == 0.0

    def test_powerlaw_origin_singular(self):
        system = build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.0,
                                              "upsilon": 1.0})
        with pytest.raises(SingularCoefficient):
            el1_acceleration(system, State.of(0, [0.0], [1.0]))

    def test_acceleration_even_in_velocity(self):
        system = ml1_system()
        rng = np.random.default_rng(5)
        for _ in range(100):
            x, v = rng.uniform(-2, 2), rng.uniform(-3, 3)
            a_plus = el1_acceleration(system, State.of(0, [x], [v]))
            a_minus = el1_acceleration(system, State.of(0, [x], [-v]))
            assert a_plus[0] == pytest.approx(a_minus[0], abs=1e-14)

    def test_requires_type1(self):
        system = build_system("custom", 1, mass_exprs=["1+x1^2"], kind=TYPE2)
        with pytest.raises(InvalidParameter):
            el1_acceleration(system, State.of(0, [0.0], [0.0]))

    def test_coordinates_decouple(self):
        system = build_system("ml1", 2, {"omega": [1.0, 2.0], "lambda": 1.0,
                                         "sign": "+"})
        a2 = el1_acceleration(system, State.of(0, [0.5, 0.7], [0.1, -0.2]))
        for i, (w, x, v) in enumerate([(1.0, 0.5, 0.1), (2.0, 0.7, -0.2)]):
            sub = build_system("ml1", 1, {"omega": [w], "lambda": 1.0, "sign": "+"})
            a1 = el1_acceleration(sub, State.of(0, [x], [v]))
            assert a2[i] == pytest.approx(a1[0], abs=1e-15)


class TestEl2:
    def test_collapses_to_el1_at_n1(self):
        s1 = build_system("custom", 1, mass_exprs=["1/(1+x^2)"],
                          potential_exprs=["0.5*x^2/(1+x^2)"])
        s2 = build_system("custom", 1, mass_exprs=["1/(1+x1^2)"],
                          potential_exprs=["0.5*x^2/(1+x^2)"], kind=TYPE2)
        rng = np.random.default_rng(9)
        for _ in range(200):
            st = State.of(0, [rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            assert el2_acceleration(s2, st)[0] == pytest.approx(
                el1_acceleration(s1, st)[0], abs=1e-12)

    def test_constant_mass_reduces_to_newton(self):
        system = build_system("custom", 2, mass_exprs=["1"],
                              potential_exprs=["0.5*x^2", "2*x^2"], kind=TYPE2)
        a = el2_acceleration(system, State.of(0, [1.0, 1.0], [0.3, -0.4]))
        assert a == pytest.approx([-1.0, -4.0])

    def test_coupled_probe_state(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
        a = el2_acceleration(system, State.of(0, [1.0, 0.0], [0.0, 1.0]))
        assert a == pytest.approx([0.5, 0.0])


class TestReference:
    """The reference oscillators are the catalog unit-mass systems."""

    def test_harmonic(self):
        ref = build_system("harmonic", 1, {"omega": [1.0]})
        assert el1_acceleration(ref, State.of(0, [1.0], [0.7])) == pytest.approx([-1.0])

    def test_isotonic_equilibrium(self):
        ref = build_system("isotonic", 1, {"omega": [1.0], "kappa": [1.0]})
        assert el1_acceleration(ref, State.of(0, [1.0], [0.7])) == pytest.approx([0.0])

    def test_isotonic_singular_at_origin(self):
        ref = build_system("isotonic", 1, {"omega": [1.0], "kappa": [1.0]})
        with pytest.raises(SingularPoint):
            el1_acceleration(ref, State.of(0, [0.0], [0.0]))

    def test_validation(self):
        with pytest.raises(MissingParameter):
            build_system("isotonic", 1, {"omega": [1.0]})
        with pytest.raises(InvalidParameter):
            build_system("harmonic", 1, {"omega": [-1.0]})


class TestResidualOracle:
    def test_exact_solution_passes(self):
        spec = ExactSolutionSpec("ml1", parameter_set(
            {"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1), (1.0,))
        system = ml1_system()
        for t in np.linspace(0, 17.8, 100):
            r = el1_residual(system, partial(kinematics, spec), float(t))
            assert abs(r[0]) < 1e-10

    def test_perturbed_amplitude_detected(self):
        system = ml1_system()
        Om = 1.0 / math.sqrt(2.0)

        def detuned(t):
            A = 1.1
            return (np.array([A * math.cos(Om * t)]),
                    np.array([-A * Om * math.sin(Om * t)]),
                    np.array([-A * Om * Om * math.cos(Om * t)]))

        worst = max(abs(el1_residual(system, detuned, float(t))[0])
                    for t in np.linspace(0, 8.9, 100))
        assert worst > 1e-2

    def test_wrong_ansatz_rejected(self):
        system = build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.0,
                                              "upsilon": 1.0})

        def plain_cosine(t):
            return (np.array([math.cos(t) + 1.5]),  # offset keeps x > 0
                    np.array([-math.sin(t)]),
                    np.array([-math.cos(t)]))

        r = el1_residual(system, plain_cosine, 0.3)
        assert abs(r[0]) > 1e-2


# --- the right-hand sides against the array API, the layered formula and ------
# --- the per-coordinate closure ------------------------------------------------

# catalog family -> (parameters besides omega, box of in-domain positions)
CATALOG = {
    "ml1+": ("ml1", {"lambda": 0.8, "sign": "+"}, (-2.5, 2.5)),
    "ml1-": ("ml1", {"lambda": 0.8, "sign": "-"}, (-1.0, 1.0)),
    "ml2+": ("ml2", {"lambda": 0.8, "sign": "+", "eta_const": 1.3}, (-2.5, 2.5)),
    "ml2-": ("ml2", {"lambda": 0.8, "sign": "-", "eta_const": -0.7}, (-1.0, 1.0)),
    "powerlaw": ("powerlaw", {"alpha": 1.2, "upsilon": 1.5}, (0.2, 2.5)),
    "morse": ("morse", {"zeta": 0.7}, (-1.5, 1.5)),
    "sw1+": ("sw1", {"lambda": 0.8, "sign": "+", "kappa": 0.9}, (0.2, 2.5)),
    "sw1-": ("sw1", {"lambda": 0.8, "sign": "-", "kappa": 0.9}, (0.2, 1.0)),
    "sw2": ("sw2", {"beta": 1.1, "eta_exp": 1.7, "kappa": 0.9}, (0.2, 2.5)),
    "harmonic": ("harmonic", {}, (-2.5, 2.5)),
    "isotonic": ("isotonic", {"kappa": 0.9}, (0.2, 2.5)),
}

# the custom systems of the benchmark's expression workload: (mass, potential)
CUSTOM1 = {
    "twin-ml1+": (["1/(1+x^2)"], ["0.5*x^2/(1+x^2)"]),
    "type1-n2": (["1+0.5*sin(x)^2", "exp(-0.25*x^2)+0.5"],
                 ["sqrt(1+x^2)-1", "0.5*x^2+0.1*ln(1+x^2)"]),
}
CUSTOM2 = {
    "type2-n2": (["1+x1^2+x2^2"], None),
    "type2-n3": (["2+sin(x1*x2)+0.5*x3^2"], ["0.5*x^2", "0.5*x^2", "0.5*x^2"]),
}


#: a custom type1 system whose powers have varying exponents
VARYING = (["(2+sin(x))^(0.5*cos(x))"], ["0.1*(1+x^2)^(1+0.2*x)"])


def closure_el1(system):
    """The per-coordinate closure el1_rhs was before its generated kernel: for
    each coordinate in turn, the checks, the potential's and the mass's
    order-1 kernels and the acceleration.  A mass or a term that reads no
    variable has m' or V' the known zero, whose product the kernel leaves
    out of the acceleration, so this leaves it out too (0.0 where both go)."""
    pot = system.potential
    (lo, hi), pole = pot.domain, pot.pole
    coords = tuple((i, p.coefficient_singularity, exprparse.compile_expression(e, order=1),
                    exprparse.compile_expression(p.expr, order=1), p.eval,
                    exprparse._reads_variable(p.expr), exprparse._reads_variable(e))
                   for i, (p, e) in enumerate(zip(system.profiles, pot.exprs)))

    def rhs(t, x, v):
        out = []
        for (i, singular, term, mass, profile, varying, forced), xi, vi in zip(coords, x, v):
            if xi == singular:
                raise SingularCoefficient(f"m'/m and 1/m diverge at x_{i + 1} = {xi!r}", i)
            if not lo < xi < hi or xi == pole:  # the profiles share this domain
                pot.energies((x,))  # raises the coordinate's error
            dv = term(xi, 1.0)[1]
            m, m1 = mass(xi, 1.0)
            if m < 0.0:
                profile(xi, 1)  # raises the negative-mass DomainViolation
            a = -(m1 / (2.0 * m)) * vi * vi if varying else None
            if forced:
                a = -(dv / m) if a is None else a - dv / m
            out.append(0.0 if a is None else a)
        return out
    return rhs


def gradient_passes(expr, names, values):
    """eval_gradient as it was before its one-call kernel: one call of the
    order-1 kernel per coordinate, seeded along it; the value is the first
    call's, or with no coordinates that of a call with no seeds."""
    fn = exprparse.compile_expression(expr, names, 1)
    n = len(names)
    args = [*values, *[0.0] * n]
    val = None if n else fn()[0]
    grad = []
    for i in range(n, 2 * n):
        args[i] = 1.0
        first, d1 = fn(*args)
        args[i] = 0.0
        grad.append(d1)
        if val is None:
            val = first
    return val, grad


def closure_el2(system):
    """The closure el2_rhs was before its generated kernel: the shared mass's
    value and gradient by gradient_passes and the m <= 0 check, then for
    each coordinate in turn its domain and pole check, its potential term's
    order-1 kernel and the acceleration."""
    profile, pot = system.coupled_profile, system.potential
    (lo, hi), pole = pot.domain, pot.pole
    terms = [exprparse.compile_expression(e, order=1) for e in pot.exprs]

    def rhs(t, x, v):
        m, gradm = gradient_passes(profile.expr, profile.names, x)
        if m <= 0.0:
            raise DomainViolation(f"coupled profile '{profile.text}' is {m!r} <= 0 at {list(x)!r}")
        mdot = v2 = 0.0
        for g, vi in zip(gradm, v):
            mdot += g * vi
            v2 += vi * vi
        out = []
        for term, xi, vi, g in zip(terms, x, v, gradm):
            if not lo < xi < hi or xi == pole:
                pot.energies((x,))  # raises the coordinate's error
            out.append(-(mdot / m) * vi + 0.5 * (g / m) * v2 - term(xi, 1.0)[1] / m)
        return out
    return rhs


def reference_el1(system, x, v):
    """The layered type1 formula: coefficient checks, the potential gradient,
    then each profile's checked value."""
    for i, profile in enumerate(system.profiles):
        if x[i] == profile.coefficient_singularity:
            raise SingularCoefficient("coefficient diverges", i)
    grad = potential_gradient(system, x)
    out = []
    for i, profile in enumerate(system.profiles):
        m, m1, _ = profile.eval(x[i])
        out.append(-(m1 / (2.0 * m)) * v[i] * v[i] - float(grad[i]) / m)
    return out


def reference_el2(system, x, v):
    """The shared-multiplier formula in array form."""
    m, gradm = system.coupled_profile.value_and_gradient(x)
    gradm, v = np.asarray(gradm), np.asarray(v)
    return -(gradm @ v / m) * v + 0.5 * (gradm / m) * (v @ v) - potential_gradient(system, x) / m


def catalog_system(name, n):
    family, params, _ = CATALOG[name]
    return build_system(family, n, {"omega": [1.0, 1.3, 0.7, 1.9][:n], **params})


def states(seed, box, n, count=100):
    rng = np.random.default_rng(seed)
    return [(rng.uniform(*box, n).tolist(), rng.uniform(-2.0, 2.0, n).tolist())
            for _ in range(count)]


class TestFusedRhs:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CATALOG))
    def test_catalog_closure_is_bit_identical(self, name, n):
        system = catalog_system(name, n)
        rhs, closure = el1_rhs(system), closure_el1(system)
        for x, v in states(n, CATALOG[name][2], n):
            got = rhs(0.0, x, v)
            assert all(type(a) is float for a in got) and len(got) == n
            assert got == el1_acceleration(system, State.of(0.0, x, v)).tolist()
            assert got == reference_el1(system, x, v)
            assert got == closure(0.0, x, v)

    @pytest.mark.parametrize("name", sorted(CUSTOM1))
    def test_custom_type1_closure_is_bit_identical(self, name):
        mass, potential = CUSTOM1[name]
        system = build_system("custom", len(mass), mass_exprs=mass, potential_exprs=potential)
        rhs = el1_rhs(system)
        for x, v in states(5, (-2.0, 2.0), system.n):
            got = rhs(0.0, x, v)
            assert got == el1_acceleration(system, State.of(0.0, x, v)).tolist()
            assert got == reference_el1(system, x, v)

    @pytest.mark.parametrize("name", sorted(CUSTOM2))
    def test_custom_type2_closure_is_bit_identical(self, name):
        mass, potential = CUSTOM2[name]
        n = int(name[-1])
        system = build_system("custom", n, mass_exprs=mass, potential_exprs=potential,
                              kind=TYPE2)
        rhs = el2_rhs(system)
        for x, v in states(6, (-2.0, 2.0), n):
            got = rhs(0.0, x, v)
            assert all(type(a) is float for a in got) and len(got) == n
            assert got == el2_acceleration(system, State.of(0.0, x, v)).tolist()
            assert got == closure_el2(system)(0.0, x, v)
            # the array form sums the dot products in its own order
            assert np.allclose(got, reference_el2(system, x, v), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("build,system", [
        ("el1_rhs", ml1_system()),
        ("el2_rhs", build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)),
    ])
    def test_accelerations_build_the_closure_once_per_system(self, monkeypatch, build,
                                                              system):
        from pdmdyn import eom
        built, real = [], getattr(eom, build)

        def counted(system):
            built.append(system)
            return real(system)
        counted.__name__ = build
        monkeypatch.setattr(eom, build, counted)
        acceleration = eom.el1_acceleration if build == "el1_rhs" else eom.el2_acceleration
        for x in (0.1, 0.2, 0.3):
            acceleration(system, State.of(0.0, [x] * system.n, [0.5] * system.n))
        if build == "el1_rhs":
            el1_residual(system, lambda t: ([0.1], [0.5], [0.0]), 0.0)
        assert len(built) == 1 and built[0] is system

    def test_closures_check_the_kind(self):
        with pytest.raises(InvalidParameter):
            el1_rhs(build_system("custom", 1, mass_exprs=["1+x1^2"], kind=TYPE2))
        with pytest.raises(InvalidParameter):
            el2_rhs(ml1_system())

    @pytest.mark.parametrize("system,x,error,coordinate", [
        # the '-' branch's domain edge, 1/sqrt(lambda), in the second coordinate
        (catalog_system("ml1-", 2), [0.5, 1 / math.sqrt(0.8)], DomainViolation, 1),
        (catalog_system("ml1-", 2), [-1.2, 0.5], DomainViolation, 0),
        # the inverse-square pole at 0
        (catalog_system("isotonic", 2), [0.5, 0.0], SingularPoint, 1),
        (catalog_system("sw1+", 3), [0.5, 0.7, 0.0], SingularPoint, 2),
        # the power law's coefficient singularity, on the closure of its domain
        (catalog_system("powerlaw", 2), [0.5, 0.0], SingularCoefficient, 1),
        (catalog_system("powerlaw", 2), [0.5, -0.1], DomainViolation, 1),
        # a custom mass that turns negative
        (build_system("custom", 2, mass_exprs=["1", "1-x^2"]), [0.5, 2.0], DomainViolation, None),
    ])
    def test_type1_errors_match(self, system, x, error, coordinate):
        v = [0.3] * system.n
        raised = []
        for call in (lambda: el1_rhs(system)(0.0, x, v),
                     lambda: el1_acceleration(system, State.of(0.0, x, v)),
                     lambda: reference_el1(system, x, v),
                     lambda: closure_el1(system)(0.0, x, v)):
            with pytest.raises(error) as err:
                call()
            raised.append(err.value.coordinate)
        assert raised == [coordinate] * 4

    def test_type2_negative_mass_matches(self):
        system = build_system("custom", 2, mass_exprs=["1-x1^2-x2^2"], kind=TYPE2)
        for call in (lambda: el2_rhs(system)(0.0, [2.0, 0.0], [0.1, 0.2]),
                     lambda: el2_acceleration(system, State.of(0.0, [2.0, 0.0], [0.1, 0.2])),
                     lambda: reference_el2(system, [2.0, 0.0], [0.1, 0.2]),
                     lambda: closure_el2(system)(0.0, [2.0, 0.0], [0.1, 0.2])):
            with pytest.raises(DomainViolation) as err:
                call()
            assert err.value.coordinate is None


# --- the generated type1 kernel against the per-coordinate closure -------------

def outcome(fn, *args):
    """The bytes of every float fn returns, or the type, message and
    coordinate of the exception it raises."""
    try:
        out = fn(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "coordinate", None)
    assert all(type(a) is float for a in out)
    return [struct.pack("<d", a) for a in out]


def nan_alike(got):
    """An outcome with every NaN read alike.  Where two NaNs of opposite sign
    meet, CPython's float operation returns the one its machine code puts
    first, and that order changes once the interpreter specializes the
    instruction after a few calls; so a NaN's sign is not a bit of the
    arithmetic."""
    if isinstance(got, tuple):
        return got
    return ["nan" if math.isnan(struct.unpack("<d", b)[0]) else b for b in got]


def fold_alike(got, want) -> bool:
    """Whether the outcome got is want, NaNs alike, but where the kernel's
    held seeds fold a product with a zero seed that the seeded passes
    compute: the sign of a zero, or a number where the passes have inf * 0."""
    got, want = nan_alike(got), nan_alike(want)
    if isinstance(got, tuple) or isinstance(want, tuple):
        return got == want
    zero = lambda b: b != "nan" and struct.unpack("<d", b) == (0.0,)  # noqa: E731
    return len(got) == len(want) and all(g == w or w == "nan" or zero(g) and zero(w)
                                         for g, w in zip(got, want))


@lru_cache(maxsize=None)
def parity_system(name, n):
    """A catalog family, or a custom type1 system with its expressions
    repeated over n coordinates; built once per (name, n)."""
    if name in CATALOG:
        return catalog_system(name, n)
    mass, potential = {**CUSTOM1, "varying-power": VARYING}[name]
    return build_system("custom", n, mass_exprs=[mass[i % len(mass)] for i in range(n)],
                        potential_exprs=[potential[i % len(potential)] for i in range(n)])


_PARITY = sorted(CATALOG) + sorted(CUSTOM1) + ["varying-power"]
#: positions off every box: singularities, poles, domain edges, overflows
_EDGES = [0.0, -0.0, 1.0, -1.0, 1 / math.sqrt(0.8), -1 / math.sqrt(0.8), math.nan,
          math.inf, -math.inf, 5e-324, 1100.0, -1100.0, 1e200]


@pytest.mark.parametrize("name", _PARITY)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_rhs_is_the_closure(name, data):
    n = data.draw(st.integers(1, 4), label="n")
    system = parity_system(name, n)
    box = CATALOG[name][2] if name in CATALOG else (-2.0, 2.0)
    xs = st.one_of(st.floats(*box), st.floats(*box), st.sampled_from(_EDGES),
                   st.floats(allow_nan=True, allow_infinity=True))
    vs = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e200, math.nan]))
    x = data.draw(st.lists(xs, min_size=n, max_size=n), label="x")
    v = data.draw(st.lists(vs, min_size=n, max_size=n), label="v")
    assert (nan_alike(outcome(el1_rhs(system), 0.0, x, v))
            == nan_alike(outcome(closure_el1(system), 0.0, x, v)))


#: (system, x, the error the generated right-hand side raises first, its coordinate)
FIRST_ERRORS = [
    # an expression's guard error in coordinate 0 comes before coordinate 1's check
    (build_system("custom", 2, mass_exprs=["1", "1"], potential_exprs=["ln(x)", "x"]),
     [-1.0, math.nan], ExprDomainError, None),
    (build_system("custom", 2, mass_exprs=["1", "1"], potential_exprs=["ln(x)", "x"]),
     [1.0, math.nan], DomainViolation, 1),
    # the mass's guard comes after the potential's
    (build_system("custom", 1, mass_exprs=["sqrt(x)"], potential_exprs=["1/x"]),
     [0.0], ExprDomainError, None),
    # m = 0 divides by zero in the acceleration line
    (build_system("custom", 2, mass_exprs=["1", "x^2"]), [0.5, 0.0], ZeroDivisionError, None),
    # a morse exp overflow in the second coordinate
    (catalog_system("morse", 2), [0.5, 1100.0], ExprDomainError, None),
    # its mass underflows to 0 far on the other side
    (catalog_system("morse", 2), [-1100.0, 0.5], ZeroDivisionError, None),
    # a failed check in coordinate 0 comes before coordinate 1's
    (catalog_system("isotonic", 2), [0.0, -1.0], SingularPoint, 0),
    (catalog_system("isotonic", 2), [-0.0, 0.5], SingularPoint, 0),
    (catalog_system("powerlaw", 3), [0.5, 0.0, math.nan], SingularCoefficient, 1),
    (catalog_system("ml1-", 2), [0.5, -math.inf], DomainViolation, 1),
    (build_system("custom", 2, mass_exprs=["1", "1-x^2"]), [0.5, -2.0], DomainViolation, None),
    # a coefficient singularity inside the domain, which no domain check catches
    (PdmSystem(2, TYPE1, (CustomProfile.from_text("1"),
                          CustomProfile.from_text("x^2", REAL_LINE, 0.0)),
               PotentialSpec("custom", parameter_set({}, 2), (exprparse.parse_cached("x"),) * 2)),
     [0.5, 0.0], SingularCoefficient, 1),
]


@pytest.mark.parametrize("system,x,error,coordinate", FIRST_ERRORS)
def test_generated_rhs_raises_the_closures_first_error(system, x, error, coordinate):
    v = [0.3] * system.n
    got = outcome(el1_rhs(system), 0.0, x, v)
    assert got == outcome(closure_el1(system), 0.0, x, v)
    assert got[0] is error and got[2] == coordinate


class TestCompiledOnce:
    """One generated kernel per (masses, potentials, singularities, domain,
    pole), compiled on the first call and read by every type1 path."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        seen, real = [], exprparse._compile_rhs
        monkeypatch.setattr(exprparse, "_compile_rhs",
                            lambda *key: seen.append(key) or real(*key))
        return seen

    # parameters no other test uses, so every expression is parsed afresh
    PARAMS = {"omega": [1.0625, 2.125], "lambda": 0.4375, "sign": "+"}

    def test_none_at_build_and_one_per_key(self, compiles):
        system = build_system("ml1", 2, self.PARAMS)
        assert compiles == []
        rhs = el1_rhs(system)
        assert len(compiles) == 1
        state = State.of(0.0, [0.5, 0.25], [0.125, -0.5])
        assert rhs(0.0, [0.5, 0.25], [0.125, -0.5]) == el1_acceleration(system, state).tolist()
        el1_residual(system, lambda t: ([0.5, 0.25], [0.125, -0.5], [0.0, 0.0]), 0.0)
        traj = integrate(el1_rhs(system), state, IntegratorOptions(t_end=1.0, rel_tol=1e-8))
        nfev = traj.nfev
        sample_dense(traj, [0.5])  # the dense output's extra stages call it too
        assert traj.nfev > nfev
        # a rebuilt system shares the parsed expressions and so the kernel
        again = build_system("ml1", 2, self.PARAMS)
        assert again.profiles[0].expr is system.profiles[0].expr
        assert el1_rhs(again)(0.0, [0.5, 0.25], [0.125, -0.5]) == rhs(0.0, [0.5, 0.25],
                                                                      [0.125, -0.5])
        assert len(compiles) == 1
        # another omega is another potential, so another key
        other = build_system("ml1", 2, {**self.PARAMS, "omega": [1.0625, 3.125]})
        el1_rhs(other)
        assert len(compiles) == 2
        masses, potentials = compiles[1][:2]
        assert masses == compiles[0][0] and potentials != compiles[0][1]

    def test_every_key_part_counts(self, compiles):
        mass, potential = (exprparse.parse_cached(t) for t in ("1+0.5625*x^2", "0.5625*x^2"))
        key = ((mass,), (potential,), (None,), (-math.inf, math.inf), None)
        first = exprparse.compile_rhs(*key)
        assert exprparse.compile_rhs(*key) is first
        for k, part in enumerate([(mass, mass), (mass,), (0.0,), (-1.0, 1.0), 0.0]):
            changed = [*key[:k], part, *key[k + 1:]]
            if k == 0:
                changed[1:3] = [(potential, potential), (None, None)]
            assert exprparse.compile_rhs(*changed) is not first
        assert len(compiles) == 6


# --- the generated type2 kernel against the closure ------------------------------

#: shared masses in x1 and {last}, the last variable (x1 itself at n = 1), or
#: in every variable ({sum}: x1+..+xn, {squares}: x1^2+..+xn^2): the
#: benchmark's two, two varying exponents, masses that reach 0, turn negative
#: or fail inside their own lines, a constant, and one whose derivative is a seed
TYPE2_MASSES = {
    "every": "1+{squares}+0.25*sin({sum})",
    "squares": "1+x1^2+{last}^2",
    "trig": "2+sin(x1*{last})+0.5*{last}^2",
    "varying-power": "x1^{last}+0.5",
    "varying-exponent": "(1+{last}^2)^(0.5*x1)",
    "disc": "1-x1^2-{last}^2",
    "product": "x1*{last}",
    "log": "ln(x1)+sqrt({last})",
    "constant": "1",
    "linear": "{last}",
}
#: potential terms, cycled over the coordinates; the last two fail inside their lines
TYPE2_POTENTIALS = ("0.5*x^2", "ln(1+x^2)", "1/x", "sqrt(x)")


@lru_cache(maxsize=None)
def type2_system(name, n, bounded):
    """A type2 system of the named mass over n coordinates, built once per
    (name, n, bounded).  bounded: the domain (-1.5, 1.5) and the pole 0, which
    no custom system states, with force-free potential terms."""
    names = [f"x{i + 1}" for i in range(n)]
    mass = TYPE2_MASSES[name].format(last=names[-1], sum="+".join(names),
                                     squares="+".join(f"{x}^2" for x in names))
    if not bounded:
        return build_system("custom", n, mass_exprs=[mass], kind=TYPE2,
                            potential_exprs=[TYPE2_POTENTIALS[i % 4] for i in range(n)])
    potential = PotentialSpec("custom", parameter_set({}, n),
                              (exprparse.parse_cached("0"),) * n, (-1.5, 1.5), 0.0)
    return PdmSystem(n, TYPE2, (CoupledProfile.from_text(mass, n),), potential)


def gradient_outcome(fn, *args):
    """The outcome of fn's (value, gradient) as one flat list."""
    return outcome(lambda: (lambda m, grad: [m, *grad])(*fn(*args)))


_TYPE2_EDGES = [*_EDGES, 1.5, -1.5, 0.5, -2.0, 2.0]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("name", sorted(TYPE2_MASSES))
def test_generated_type2_rhs_is_the_closure_at_seeded_states(name, n):
    system = type2_system(name, n, False)
    rhs, closure = el2_rhs(system), closure_el2(system)
    for x, v in states(n, (-2.0, 2.0), n):
        assert nan_alike(outcome(rhs, 0.0, x, v)) == nan_alike(outcome(closure, 0.0, x, v))


@pytest.mark.parametrize("name", sorted(TYPE2_MASSES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_generated_type2_rhs_is_the_closure(name, data):
    n = data.draw(st.integers(1, 4), label="n")
    system = type2_system(name, n, data.draw(st.booleans(), label="bounded"))
    xs = st.one_of(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.sampled_from(_TYPE2_EDGES),
                   st.floats(allow_nan=True, allow_infinity=True))
    vs = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, -0.0, 1e200, math.nan]))
    x = data.draw(st.lists(xs, min_size=n, max_size=n), label="x")
    v = data.draw(st.lists(vs, min_size=n, max_size=n), label="v")
    assert fold_alike(outcome(el2_rhs(system), 0.0, x, v), outcome(closure_el2(system), 0.0, x, v))


@pytest.mark.parametrize("name", sorted(TYPE2_MASSES))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_gradient_kernel_is_the_passes(name, data):
    n = data.draw(st.integers(1, 4), label="n")
    profile = type2_system(name, n, False).coupled_profile
    xs = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(_TYPE2_EDGES),
                   st.floats(allow_nan=True, allow_infinity=True))
    x = data.draw(st.lists(xs, min_size=n, max_size=n), label="x")
    want = gradient_outcome(gradient_passes, profile.expr, profile.names, x)
    assert fold_alike(gradient_outcome(eval_gradient, profile.expr, profile.names, x), want)
    kernel = exprparse.compile_gradient(profile.expr, profile.names)
    assert fold_alike(gradient_outcome(kernel, x), want)


def _bounded(mass):
    return type2_system(mass, 2, True)


def _custom2(mass, potentials=None):
    return build_system("custom", 2, mass_exprs=[mass], potential_exprs=potentials, kind=TYPE2)


TYPE2_FIRST_ERRORS = [
    # m = 0, m = -0.0 and m < 0
    (_custom2("1-x1^2-x2^2"), [1.0, 0.0], DomainViolation, None),
    (_custom2("x1*x2"), [0.0, -1.0], DomainViolation, None),
    (_custom2("1-x1^2-x2^2"), [2.0, 0.0], DomainViolation, None),
    # a non-positive mass comes before the first coordinate's domain check
    (_bounded("disc"), [2.0, 0.0], DomainViolation, None),
    # a varying exponent on a negative base fails, an integer one too
    (_custom2("x1^x2+0.5"), [-2.0, 0.5], ExprDomainError, None),
    (_custom2("x1^x2+0.5"), [-2.0, 2.0], ExprDomainError, None),
    (_custom2("ln(x1)+2"), [-1.0, 0.5], ExprDomainError, None),
    # a potential's domain, pole or line fails after the mass
    (_bounded("squares"), [0.5, 0.0], SingularPoint, 1),
    (_bounded("squares"), [0.5, 1.5], DomainViolation, 1),
    (_bounded("squares"), [-1.5, 0.0], DomainViolation, 0),
    (_custom2("1+x1^2+x2^2"), [0.5, math.nan], DomainViolation, 1),
    (_custom2("1+x1^2+x2^2", ["0.5*x^2", "1/x"]), [0.5, 0.0], ExprDomainError, None),
]


@pytest.mark.parametrize("system,x,error,coordinate", TYPE2_FIRST_ERRORS)
def test_generated_type2_rhs_raises_the_closures_first_error(system, x, error, coordinate):
    v = [0.3] * system.n
    got = outcome(el2_rhs(system), 0.0, x, v)
    assert got == outcome(closure_el2(system), 0.0, x, v)
    assert got[0] is error and got[2] == coordinate


def both_entries(system):
    """A system's generated right-hand side: its list form and its scalar entry."""
    rhs = el2_rhs(system) if system.kind == TYPE2 else el1_rhs(system)
    return rhs, rhs.scalar


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind,name", [*(("type1", name) for name in _PARITY),
                                       *(("type2", name) for name in sorted(TYPE2_MASSES))])
def test_scalar_entry_is_the_list_form_at_seeded_states(kind, name, n):
    # the list form calls the scalar entry on the entries of x as floats, and
    # returns its tuple as a list
    system = parity_system(name, n) if kind == "type1" else type2_system(name, n, False)
    box = CATALOG[name][2] if name in CATALOG else (-2.0, 2.0)
    rhs, scalar = both_entries(system)
    for x, v in states(n, box, n) + [([e] * n, [0.5] * n) for e in _TYPE2_EDGES]:
        assert nan_alike(outcome(scalar, 0.0, *x, *v)) == nan_alike(outcome(rhs, 0.0, x, v))


@pytest.mark.parametrize("system,x,error,coordinate", FIRST_ERRORS + TYPE2_FIRST_ERRORS)
def test_scalar_entry_raises_the_list_forms_first_error(system, x, error, coordinate):
    # a failed check hands fail the list [x0, ..] the scalar entry builds there
    rhs, scalar = both_entries(system)
    v = [0.3] * system.n
    got = outcome(scalar, 0.0, *x, *v)
    assert got == outcome(rhs, 0.0, x, v)
    assert got[0] is error and got[2] == coordinate


class TestType2CompiledOnce:
    """One generated type2 kernel per (mass, names, potentials, domain, pole)
    and one gradient kernel per (mass, names), each compiled on the first
    call for it."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        seen = {name: [] for name in ("_compile_rhs2", "_compile_gradient", "_function")}
        for name, calls in seen.items():
            real = getattr(exprparse, name)
            monkeypatch.setattr(exprparse, name, lambda *args, real=real, calls=calls:
                                calls.append(args) or real(*args))
        return seen

    # expressions no other test uses, so every one is parsed afresh
    MASS, POTENTIALS = "1.0625+x1^2+0.4375*x2^2", ["0.5625*x^2", "0.3125*x^2"]

    def build(self, potentials=POTENTIALS):
        return build_system("custom", 2, mass_exprs=[self.MASS], potential_exprs=potentials,
                            kind=TYPE2)

    def test_none_at_build_and_one_per_key(self, compiles):
        system = self.build()
        assert compiles["_function"] == []   # building a system compiles nothing
        rhs = el2_rhs(system)
        assert len(compiles["_compile_rhs2"]) == 1
        x, v = [0.5, 0.25], [0.125, -0.5]
        state = State.of(0.0, x, v)
        assert rhs(0.0, x, v) == el2_acceleration(system, state).tolist()
        traj = integrate(el2_rhs(system), state, IntegratorOptions(t_end=1.0, rel_tol=1e-8))
        sample_dense(traj, [0.5])
        assert len(compiles["_compile_rhs2"]) == 1 and compiles["_compile_gradient"] == []
        el2_obstruction(system, state)
        el2_mapped_residual(system, state)
        system.coupled_profile.value_and_gradient(x)
        assert len(compiles["_compile_gradient"]) == 1
        # a rebuilt system shares the parsed expressions and so both kernels
        again = self.build()
        assert again.coupled_profile.expr is system.coupled_profile.expr
        assert el2_rhs(again)(0.0, x, v) == rhs(0.0, x, v)
        el2_obstruction(again, state)
        assert len(compiles["_compile_rhs2"]) == 1 and len(compiles["_compile_gradient"]) == 1
        # another potential is another key, with the same gradient kernel
        other = self.build([self.POTENTIALS[0], "0.5*x^2"])
        el2_rhs(other)
        el2_obstruction(other, state)
        assert len(compiles["_compile_rhs2"]) == 2 and len(compiles["_compile_gradient"]) == 1

    def test_every_key_part_counts(self, compiles):
        mass = exprparse.parse_cached("1+0.6875*x1^2", ("x1",))
        potential = exprparse.parse_cached("0.6875*x^2")
        key = (mass, ("x1",), (potential,), (-math.inf, math.inf), None)
        first = exprparse.compile_rhs2(*key)
        assert exprparse.compile_rhs2(*key) is first
        for k, part in enumerate([exprparse.parse_cached("1+0.6875*x1^4", ("x1",)),
                                  ("x1", "x2"), (potential, potential), (-1.0, 1.0), 0.0]):
            changed = [*key[:k], part, *key[k + 1:]]
            if k == 1:
                changed[2] = (potential, potential)
            assert exprparse.compile_rhs2(*changed) is not first
        assert len(compiles["_compile_rhs2"]) == 6


@pytest.mark.parametrize("given", [1, 3])
@pytest.mark.parametrize("call,reads_v", [
    (lambda system, x, v: el2_acceleration(system, State.of(0.0, x, v)), True),
    (lambda system, x, v: el2_obstruction(system, State.of(0.0, x, v)), True),
    (lambda system, x, v: el2_mapped_residual(system, State.of(0.0, x, v)), True),
    (lambda system, x, v: system.coupled_profile.value(x), False),
    (lambda system, x, v: system.coupled_profile.value_and_gradient(x), False),
], ids=["el2_acceleration", "el2_obstruction", "el2_mapped_residual", "value",
        "value_and_gradient"])
def test_type2_wrong_number_of_coordinates(call, reads_v, given):
    system = _custom2("1+x1^2+x2^2")
    with pytest.raises(InvalidParameter, match=f"^x: expected 2 coordinates, got {given}$"):
        call(system, [0.5] * given, [0.1, 0.2])
    if reads_v:
        with pytest.raises(InvalidParameter, match=f"^v: expected 2 coordinates, got {given}$"):
            call(system, [0.5, 0.25], [0.1] * given)


def _elg_residual(system, x, v):
    nmap, ref = reference_map(system)
    return elg_residual(nmap, system, ref, State.of(0.0, x, v))


@pytest.mark.parametrize("given", [1, 3])
@pytest.mark.parametrize("call", [
    lambda system, x, v: el1_acceleration(system, State.of(0.0, x, v)),
    lambda system, x, v: el1_residual(system, lambda t: (x, v, [0.0, 0.0]), 0.0),
    _elg_residual,
], ids=["el1_acceleration", "el1_residual", "elg_residual"])
def test_type1_wrong_number_of_coordinates(call, given):
    system = catalog_system("ml1+", 2)
    with pytest.raises(InvalidParameter, match=f"^x: expected 2 coordinates, got {given}$"):
        call(system, [0.5] * given, [0.1, 0.2])
    with pytest.raises(InvalidParameter, match=f"^v: expected 2 coordinates, got {given}$"):
        call(system, [0.5, 0.25], [0.1] * given)


@pytest.mark.parametrize("t,given,message", [
    # one acceleration would broadcast over both coordinates without a word
    (0.0, 1, "a: expected 2 coordinates, got 1"), (0.0, 3, "a: expected 2 coordinates, got 3"),
    # float("a") in State.of was a raw ValueError
    ("a", 2, "t: expected a number, got 'a'"), (None, 2, "t: expected a number, got None"),
    (1j, 2, "t: expected a number, got 1j")])
def test_el1_residual_bad_time_or_accelerations(t, given, message):
    system = catalog_system("ml1+", 2)
    with pytest.raises(InvalidParameter) as err:
        el1_residual(system, lambda t: ([0.5, 0.25], [0.1, 0.2], [0.0] * given), t)
    assert str(err.value) == message


def test_type2_varying_power_raises_on_every_path():
    # the exponent of x1^x2 reads x2, so no path takes (-1)^2 as an integer
    # power, whatever seeds it evaluates the mass with
    system = _custom2("2+x1^x2")
    state = State.of(0.0, [-1.0, 2.0], [0.5, 0.5])
    for call in (kinetic_energy, total_energy, el2_acceleration,
                 lambda system, state: system.coupled_profile.value_and_gradient(state.x)):
        with pytest.raises(ExprDomainError,
                           match="^varying power of a non-positive base in 'x1\\^x2'$"):
            call(system, state)
