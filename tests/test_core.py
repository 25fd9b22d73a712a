"""System construction, validation and energy bookkeeping."""

import math
import struct

import numpy as np
import pytest

from pdmdyn.core import (TYPE1, TYPE2, State, build_system, kinetic_energy,
                         parameter_set, potential_energy, potential_gradient,
                         total_energy)
from pdmdyn.eom import el1_acceleration
from pdmdyn.errors import (DomainViolation, InvalidParameter,
                           MissingParameter, SingularPoint)
from pdmdyn.exprparse import compile_potential


class TestBuildSystem:
    def test_ml1_is_type1_with_n_profiles(self):
        system = build_system("ml1", 2, {"omega": [1.0, 2.0], "lambda": 1.0,
                                         "sign": "+"})
        assert system.kind == TYPE1
        assert system.n == 2
        assert len(system.profiles) == 2

    def test_rebuilt_system_shares_compiled_expressions(self):
        a, b = (build_system("isotonic", 1, {"omega": [1.0], "kappa": [1.0]})
                for _ in range(2))
        assert a.profiles[0].expr is b.profiles[0].expr
        # and so the potential's terms and its gradient kernel
        assert a.potential.exprs[0] is b.potential.exprs[0]
        assert (compile_potential(a.potential.exprs, a.potential.domain, a.potential.pole, 1)
                is compile_potential(b.potential.exprs, b.potential.domain, b.potential.pole, 1))

    def test_minus_branch_profile_domain(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "-"})
        assert system.profiles[0].domain == (-1.0, 1.0)

    def test_upsilon_minus_one_rejected(self):
        with pytest.raises(InvalidParameter) as err:
            build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.0,
                                         "upsilon": -1.0})
        assert err.value.field == "upsilon"

    def test_eta_one_rejected(self):
        with pytest.raises(InvalidParameter) as err:
            build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0],
                                    "beta": 1.0, "eta_exp": 1.0})
        assert err.value.field == "eta_exp"

    # n = 10**400 with a scalar omega was a raw OverflowError from the broadcast
    @pytest.mark.parametrize("n,omega", [(0, []), ("a", [1.0]), (True, [1.0]), (10 ** 400, 1.0),
                                         (-1, 1.0)])
    @pytest.mark.parametrize("build", [lambda n, params: build_system("ml1", n, params),
                                       lambda n, params: parameter_set(params, n)])
    def test_zero_dimension_rejected(self, build, n, omega):
        with pytest.raises(InvalidParameter) as err:
            build(n, {"omega": omega, "lambda": 1.0, "sign": "+"})
        assert err.value.field == "n"

    def test_missing_omega(self):
        with pytest.raises(MissingParameter) as err:
            build_system("ml1", 1, {"lambda": 1.0, "sign": "+"})
        assert err.value.field == "omega"

    def test_negative_lambda_rejected(self):
        with pytest.raises(InvalidParameter):
            build_system("ml1", 1, {"omega": [1.0], "lambda": -1.0, "sign": "+"})

    def test_nonpositive_kappa_rejected(self):
        with pytest.raises(InvalidParameter) as err:
            build_system("sw1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "+",
                                    "kappa": [0.0]})
        assert err.value.field == "kappa"

    def test_bad_sign_tag(self):
        with pytest.raises(InvalidParameter):
            build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "plus"})

    def test_omega_length_mismatch(self):
        with pytest.raises(InvalidParameter):
            build_system("ml1", 2, {"omega": [1.0], "lambda": 1.0, "sign": "+"})

    def test_scalar_omega_broadcasts(self):
        system = build_system("ml1", 3, {"omega": 2.0, "lambda": 1.0, "sign": "+"})
        assert system.potential.params.omega == (2.0, 2.0, 2.0)

    @pytest.mark.parametrize("family,extra,field", [
        ("ml1", {"alpha": -1.0}, "alpha"),
        ("custom", {"omega": [0.0]}, "omega"),
        ("harmonic", {"zeta": [-2.0]}, "zeta"),
        ("isotonic", {"beta": 0.0}, "beta"),
        ("morse", {"eta_const": [0.0]}, "eta_const"),
    ])
    def test_unread_parameter_out_of_range_rejected(self, family, extra, field):
        # a parameter's range is the same whichever family is built
        params = {"omega": [1.0], "zeta": [1.0], "kappa": [1.0], "lambda": 1.0,
                  "sign": "+", **extra}
        with pytest.raises(InvalidParameter) as err:
            build_system(family, 1, params, mass_exprs=["1"])
        assert err.value.field == field

    @pytest.mark.parametrize("family", ["nosuch", []])
    def test_unknown_family(self, family):
        with pytest.raises(InvalidParameter) as err:
            build_system(family, 1, {})
        assert err.value.field == "family"

    @pytest.mark.parametrize("params,field", [
        ({"omega": [1.0], "lambda": 1.0, "sign": "+", "gamma": 3.0}, "gamma"),
        # dict() of these was a raw ValueError or TypeError
        ("a", "params"), ([1], "params")])
    def test_unknown_parameter_name(self, params, field):
        for build in (lambda: build_system("ml1", 1, params), lambda: parameter_set(params, 1)):
            with pytest.raises(InvalidParameter) as err:
                build()
            assert err.value.field == field

    def test_custom_type2(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
        assert system.kind == TYPE2
        assert system.n == 2


class TestEnergies:
    def test_kinetic_ml1(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "+"})
        assert kinetic_energy(system, State.of(0, [1.0], [2.0])) == pytest.approx(1.0)

    def test_kinetic_zero_velocity(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        assert kinetic_energy(system, State.of(0, [0.3], [0.0])) == 0.0

    def test_kinetic_type2_shared_multiplier(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
        st = State.of(0, [1.0, 0.0], [1.0, 1.0])
        assert kinetic_energy(system, st) == pytest.approx(2.0)

    def test_potential_ml1(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "+"})
        assert potential_energy(system, [1.0]) == pytest.approx(0.25)
        assert potential_energy(system, [0.0]) == 0.0

    def test_potential_sw1(self):
        system = build_system("sw1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+", "kappa": [1.0]})
        assert potential_energy(system, [1.0]) == pytest.approx(1.25)

    def test_total_ml1_matches_closed_form_at_turning_point(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "+"})
        state = State.of(0, [1.0], [0.0])
        assert (kinetic_energy(system, state), potential_energy(system, state.x),
                total_energy(system, state)) == pytest.approx((0.0, 0.25, 0.25))

    def test_total_morse_at_origin(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        state = State.of(0, [0.0], [1.0])
        assert (kinetic_energy(system, state), potential_energy(system, state.x),
                total_energy(system, state)) == pytest.approx((0.5, 0.0, 0.5))

    def test_rest_energy_zero(self):
        system = build_system("morse", 2, {"omega": [1.0, 1.0], "zeta": [1.0, 2.0]})
        assert total_energy(system, State.of(0, [0.0, 0.0], [0.0, 0.0])) == 0.0

    def test_isotonic_potential_singular_at_origin(self):
        system = build_system("sw1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+", "kappa": [1.0]})
        with pytest.raises(SingularPoint):
            potential_energy(system, [0.0])

    def test_inverse_square_far_from_the_origin(self):
        # m x^2 -> 1 and kappa/(m x^2) -> kappa: E -> (w^2 + kappa)/2, no overflow
        system = build_system("sw1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+", "kappa": [1.0]})
        state = State.of(0, [1e120], [0.0])
        assert total_energy(system, state) == 1.0
        assert abs(el1_acceleration(system, state)[0]) < 1e-100

    @pytest.mark.parametrize("x,v", [(1e200, 0.0), (1.0, 1e200)])
    def test_overflowing_energy_is_a_domain_violation(self, x, v):
        system = build_system("custom", 1, mass_exprs=["1"], potential_exprs=["x^2"])
        with pytest.raises(DomainViolation):
            total_energy(system, State.of(0, [x], [v]))

    @pytest.mark.parametrize("kind,mass", [(TYPE1, "1"), (TYPE2, "1+0*x1")])
    def test_overflowing_kinetic_energy_is_a_domain_violation(self, kind, mass):
        system = build_system("custom", 1, mass_exprs=[mass], potential_exprs=["x^2"],
                              kind=kind)
        # numpy warns as the type2 dot product overflows; the raise is what counts
        with pytest.raises(DomainViolation), np.errstate(over="ignore"):
            kinetic_energy(system, State.of(0, [1.0], [1e200]))

    def test_overflowing_potential_energy_is_a_domain_violation(self):
        system = build_system("custom", 1, mass_exprs=["1"], potential_exprs=["x^2"])
        with pytest.raises(DomainViolation, match="V=inf"):
            potential_energy(system, [1e200])

    def test_type2_potential_rejects_non_finite_x(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"],
                              potential_exprs=["x^2", "x^2"], kind=TYPE2)
        with pytest.raises(DomainViolation):
            potential_energy(system, [math.nan, 0.0])

    def test_kinetic_domain_violation(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0, "sign": "-"})
        with pytest.raises(DomainViolation):
            kinetic_energy(system, State.of(0, [1.5], [1.0]))

    def test_kinetic_nonnegative_everywhere(self):
        rng = np.random.default_rng(11)
        system = build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0],
                                         "beta": 1.2, "eta_exp": -1.0})
        for _ in range(200):
            st = State.of(0, [rng.uniform(0.2, 3.0)], [rng.uniform(-3, 3)])
            assert kinetic_energy(system, st) >= 0.0

    def test_type2_n1_equals_type1_energies(self):
        s1 = build_system("custom", 1, mass_exprs=["1+x^2"],
                          potential_exprs=["0.5*x^2"])
        s2 = build_system("custom", 1, mass_exprs=["1+x1^2"],
                          potential_exprs=["0.5*x^2"], kind=TYPE2)
        rng = np.random.default_rng(3)
        for _ in range(100):
            st = State.of(0, [rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
            assert kinetic_energy(s1, st) == pytest.approx(kinetic_energy(s2, st),
                                                           abs=1e-15)
            assert potential_energy(s1, st.x) == pytest.approx(
                potential_energy(s2, st.x), abs=1e-15)

    @pytest.mark.parametrize("mass", ["1+x1^2+x2^2", "exp(-x1^2-x2^2)*(2+sin(x2))",
                                      "(2+x1^2)^(1+x2^2/4)", "x1^x2+3"])
    def test_type2_kinetic_energy_reads_the_gradient_calls_value(self, mass):
        # one value-only call gives, bit for bit, the m of value_and_gradient,
        # also where the exponent varies (a ** b under zero seeds)
        system = build_system("custom", 2, mass_exprs=[mass], kind=TYPE2)
        rng = np.random.default_rng(17)
        for _ in range(200):
            st = State.of(0, rng.uniform(0.2, 2.0, 2), rng.uniform(-2.0, 2.0, 2))
            m, _ = system.coupled_profile.value_and_gradient(st.x)
            want = 0.5 * m * (0.0 + st.v[0] * st.v[0] + st.v[1] * st.v[1])
            assert struct.pack("<d", kinetic_energy(system, st)) == struct.pack("<d", want)

    def test_type2_kinetic_energy_rejects_a_non_positive_mass(self):
        system = build_system("custom", 2, mass_exprs=["x1-x2"], kind=TYPE2)
        st = State.of(0, [1.0, 1.5], [1.0, 0.0])
        with pytest.raises(DomainViolation) as want:
            system.coupled_profile.value_and_gradient(st.x)
        with pytest.raises(DomainViolation) as got:
            kinetic_energy(system, st)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("given", [1, 3])
    @pytest.mark.parametrize("fn,arg", [
        (potential_energy, lambda xs: xs), (potential_gradient, lambda xs: xs),
        (kinetic_energy, lambda xs: State.of(0.0, xs, xs)),
        (total_energy, lambda xs: State.of(0.0, xs, xs)),
    ])
    def test_wrong_number_of_coordinates(self, fn, arg, given):
        # neither a raw unpacking error nor a result truncated to the shorter length
        system = build_system("harmonic", 2, {"omega": [1.0, 2.0]})
        with pytest.raises(InvalidParameter, match=f"expected 2 coordinates, got {given}"):
            fn(system, arg([0.5] * given))

    @pytest.mark.parametrize("value", [None, 0.5, "ab", [None, 0.5], [[0.5], [0.5]],
                                       [10 ** 400, 0.5], "12", b"12"])
    @pytest.mark.parametrize("fn,name,arg", [
        (potential_energy, "x", lambda xs: xs), (potential_gradient, "x", lambda xs: xs),
        (kinetic_energy, "x", lambda xs: State(0.0, xs, [0.5, 0.5])),
        (kinetic_energy, "v", lambda vs: State(0.0, [0.5, 0.5], vs)),
        (total_energy, "x", lambda xs: State(0.0, xs, [0.5, 0.5])),
        (total_energy, "v", lambda vs: State(0.0, [0.5, 0.5], vs)),
        (el1_acceleration, "x", lambda xs: State(0.0, xs, [0.5, 0.5])),
        (el1_acceleration, "v", lambda vs: State(0.0, [0.5, 0.5], vs)),
    ])
    def test_coordinates_that_are_not_numbers(self, fn, name, arg, value):
        # float() of each entry raised a raw TypeError, ValueError or OverflowError,
        # and "12" was read one character at a time, as [1.0, 2.0]
        system = build_system("harmonic", 2, {"omega": [1.0, 2.0]})
        with pytest.raises(InvalidParameter) as err:
            fn(system, arg(value))
        assert str(err.value) == f"{name}: expected 2 numbers, got {value!r}"

    # a None entry was read as nan: x = [nan, 0.5]
    @pytest.mark.parametrize("name,value", [("t", "a"), ("t", None), ("x", ["a", 0.5]),
                                            ("x", "ab"), ("x", "12"), ("v", b"12"),
                                            ("v", bytearray(b"12")),
                                            ("v", [1j, 0.5]),
                                            ("v", [10 ** 400, 0.5]), ("x", [None, 0.5]),
                                            ("v", [None, 0.5])])
    def test_state_of_values_that_are_not_numbers(self, name, value):
        # float() or np.asarray of each was a raw TypeError, ValueError or OverflowError
        given = {"t": 0.0, "x": [0.5, 0.5], "v": [0.5, 0.5], name: value}
        with pytest.raises(InvalidParameter) as err:
            State.of(**given)
        assert err.value.field == name

    @pytest.mark.parametrize("state", [None, (0.0, [0.5, 0.5], [0.5, 0.5]), 0.5])
    @pytest.mark.parametrize("fn", [kinetic_energy, total_energy])
    def test_state_that_is_not_a_state(self, fn, state):
        # state.t of None was a raw AttributeError
        system = build_system("harmonic", 2, {"omega": [1.0, 2.0]})
        with pytest.raises(InvalidParameter) as err:
            fn(system, state)
        assert str(err.value) == f"state: expected a State, got {state!r}"


class TestParameterSet:
    @pytest.mark.parametrize("key,value,field", [
        ("lambda", math.nan, "lam"), ("omega", [math.inf], "omega"),
        ("upsilon", math.nan, "upsilon"), ("kappa", [1.0, -math.inf], "kappa"),
    ])
    def test_non_finite_value_rejected(self, key, value, field):
        n = len(value) if isinstance(value, list) else 1
        with pytest.raises(InvalidParameter) as err:
            parameter_set({key: value}, n)
        assert err.value.field == field
        with pytest.raises(InvalidParameter):
            build_system("ml1", n, {"omega": [1.0] * n, "lambda": 1.0, "sign": "+",
                                    key: value})

    def test_alias_lambda(self):
        p = parameter_set({"lambda": 2.0}, 1)
        assert p.lam == 2.0

    def test_missing_parameter_raised_by_build_system(self):
        p = parameter_set({"omega": [1.0]}, 1)
        with pytest.raises(MissingParameter) as err:
            build_system("isotonic", 1, p)
        assert err.value.field == "kappa"
