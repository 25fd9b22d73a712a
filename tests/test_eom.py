"""Equation-of-motion right-hand sides and the residual oracle."""

import math

import numpy as np
import pytest

from pdmdyn.core import TYPE2, State, build_system, parameter_set
from pdmdyn.eom import el1_acceleration, el1_residual, el2_acceleration
from pdmdyn.errors import (InvalidParameter, MissingParameter,
                           SingularCoefficient, SingularPoint)
from pdmdyn.exact import ExactSolutionSpec, kinematics, solution_fn


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
        fn = solution_fn(spec)
        for t in np.linspace(0, 17.8, 100):
            r = el1_residual(system, fn, float(t))
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

    def test_finite_difference_fallback(self):
        spec = ExactSolutionSpec("morse", parameter_set(
            {"omega": [1.0], "zeta": [1.0]}, 1), (0.5,))
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})

        def no_accel(t):
            x, v, _ = kinematics(spec, t)
            return x, v

        for t in np.linspace(0.1, 6.0, 25):
            r = el1_residual(system, no_accel, float(t))
            assert abs(r[0]) < 1e-5
