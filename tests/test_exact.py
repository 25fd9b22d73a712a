"""Closed-form catalog tests: values, frequencies, energies, misprints."""

import math
from functools import partial

import numpy as np
import pytest

from pdmdyn.core import build_system, parameter_set, total_energy
from pdmdyn.eom import el1_residual
from pdmdyn.errors import (DomainViolation, InvalidParameter, InvalidSpec,
                           MissingParameter)
from pdmdyn.exact import (AMENDED_FORM, ExactSolutionSpec, MISPRINTS,
                          exact_energy, exact_solution, exact_trajectory,
                          kinematics, ml2_reduction_check, oscillation_period)
from pdmdyn.verify import _printed_ml1_frequency


def sw1_omega_from(params, Omega, amplitude):
    """The published direction of the inverse-square relation: omega from (Omega, C)."""
    s = 1.0 if params.sign == "+" else -1.0
    Om = np.asarray(Omega, dtype=float)
    c2 = np.asarray(amplitude, dtype=float) ** 2
    k = np.asarray(params.kappa)
    return np.sqrt((1.0 + s * params.lam * c2) * (Om * Om + s * params.lam * k / c2))


def spec_of(family, params, amplitude, **kw):
    return ExactSolutionSpec(family, parameter_set(params, len(amplitude)),
                             tuple(amplitude), **kw)


class TestClosedFormValues:
    def test_ml1_starts_at_amplitude(self):
        spec = spec_of("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [1.0])
        st = exact_solution(spec, 0.0)
        assert st.x[0] == 1.0
        assert st.v[0] == 0.0

    def test_morse_start_value(self):
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        st = exact_solution(spec, 0.0)
        assert st.x[0] == pytest.approx(math.log(1.5))

    def test_isotonic_reference_start(self):
        spec = spec_of("isotonic", {"omega": [1.0], "kappa": [4.0]}, [2.0])
        st = exact_solution(spec, 0.0)
        assert st.x[0] == pytest.approx(1.0)

    def test_powerlaw_leaves_branch(self):
        spec = spec_of("powerlaw", {"omega": [1.0], "alpha": 1.0,
                                    "upsilon": 1.0}, [1.0])
        with pytest.raises(DomainViolation):
            exact_solution(spec, 0.9)  # cos(2 * 0.9) < 0

    def test_velocity_is_derivative_of_position(self):
        for family, params, amp, kw in [
            ("ml1", {"omega": [1.0], "lambda": 0.5, "sign": "-"}, [0.5], {}),
            ("morse", {"omega": [1.2], "zeta": [0.8]}, [0.4], {}),
            ("sw1", {"omega": [1.0], "lambda": 0.5, "sign": "+",
                     "kappa": [1.0]}, [1.0], {}),
            ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                     "eta_exp": 2.0}, [1.1], {"variant": AMENDED_FORM}),
        ]:
            spec = spec_of(family, params, amp, **kw)
            h = 1e-5
            for t in (0.1, 0.9, 2.3):
                x_p, _, _ = kinematics(spec, t + h)
                x_m, _, _ = kinematics(spec, t - h)
                _, v, a = kinematics(spec, t)
                assert v[0] == pytest.approx((x_p[0] - x_m[0]) / (2 * h),
                                             rel=1e-8, abs=1e-8)
                v_p = kinematics(spec, t + h)[1]
                v_m = kinematics(spec, t - h)[1]
                assert a[0] == pytest.approx((v_p[0] - v_m[0]) / (2 * h),
                                             rel=1e-8, abs=1e-8)


class TestValidation:
    def test_amplitude_and_omega_lengths_differ(self):
        p = parameter_set({"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1)
        with pytest.raises(InvalidParameter, match="omega: expected 2 entries"):
            ExactSolutionSpec("ml1", p, (1.0, 0.5))

    def test_morse_amplitude_bound(self):
        with pytest.raises(InvalidSpec):
            spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [1.0])

    def test_sw_zero_constant(self):
        with pytest.raises(InvalidSpec):
            spec_of("sw1", {"omega": [1.0], "lambda": 1.0, "sign": "+",
                            "kappa": [1.0]}, [0.0])

    def test_minus_branch_amplitude_bound(self):
        with pytest.raises(InvalidSpec):
            spec_of("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "-"}, [1.0])

    def test_ml2_requires_reduction(self):
        with pytest.raises(InvalidSpec):
            spec_of("ml2", {"omega": [1.0], "lambda": 0.3, "sign": "-",
                            "eta_const": [1.0]}, [0.5])

    def test_unknown_variant(self):
        with pytest.raises(InvalidSpec):
            spec_of("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                            "eta_exp": -1.0}, [1.0], variant="corrected")

    def test_phase_length_mismatch(self):
        with pytest.raises(InvalidSpec):
            spec_of("ml1", {"omega": [1.0, 1.0], "lambda": 1.0, "sign": "+"},
                    [1.0, 1.0], phase=(0.0,))

    @pytest.mark.parametrize("samples", [0, -1])
    def test_trajectory_needs_a_sample(self, samples):
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        with pytest.raises(InvalidParameter) as err:
            exact_trajectory(spec, 0.0, 1.0, samples)
        assert err.value.field == "samples"

    def test_overflowing_frequency(self):
        # 1 + lam A^2 overflows, so the relation reads 0
        with pytest.raises(InvalidSpec, match="no finite positive frequency"):
            spec_of("ml1", {"omega": [1.0], "lambda": 0.5, "sign": "+"}, [1e300])

    @pytest.mark.parametrize("amplitude,phase", [
        ([math.nan], ()), ([math.inf], ()), ([1.0], (-math.inf,)),
    ])
    def test_non_finite_amplitude_or_phase(self, amplitude, phase):
        with pytest.raises(InvalidSpec, match="must be finite"):
            spec_of("harmonic", {"omega": [1.0]}, amplitude, phase=phase)

    @pytest.mark.parametrize("t", [math.inf, -math.inf, 1.7e308])
    def test_time_whose_phase_is_infinite(self, t):
        # omega t is infinite: math.cos raised a ValueError
        spec = spec_of("harmonic", {"omega": [2.0]}, [1.0])
        with pytest.raises(InvalidSpec, match="closed form fails at t="):
            kinematics(spec, t)

    @pytest.mark.parametrize("t0,t1,samples,field", [
        (0.0, math.inf, 3, "t1"), (math.nan, 1.0, 3, "t1"),
        (-1e308, 1e308, 3, "t1"),           # the span overflows
        (0.0, 1.0, 10**30, "samples"), (0.0, 1.0, 2**62, "samples"),
    ])
    def test_trajectory_grid_must_fit(self, t0, t1, samples, field):
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        with pytest.raises(InvalidParameter) as err:
            exact_trajectory(spec, t0, t1, samples)
        assert err.value.field == field

    @pytest.mark.parametrize("t0,t1", [(1.0, 0.0), (0.0, -2.0 * math.pi), (0.0, -5e-324)])
    def test_trajectory_grid_must_run_forward(self, t0, t1):
        # as integrate rejects a t_end before the start time
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        with pytest.raises(InvalidParameter, match="is before the grid start") as err:
            exact_trajectory(spec, t0, t1, 3)
        assert err.value.field == "t1"

    def test_trajectory_on_an_empty_span(self):
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        assert exact_trajectory(spec, 1.0, 1.0, 3).t.tolist() == [1.0, 1.0, 1.0]


class TestFrequencyRelations:
    def test_powerlaw(self):
        spec = spec_of("powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": 1.0}, [1.0])
        assert spec.frequency[0] == pytest.approx(2.0)

    def test_ml1_constant_mass_limit(self):
        spec = spec_of("ml1", {"omega": [1.0], "lambda": 0.0, "sign": "+"}, [1.0])
        assert spec.frequency[0] == pytest.approx(1.0)

    def test_ml1_validated_value(self):
        spec = spec_of("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [1.0])
        assert spec.frequency[0] == pytest.approx(1.0 / math.sqrt(2.0))

    def test_ml1_printed_form_differs_away_from_unit_amplitude(self):
        params = {"omega": [1.0], "lambda": 1.0, "sign": "+"}
        half, unit = spec_of("ml1", params, [0.5]), spec_of("ml1", params, [1.0])
        printed = _printed_ml1_frequency(half.params, 0.5)
        assert printed == pytest.approx(0.5 * half.frequency[0])
        same = _printed_ml1_frequency(unit.params, 1.0)
        assert same == pytest.approx(unit.frequency[0])

    def test_sw1_printed_direction_round_trips(self):
        spec = spec_of("sw1", {"omega": [1.3], "lambda": 0.5, "sign": "+",
                               "kappa": [0.8]}, [1.1])
        w_back = sw1_omega_from(spec.params, spec.frequency, [1.1])
        assert w_back[0] == pytest.approx(1.3, rel=1e-13)

    def test_morse(self):
        spec = spec_of("morse", {"omega": [1.5], "zeta": [2.0]}, [0.5])
        assert spec.frequency[0] == pytest.approx(3.0)

    def test_ml2_outside_reduction_unsupported(self):
        with pytest.raises(InvalidSpec, match="only in the reduction case"):
            spec_of("ml2", {"omega": [1.0], "lambda": 0.3, "sign": "-",
                            "eta_const": [1.0]}, [0.5])

    def test_custom_unsupported(self):
        with pytest.raises(InvalidSpec, match="no closed form catalogued for 'custom'"):
            spec_of("custom", {}, [1.0])

    def test_sw_position_period_is_half_phase_period(self):
        spec = spec_of("sw1", {"omega": [1.0], "lambda": 0.5, "sign": "+",
                               "kappa": [1.0]}, [1.0])
        assert oscillation_period(spec)[0] == pytest.approx(math.pi / spec.frequency[0])

    @pytest.mark.parametrize("sign, amplitude, message", [
        ("+", 1e-170, "no real oscillation frequency for these constants"),
        ("+", 1e200, "no real oscillation frequency for these constants"),
        ("-", 1e200, "no real oscillation frequency for these constants"),
        # C^2 underflows to 0: the subtracted kappa term is -inf, Omega^2 = +inf
        ("-", 1e-170, "no finite positive frequency at amplitude (1e-170,): [inf]")])
    def test_sw1_extreme_amplitude_errors(self, sign, amplitude, message):
        with pytest.raises(InvalidSpec) as err:
            spec_of("sw1", {"omega": [1.0], "lambda": 0.5, "sign": sign,
                            "kappa": [1.0]}, [amplitude])
        assert str(err.value) == message

    def test_overflowing_relation_is_an_invalid_spec(self):
        with pytest.raises(InvalidSpec) as err:
            spec_of("powerlaw", {"omega": [1e10], "alpha": 1.0, "upsilon": 1e300}, [1.0])
        assert str(err.value) == "no finite positive frequency at amplitude (1.0,): [inf]"

    def test_missing_omega_is_a_missing_parameter(self):
        with pytest.raises(MissingParameter, match="omega"):
            spec_of("harmonic", {}, [1.0])


class TestEnergies:
    def test_morse_energy(self):
        spec = spec_of("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5])
        assert exact_energy(spec) == pytest.approx(0.125)

    def test_ml1_energy(self):
        spec = spec_of("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [1.0])
        assert exact_energy(spec) == pytest.approx(0.25)

    def test_zero_amplitude(self):
        spec = spec_of("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [0.0])
        assert exact_energy(spec) == 0.0

    def test_powerlaw_energy_constant_is_validated_form(self):
        # E = (1/2) alpha^2 w^2 A^(2(1+upsilon)); the printed constant would
        # give A^(2/(1+upsilon)) instead
        spec = spec_of("powerlaw", {"omega": [1.0], "alpha": 1.0,
                                    "upsilon": 1.0}, [1.3])
        assert exact_energy(spec) == pytest.approx(0.5 * 1.3 ** 4)

    @pytest.mark.parametrize("family,params,amp,kw", [
        ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [1.0], {}),
        ("ml1", {"omega": [1.0], "lambda": 0.5, "sign": "-"}, [0.9], {}),
        ("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5], {}),
        ("sw1", {"omega": [1.0], "lambda": 0.5, "sign": "+", "kappa": [1.0]},
         [1.0], {}),
        ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": -1.0},
         [1.2], {}),
        ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": 2.0},
         [1.1], {"variant": AMENDED_FORM}),
        ("isotonic", {"omega": [1.0], "kappa": [1.0]}, [1.3], {}),
        ("ml2", {"omega": [1.0], "lambda": 0.25, "sign": "-",
                 "eta_const": [2.0]}, [1.0], {}),
    ])
    def test_energy_constant_along_solution(self, family, params, amp, kw):
        spec = spec_of(family, params, amp, **kw)
        system = build_system(spec.family, spec.n, spec.params)
        e0 = exact_energy(spec)
        T = float(np.max(oscillation_period(spec)))
        for t in np.linspace(0.0, T, 40):
            e = total_energy(system, exact_solution(spec, float(t)))
            assert e == pytest.approx(e0, rel=1e-12, abs=1e-12)


class TestOracleClosure:
    CASES = [
        ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, [1.0], {}),
        ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "-"}, [0.5], {}),
        ("morse", {"omega": [1.0], "zeta": [1.0]}, [0.5], {}),
        ("sw1", {"omega": [1.0], "lambda": 0.5, "sign": "+", "kappa": [1.0]},
         [1.0], {}),
        ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": -1.0},
         [1.2], {}),
        ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": 2.0},
         [1.1], {"variant": AMENDED_FORM}),
        ("ml2", {"omega": [1.0], "lambda": 0.25, "sign": "-",
                 "eta_const": [2.0]}, [1.0], {}),
    ]

    @pytest.mark.parametrize("family,params,amp,kw", CASES)
    def test_exact_solutions_annihilate_the_equations(self, family, params,
                                                      amp, kw):
        spec = spec_of(family, params, amp, **kw)
        system = build_system(spec.family, spec.n, spec.params)
        fn = partial(kinematics, spec)
        T = float(np.max(oscillation_period(spec)))
        worst = max(float(np.max(np.abs(el1_residual(system, fn, float(t)))))
                    for t in np.linspace(0.0, 3.0 * T, 500))
        assert worst < 1e-8

    def test_sw2_published_form_fails_for_eta_two(self):
        spec = spec_of("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                               "eta_exp": 2.0}, [1.1])
        system = build_system(spec.family, spec.n, spec.params)
        fn = partial(kinematics, spec)
        T = float(oscillation_period(spec)[0])
        worst = max(float(np.max(np.abs(el1_residual(system, fn, float(t)))))
                    for t in np.linspace(0.0, 3.0 * T, 300))
        assert worst > 1e-1

    def test_powerlaw_residual_within_branch(self):
        spec = spec_of("powerlaw", {"omega": [1.0], "alpha": 1.0,
                                    "upsilon": 2.0}, [1.0])
        system = build_system(spec.family, spec.n, spec.params)
        fn = partial(kinematics, spec)
        for t in np.linspace(-0.5, 0.5, 101):  # cos(3t) > 0 throughout
            assert abs(el1_residual(system, fn, float(t))[0]) < 1e-8

    def test_multidimensional_solution(self):
        spec = spec_of("ml1", {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"},
                       [1.0, 0.5], phase=(0.0, 0.4))
        system = build_system(spec.family, spec.n, spec.params)
        fn = partial(kinematics, spec)
        worst = max(float(np.max(np.abs(el1_residual(system, fn, float(t)))))
                    for t in np.linspace(0.0, 20.0, 200))
        assert worst < 1e-10


class TestMl2Reduction:
    def test_matching_condition_true(self):
        p = parameter_set({"omega": [1.0], "lambda": 0.25, "sign": "-",
                           "eta_const": [2.0]}, 1)
        assert ml2_reduction_check(p) is True

    def test_unit_eta(self):
        p = parameter_set({"omega": [1.0], "lambda": 1.0, "sign": "-",
                           "eta_const": [1.0]}, 1)
        assert ml2_reduction_check(p) is True

    def test_mismatched_strength(self):
        p = parameter_set({"omega": [1.0], "lambda": 0.3, "sign": "-",
                           "eta_const": [1.0]}, 1)
        assert ml2_reduction_check(p) is False

    def test_wrong_branch(self):
        p = parameter_set({"omega": [1.0], "lambda": 0.25, "sign": "+",
                           "eta_const": [2.0]}, 1)
        assert ml2_reduction_check(p) is False

    def test_per_coordinate_condition(self):
        p = parameter_set({"omega": [1.0, 1.0], "lambda": 0.25, "sign": "-",
                           "eta_const": [2.0, 3.0]}, 2)
        assert ml2_reduction_check(p) is False

    def test_zero_eta_is_no_reduction(self):
        # lam = 1/eta^2 has no solution at eta = 0; the check must not divide
        p = parameter_set({"omega": [1.0], "lambda": 0.25, "sign": "-",
                           "eta_const": [0.0]}, 1)
        assert ml2_reduction_check(p) is False
        with pytest.raises(InvalidSpec, match="reduction case"):
            ExactSolutionSpec("ml2", p, (0.5,))


class TestSubstitutionIdentity:
    def test_forward_and_back(self):
        rng = np.random.default_rng(4)
        for s in (1.0, -1.0):
            xs = rng.uniform(-0.9, 0.9, 1000) if s < 0 else rng.uniform(-3, 3, 1000)
            for x in xs:
                q2 = x * x / (1.0 + s * x * x)
                assert q2 / (1.0 - s * q2) == pytest.approx(x * x, rel=1e-12,
                                                            abs=1e-15)


class TestMisprintLedger:
    def test_entries_are_unique_and_complete(self):
        ids = [m.identifier for m in MISPRINTS]
        assert len(ids) == len(set(ids))
        assert len(MISPRINTS) == 6
        for m in MISPRINTS:
            assert m.printed and m.validated and m.published_ref

    def test_known_corrections_present(self):
        ids = {m.identifier for m in MISPRINTS}
        assert "ml1-frequency" in ids
        assert "powerlaw-energy-constant" in ids
        assert "sw2-kappa-normalization" in ids
