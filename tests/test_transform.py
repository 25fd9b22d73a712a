"""Nonlocal map tests: coordinate maps, time rescaling, invariance."""

import io
import json
import math
import warnings

import numpy as np
import pytest

from pdmdyn.cli import run_cli
from pdmdyn.core import (TYPE2, ParameterSet, PdmSystem, State, build_system,
                         parameter_set, potential_energy, potential_gradient)
from pdmdyn.errors import (DomainViolation, InvalidParameter, NonPositiveScale,
                           SingularPoint, UnsupportedFamily)
from pdmdyn.exact import (ExactSolutionSpec, exact_solution, exact_trajectory,
                          kinematics as kinematics_of, oscillation_period)
from pdmdyn.exprparse import MAP_COLUMNS
from pdmdyn.families import FAMILIES
from pdmdyn.integrate import DOP853, IntegratorOptions, integrate, sample_dense
from pdmdyn.profiles import CustomProfile
from pdmdyn.transform import (_GL_NODES, _GL_WEIGHTS, NonlocalMap, coordinate_image,
                              el2_mapped_residual, el2_obstruction, elg_residual, f_scale,
                              map_to_reference,
                              potential_match_residual, q_map, reference_map,
                              tau_values)
from pdmdyn.eom import el1_rhs, el2_rhs


def ml1_map(sign="+", lam=1.0, omega=1.0):
    system = build_system("ml1", 1, {"omega": [omega], "lambda": lam, "sign": sign})
    nmap, ref = reference_map(system)
    return system, nmap, ref


class TestQMap:
    def test_oscillator_map_value(self):
        _, nmap, _ = ml1_map()
        q, _ = q_map(nmap, 0, 1.0)
        assert q == pytest.approx(1.0 / math.sqrt(2.0))

    def test_morse_map_origin(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        nmap, _ = reference_map(system)
        q, dq = q_map(nmap, 0, 0.0)
        assert q == 0.0
        assert dq == pytest.approx(1.0)

    def test_constant_map_value(self):
        system = build_system("ml2", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+", "eta_const": [2.0]})
        nmap, _ = reference_map(system)
        q, _ = q_map(nmap, 0, 1.0)
        assert q == pytest.approx(math.sqrt(2.0))

    def test_derivative_is_f_times_sqrt_m(self):
        system = build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0],
                                         "beta": 1.0, "eta_exp": -1.0})
        nmap, _ = reference_map(system)
        x = 1.3
        q, dq = q_map(nmap, 0, x)
        m, _, _ = system.profiles[0].eval(x)
        assert dq == pytest.approx(f_scale(nmap, 0, x) * math.sqrt(m))
        assert dq < 0.0  # negative exponent gives a decreasing map

    def test_g_identity_random_points(self):
        rng = np.random.default_rng(2)
        for family, params, box in [
            ("ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, (-2, 2)),
            ("powerlaw", {"omega": [1.0], "alpha": 1.3, "upsilon": 2.0}, (0.2, 2)),
            ("morse", {"omega": [1.0], "zeta": [0.7]}, (-1, 1)),
            ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.1,
                     "eta_exp": 2.0}, (0.2, 2)),
        ]:
            system = build_system(family, 1, params)
            nmap, _ = reference_map(system)
            for x in rng.uniform(*box, 500):
                m, _, _ = system.profiles[0].eval(float(x))
                _, dq = q_map(nmap, 0, float(x))
                f = f_scale(nmap, 0, float(x))
                assert dq * dq == pytest.approx(m * f * f, rel=1e-10)


class TestFScale:
    def test_ml1_f_equals_m(self):
        system, nmap, _ = ml1_map()
        for x in (0.0, 0.5, 1.0, -1.3):
            m, _, _ = system.profiles[0].eval(x)
            assert f_scale(nmap, 0, x) == pytest.approx(m, rel=1e-14)

    def test_powerlaw_f_constant(self):
        system = build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.0,
                                              "upsilon": 2.0})
        nmap, _ = reference_map(system)
        for x in (0.3, 1.0, 2.5):
            assert f_scale(nmap, 0, x) == pytest.approx(3.0)

    def test_morse_f_constant(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        nmap, _ = reference_map(system)
        for x in (-1.0, 0.0, 1.5):
            assert f_scale(nmap, 0, x) == pytest.approx(1.0)

    def test_sw2_f_is_the_exponent(self):
        system = build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0],
                                         "beta": 1.0, "eta_exp": -1.0})
        nmap, _ = reference_map(system)
        assert f_scale(nmap, 0, 0.8) == pytest.approx(-1.0)


class TestTau:
    def test_constant_f_gives_linear_tau(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [2.0]})
        nmap, _ = reference_map(system)
        spec = ExactSolutionSpec("morse", parameter_set(
            {"omega": [1.0], "zeta": [2.0]}, 1), (0.5,))
        traj = exact_trajectory(spec, 0.0, 3.0, 301)
        tau = tau_values(nmap, traj, 0, require_positive=True)
        assert np.max(np.abs(tau - 2.0 * traj.t)) < 1e-12

    def test_ml1_period_maps_to_two_pi(self):
        system, nmap, _ = ml1_map()
        spec = ExactSolutionSpec("ml1", parameter_set(
            {"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1), (1.0,))
        T = 2.0 * math.pi * math.sqrt(2.0)
        traj = exact_trajectory(spec, 0.0, T, 4001)
        tau = tau_values(nmap, traj, 0, require_positive=True)
        assert tau[-1] == pytest.approx(2.0 * math.pi, abs=1e-8)
        assert np.all(np.diff(tau) > 0.0)

    def test_nonpositive_scale_guard(self):
        system = build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0],
                                         "beta": 1.0, "eta_exp": -1.0})
        nmap, _ = reference_map(system)
        spec = ExactSolutionSpec("sw2", parameter_set(
            {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": -1.0}, 1),
            (1.2,))
        traj = exact_trajectory(spec, 0.0, 2.0, 101)
        with pytest.raises(NonPositiveScale):
            tau_values(nmap, traj, 0, require_positive=True)
        # the signed helper still integrates the decreasing clock
        tau = tau_values(nmap, traj, 0, require_positive=False)
        assert tau[-1] == pytest.approx(-2.0, abs=1e-10)

    @pytest.mark.parametrize("i", [2, -1])
    def test_coordinate_index_out_of_range(self, i):
        # neither a raw IndexError nor a negative index counted from the end
        system = build_system("ml1", 2, {"omega": [1.0, 2.0], "lambda": 0.5, "sign": "+"})
        nmap, _ = reference_map(system)
        traj = integrate(el1_rhs(system), State.of(0.0, [0.5, 0.25], [0.0, 0.0]),
                         IntegratorOptions(t_end=1.0))
        message = f"^i: expected a coordinate index 0 <= i < 2, got {i}$"
        for call in (lambda: q_map(nmap, i, 0.5), lambda: f_scale(nmap, i, 0.5),
                     lambda: coordinate_image(nmap, traj, i), lambda: tau_values(nmap, traj, i)):
            with pytest.raises(InvalidParameter, match=message):
                call()

    def test_inputs_that_are_not_an_index_or_a_number(self):
        # each raised a raw TypeError, IndexError or ValueError before
        system, nmap, ref = ml1_map()
        traj = exact_trajectory(ExactSolutionSpec("ml1", system.potential.params, (1.0,)),
                                0.0, 1.0, 11)
        for call, name, got in [
                (lambda: q_map(nmap, 0.5, 0), "i", "0.5"),
                (lambda: q_map(nmap, "0", 0.5), "i", "'0'"),
                (lambda: tau_values(nmap, traj, "0"), "i", "'0'"),
                (lambda: f_scale(nmap, 0, None), "x", "None"),
                (lambda: q_map(nmap, 0, [0.5]), "x", r"\[0.5\]"),
                (lambda: f_scale(nmap, 0, 10 ** 400), "x", "1" + "0" * 400)]:
            with pytest.raises(InvalidParameter, match=f"^{name}: expected .*, got {got}$"):
                call()
        # an integer index of any integer type, and a numeric x, are taken
        assert q_map(nmap, np.int64(0), 1) == q_map(nmap, 0, 1.0)

    def test_gauss_legendre_rule(self):
        x, w = np.polynomial.legendre.leggauss(4)
        assert np.max(np.abs(_GL_NODES - 0.5 * (1.0 + x))) <= 1e-15
        assert np.max(np.abs(_GL_WEIGHTS - 0.5 * w)) <= 1e-15

    def test_interpolant_trajectory_uses_gauss_legendre(self):
        # f = 1 + x m'/(2m) of ml1+; tau of the interpolant by a much finer
        # rule on the same dense output agrees to rounding
        system, nmap, _ = ml1_map()
        opts = IntegratorOptions(t_end=9.0, scheme=DOP853, rel_tol=1e-12, abs_tol=1e-14)
        traj = integrate(el1_rhs(system), State.of(0.0, [0.9], [0.0]), opts)
        tau = tau_values(nmap, traj, 0)
        fine = np.linspace(0.0, 9.0, 20001)
        x_fine, _ = sample_dense(traj, fine)
        f = np.array([f_scale(nmap, 0, float(x)) for x in x_fine[:, 0]])
        h = fine[1] - fine[0]
        simpson = h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())
        assert abs(tau[-1] - simpson) < 1e-12

    @pytest.mark.parametrize("periods,bound", [(1, 1e-10), (4, 2.5e-10)])
    def test_map_clock_stays_exact(self, tmp_path, periods, bound):
        # scheme unset at rtol 1e-12: DOP853, its interpolant and Gauss-Legendre;
        # each position period of ml1 advances tau by 2 pi
        params = {"omega": [1.0], "lambda": 1.0, "sign": "+"}
        spec = ExactSolutionSpec("ml1", parameter_set(params, 1), (0.9,))
        T = float(oscillation_period(spec)[0])
        cfg = tmp_path / "map.json"
        cfg.write_text(json.dumps({
            "family": "ml1", "n": 1, "params": params,
            "initial": {"from_exact": {"amplitude": [0.9]}},
            "integrator": {"rel_tol": 1e-12, "abs_tol": 1e-14, "t_end": periods * T}}))
        out, err = io.StringIO(), io.StringIO()
        assert run_cli(["map", "--config", str(cfg)], out, err) == 0
        header, *rows = out.getvalue().splitlines()
        tau_end = float(rows[-1].split(",")[header.split(",").index("tau_1")])
        assert abs(tau_end - 2.0 * math.pi * periods) < bound


class TestMapToReference:
    def test_constant_mass_is_identity(self):
        profile = CustomProfile.from_text("1")
        nmap = NonlocalMap(FAMILIES["ml1"], (profile,), ParameterSet())
        spec = ExactSolutionSpec("harmonic", parameter_set({"omega": [1.0]}, 1),
                                 (1.0,))
        traj = exact_trajectory(spec, 0.0, 5.0, 201)
        mapped = map_to_reference(nmap, traj)
        assert np.allclose(mapped.q, traj.x, atol=1e-14)
        assert np.allclose(mapped.qtilde, traj.v, atol=1e-14)
        assert np.allclose(mapped.tau[:, 0], traj.t, atol=1e-12)

    @pytest.mark.parametrize("dop853", [False, True])
    def test_each_point_runs_the_map_closure_once(self, dop853):
        # the batch map sees each node and each quadrature point once: a
        # Simpson midpoint per interval on 1,001 samples (2,001 points), or
        # four Gauss-Legendre points per interval on a DOP853 trajectory
        params = {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"}
        system = build_system("ml1", 2, params)
        nmap, _ = reference_map(system)
        spec = ExactSolutionSpec("ml1", parameter_set(params, 2), (0.9, 0.4))
        if dop853:
            traj = integrate(el1_rhs(system), exact_solution(spec, 0.0),
                             IntegratorOptions(t_end=5.0, scheme=DOP853))
        else:
            traj = exact_trajectory(spec, 0.0, 5.0, 1001)
        calls = [0, 0]

        def counted(i, batch):
            def wrapped(xs, columns=MAP_COLUMNS):
                calls[i] += len(xs)
                return batch(xs, columns)
            return wrapped
        expected = [(len(traj.t) + (4 if dop853 else 1) * (len(traj.t) - 1))] * 2
        plain = map_to_reference(nmap, traj)
        object.__setattr__(nmap, "batches", tuple(map(counted, range(2), nmap.batches)))
        mapped = map_to_reference(nmap, traj)
        assert calls == expected
        for name in ("tau", "q", "qtilde"):
            assert np.array_equal(getattr(mapped, name), getattr(plain, name))

    def test_ml1_maps_to_unit_frequency_harmonic(self):
        system, nmap, _ = ml1_map()
        spec = ExactSolutionSpec("ml1", parameter_set(
            {"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1), (1.0,))
        T = 2.0 * math.pi * math.sqrt(2.0)
        traj = exact_trajectory(spec, 0.0, 2.0 * T, 4001)
        mapped = map_to_reference(nmap, traj)
        B = 1.0 / math.sqrt(2.0)
        assert np.max(np.abs(mapped.q[:, 0] - B * np.cos(mapped.tau[:, 0]))) < 1e-8

    def test_mapped_trajectory_satisfies_reference_equations(self):
        system, nmap, ref = ml1_map()
        opts = IntegratorOptions(t_end=20.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(el1_rhs(system), State.of(0.0, [1.0], [0.0]), opts)
        worst = max(float(np.max(np.abs(elg_residual(nmap, system, ref,
                                                     traj.state(k)))))
                    for k in range(len(traj.t)))
        assert worst < 1e-6

    def test_two_coordinates_use_independent_clocks(self):
        # distinct frequencies and amplitudes give each coordinate its own
        # rescaled time; both images must still be unit-frequency cosines
        params = {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"}
        system = build_system("ml1", 2, params)
        nmap, _ = reference_map(system)
        spec = ExactSolutionSpec("ml1", parameter_set(params, 2), (1.0, 0.5))
        traj = exact_trajectory(spec, 0.0, 30.0, 6001)
        mapped = map_to_reference(nmap, traj)
        assert np.max(np.abs(mapped.tau[:, 0] - mapped.tau[:, 1])) > 1.0
        for i, (w, A) in enumerate([(1.0, 1.0), (2.0, 0.5)]):
            B = A / math.sqrt(1.0 + A * A)
            q_ref = B * np.cos(w * mapped.tau[:, i])
            assert np.max(np.abs(mapped.q[:, i] - q_ref)) < 1e-8

    def test_mapped_n2_trajectory_satisfies_reference_equations(self):
        params = {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"}
        system = build_system("ml1", 2, params)
        nmap, ref = reference_map(system)
        spec = ExactSolutionSpec("ml1", parameter_set(params, 2), (1.0, 0.5),
                                 phase=(0.0, 0.7))
        x0, v0, _ = kinematics_of(spec, 0.0)
        opts = IntegratorOptions(t_end=15.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(el1_rhs(system), State(0.0, x0, v0), opts)
        worst = max(float(np.max(np.abs(elg_residual(nmap, system, ref,
                                                     traj.state(k)))))
                    for k in range(len(traj.t)))
        assert worst < 1e-6


class TestPotentialMatch:
    def test_ml1_matches_harmonic(self):
        system, nmap, ref = ml1_map()
        for x in np.linspace(-2.0, 2.0, 41):
            if x == 0.0:
                continue
            assert potential_match_residual(nmap, system, ref, [[x]])[0] < 1e-13

    def test_morse_matches_harmonic(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        nmap, ref = reference_map(system)
        assert potential_match_residual(nmap, system, ref, [[1.0]])[0] < 1e-13

    def test_detuned_reference_detected(self):
        system, nmap, _ = ml1_map()
        wrong = build_system("harmonic", 1, {"omega": [2.0]})
        assert potential_match_residual(nmap, system, wrong, [[1.0]])[0] > 0.1

    def test_the_map_fails_before_the_potential(self):
        # x = 0 is the potential's pole, 5 outside the profile's domain: the
        # map's batch over both points runs first and raises at 5
        system = build_system("sw1", 1, {"omega": [1.0], "lambda": 0.5, "sign": "-",
                                         "kappa": [0.5]})
        nmap, ref = reference_map(system)
        with pytest.raises(DomainViolation, match="^x=5.0 outside the domain .* of profile"):
            potential_match_residual(nmap, system, ref, [[0.0], [5.0]])
        with pytest.raises(SingularPoint):
            potential_match_residual(nmap, system, ref, [[0.0], [1.0]])

    @pytest.mark.parametrize("points", [[1.0, 2.0], [[1.0, 2.0]], [[[1.0]]], [["a"]],
                                        [[1.0], [1.0, 2.0]], [[10 ** 400]], [[None]]])
    def test_points_must_be_an_n_column_array(self, points):
        system, nmap, ref = ml1_map()
        with pytest.raises(InvalidParameter, match="expected an"):
            potential_match_residual(nmap, system, ref, points)

    def test_custom_family_has_no_map(self):
        system = build_system("custom", 1, mass_exprs=["1+x^2"])
        with pytest.raises(UnsupportedFamily):
            reference_map(system)


# every mapped family, with its parameters other than the seeded omega and kappa
_MAPPED_PARAMS = {
    "ml1": {"lambda": 0.7, "sign": "+"},
    "powerlaw": {"alpha": 1.3, "upsilon": 0.5},
    "ml2": {"lambda": 0.25, "sign": "-", "eta_const": 2.0},
    "morse": {"zeta": 0.8},
    "sw1": {"lambda": 0.6, "sign": "-"},
    "sw2": {"beta": 1.2, "eta_exp": -1.0},
}


class TestReferenceOracle:
    """The reference of every mapped family against hand-written V and dV/dq.

    Harmonic: V = (1/2) sum w^2 q^2, dV/dq = w^2 q.  Isotonic: both gain the
    inverse-square term, V += (1/2) sum kappa/q^2, dV/dq -= kappa/q^3.
    """

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_MAPPED_PARAMS))
    def test_catalog_reference_matches_hand_written(self, family, n):
        assert sorted(_MAPPED_PARAMS) == sorted(f for f, r in FAMILIES.items() if r.reference != f)
        record = FAMILIES[family]
        rng = np.random.default_rng([n, len(family), ord(family[-1])])
        w = rng.uniform(0.3, 3.0, n)
        k = rng.uniform(0.2, 2.0, n) if record.reference == "isotonic" else np.zeros(n)
        params = dict(_MAPPED_PARAMS[family], omega=list(w))
        if record.reference == "isotonic":
            params["kappa"] = list(k)
        _, ref = reference_map(build_system(family, n, params))
        assert isinstance(ref, PdmSystem)
        assert ref.potential.family == record.reference
        for _ in range(1000):
            q = rng.uniform(0.1, 3.0, n) * rng.choice([-1.0, 1.0], n)
            v_want = sum(0.5 * (w[i] * w[i] * q[i] * q[i] + k[i] / (q[i] * q[i]))
                         for i in range(n))
            assert abs(potential_energy(ref, q) - v_want) <= 1e-14 * v_want
            grad = potential_gradient(ref, q)
            for i in range(n):
                spring, wall = w[i] * w[i] * q[i], k[i] / q[i] ** 3
                assert abs(grad[i] - (spring - wall)) <= 1e-14 * (abs(spring) + abs(wall))


class TestObstruction:
    def test_probe_value(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
        st = State.of(0.0, [1.0, 0.0], [0.0, 1.0])
        assert el2_obstruction(system, st) == pytest.approx(0.5)

    def test_constant_mass_has_no_obstruction(self):
        system = build_system("custom", 2, mass_exprs=["2"], kind=TYPE2)
        st = State.of(0.0, [1.0, -1.0], [2.0, 3.0])
        assert el2_obstruction(system, st) == 0.0

    def test_requires_type2(self):
        system, _, _ = ml1_map()
        with pytest.raises(InvalidParameter):
            el2_obstruction(system, State.of(0.0, [0.0], [0.0]))

    def test_n2_mapped_residual_is_order_one(self):
        system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
        opts = IntegratorOptions(t_end=5.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(el2_rhs(system), State.of(0.0, [0.4, -0.3], [0.7, 0.5]),
                         opts)
        worst = max(float(np.max(np.abs(el2_mapped_residual(system, traj.state(k)))))
                    for k in range(len(traj.t)))
        assert worst > 1e-2

    def test_mapped_residual_where_f_vanishes(self):
        # f_1 = 1 - x_1^2 is 0 at x_1 = 1: an unbounded residual, with no
        # numpy division warning, as elg_residual treats f = 0
        system = build_system("custom", 2, mass_exprs=["exp(-x1^2-x2^2)"], kind=TYPE2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            moving = el2_mapped_residual(system, State.of(0.0, [1.0, 0.5], [0.3, 0.2]))
            at_rest = el2_mapped_residual(system, State.of(0.0, [1.0, 0.0], [0.0, 0.0]))
        assert moving[0] == math.inf and moving[1] == pytest.approx(0.0107052, rel=1e-5)
        assert at_rest[0] == 0.0

    def test_n1_mapped_residual_vanishes(self):
        system = build_system("custom", 1, mass_exprs=["1+x1^2"], kind=TYPE2)
        opts = IntegratorOptions(t_end=5.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(el2_rhs(system), State.of(0.0, [0.4], [0.7]), opts)
        worst = max(float(np.max(np.abs(el2_mapped_residual(system, traj.state(k)))))
                    for k in range(len(traj.t)))
        assert worst < 1e-8
