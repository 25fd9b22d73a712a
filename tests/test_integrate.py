"""Integrator tests: step correctness, guards, dense output, periods."""

import math

import numpy as np
import pytest

from pdmdyn.core import State, build_system, parameter_set
from pdmdyn.errors import DomainViolation, InvalidParameter, NoPeriod
from pdmdyn.exact import ExactSolutionSpec, exact_trajectory, kinematics
from pdmdyn.integrate import (ADAPTIVE45, FIXED_RK4, IntegratorOptions, _A, _B4,
                              _B5, _C, _E, _RK4_A, _RK4_C, estimate_period,
                              integrate, sample_dense)
from pdmdyn.verify import el1_rhs


def harmonic_rhs(t, x, v):
    return -x


class Counted:
    """An RHS that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t, x, v):
        self.calls += 1
        return self.fn(t, x, v)


# Dormand-Prince 5(4) coefficients as separate rows, summed stage by stage
# with Python sums over lists: the reference for the stage-array stepper.
_REF_A = [
    [],
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
]
_REF_C = [0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0]
_REF_B5 = [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0]


def reference_dp5_step(rhs, t, x, v, h):
    """One 5th-order Dormand-Prince step of (x, v) -> (v, a), loop form."""
    n = len(x)

    def fy(tt, yy):
        return np.concatenate([yy[n:], rhs(tt, yy[:n], yy[n:])])

    y = np.concatenate([x, v])
    k = [fy(t, y)]
    for i in range(1, 7):
        yi = y + h * sum(_REF_A[i][j] * k[j] for j in range(i))
        k.append(fy(t + _REF_C[i] * h, yi))
    return y + h * sum(_REF_B5[j] * k[j] for j in range(7))


def reference_rk4_step(rhs, t, x, v, h):
    """One classical RK4 step of (x, v) -> (v, a), stage by stage."""
    k1x, k1v = v, rhs(t, x, v)
    k2x, k2v = v + 0.5 * h * k1v, rhs(t + 0.5 * h, x + 0.5 * h * k1x, v + 0.5 * h * k1v)
    k3x, k3v = v + 0.5 * h * k2v, rhs(t + 0.5 * h, x + 0.5 * h * k2x, v + 0.5 * h * k2v)
    k4x, k4v = v + h * k3v, rhs(t + h, x + h * k3x, v + h * k3v)
    xn = x + (h / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
    vn = v + (h / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
    return np.concatenate([xn, vn])


def random_rhs(n, rng):
    """A smooth, coupled, time-dependent RHS of dimension n."""
    M = rng.normal(size=(n, n))
    D = rng.normal(size=(n, n))

    def rhs(t, x, v):
        return M @ np.sin(x) - D @ (x * v) + math.cos(t)
    return rhs


class TestOptions:
    def test_bad_scheme(self):
        with pytest.raises(InvalidParameter):
            IntegratorOptions(t_end=1.0, scheme="euler")

    def test_bad_tolerances(self):
        with pytest.raises(InvalidParameter):
            IntegratorOptions(t_end=1.0, rel_tol=0.0)

    def test_h_ordering(self):
        with pytest.raises(InvalidParameter):
            IntegratorOptions(t_end=1.0, h_init=1.0, h_max=0.1)

    @pytest.mark.parametrize("name,value", [
        ("t_end", math.nan), ("t_end", math.inf), ("t_end", -math.inf),
        ("h", math.nan), ("h", math.inf),
        ("rel_tol", math.nan), ("rel_tol", math.inf),
        ("abs_tol", math.nan), ("abs_tol", math.inf),
        # step sizes must also be positive
        ("h", 0.0), ("h", -0.1),
        ("h_init", 0.0), ("h_init", -0.5), ("h_init", math.nan),
        ("h_min", 0.0), ("h_min", -1.0), ("h_min", -math.inf), ("h_min", math.nan),
    ])
    def test_non_finite_values(self, name, value):
        kw = dict({"t_end": 1.0}, **{name: value})
        with pytest.raises(InvalidParameter) as err:
            IntegratorOptions(**kw)
        assert err.value.field == name

    @pytest.mark.parametrize("steps", [{"h_init": -0.5, "h_min": -1.0, "h_max": 1.0},
                                       {"h_init": 0.0, "h_min": 0.0, "h_max": 0.0}])
    def test_ordered_non_positive_steps(self, steps):
        # these pass h_min <= h_init <= h_max, yet stepped backwards or stood
        # still until max_steps
        with pytest.raises(InvalidParameter) as err:
            IntegratorOptions(t_end=1.0, **steps)
        assert err.value.field == "h_init"

    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_end_before_initial_time(self, scheme):
        opts = IntegratorOptions(t_end=-5.0, scheme=scheme)
        with pytest.raises(InvalidParameter) as err:
            integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert err.value.field == "t_end"

    @pytest.mark.parametrize("t0,x,v", [(0.0, [math.nan], [0.0]), (0.0, [1.0], [math.inf]),
                                        (0.0, [1.0, -math.inf], [0.0, 0.0]),
                                        (math.nan, [1.0], [0.0])])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_non_finite_initial_state(self, scheme, t0, x, v):
        with pytest.raises(InvalidParameter) as err:
            integrate(harmonic_rhs, State.of(t0, x, v), IntegratorOptions(t_end=1.0, scheme=scheme))
        assert err.value.field == "initial"

    def test_end_at_initial_time_is_one_row(self):
        traj = integrate(harmonic_rhs, State.of(2.0, [1.0], [0.0]),
                         IntegratorOptions(t_end=2.0))
        assert len(traj) == 1 and traj.termination.kind == "completed"


def _raising_beyond(limit, error):
    """Harmonic RHS that raises error once |x| exceeds limit, as a catalog
    formula does when a mass underflows to 0 or an exp overflows."""
    def rhs(t, x, v):
        if np.any(np.abs(x) > limit):
            raise error("float arithmetic")
        return -x
    return rhs


class TestArithmeticErrors:
    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_at_initial_state_is_domain_violation(self, scheme, error):
        opts = IntegratorOptions(t_end=1.0, scheme=scheme)
        with pytest.raises(DomainViolation) as err:
            integrate(_raising_beyond(0.5, error), State.of(0.0, [1.0], [0.0]), opts)
        assert err.value.t == 0.0
        assert isinstance(err.value.__cause__, error)

    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_non_finite_rhs_at_initial_state(self, scheme):
        # an RHS whose float arithmetic overflowed to inf at a finite state
        opts = IntegratorOptions(t_end=1.0, scheme=scheme)
        with pytest.raises(DomainViolation, match="^float overflow at the initial state$"):
            integrate(lambda t, x, v: np.full_like(x, math.inf),
                      State.of(0.0, [1.0], [0.0]), opts)

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_mid_run_truncates(self, scheme, error):
        # the orbit x = cos(t) passes |x| = 0.5 and later reaches 1
        opts = IntegratorOptions(t_end=5.0, scheme=scheme, h=0.01)
        traj = integrate(_raising_beyond(0.9, error), State.of(0.0, [0.5], [-0.8]), opts)
        assert traj.termination.kind == "domain_violation"
        assert 0.0 < traj.termination.t < 5.0
        assert np.max(np.abs(traj.x)) <= 0.9
        if scheme == ADAPTIVE45:
            assert traj.rejected > 0  # retried closer to the boundary first


class TestIntegrate:
    def test_ml1_returns_to_start_after_one_period(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+"})
        T = 2.0 * math.pi * math.sqrt(2.0)
        opts = IntegratorOptions(t_end=T, scheme=ADAPTIVE45,
                                 rel_tol=1e-10, abs_tol=1e-12)
        traj = integrate(el1_rhs(system), State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "completed"
        assert abs(traj.x[-1, 0] - 1.0) < 1e-7
        assert abs(traj.v[-1, 0]) < 1e-7

    def test_morse_stays_within_closed_form_bounds(self):
        system = build_system("morse", 1, {"omega": [1.0], "zeta": [1.0]})
        spec = ExactSolutionSpec("morse", parameter_set(
            {"omega": [1.0], "zeta": [1.0]}, 1), (0.5,))
        x0, v0, _ = kinematics(spec, 0.0)
        opts = IntegratorOptions(t_end=40.0, scheme=ADAPTIVE45, rel_tol=1e-10)
        traj = integrate(el1_rhs(system), State(0.0, x0, v0), opts)
        assert traj.termination.kind == "completed"
        assert np.all(traj.x >= math.log(0.5) - 1e-9)
        assert np.all(traj.x <= math.log(1.5) + 1e-9)

    def test_minus_branch_stage_guard_truncates_fixed_stepping(self):
        # launched just inside the domain edge, a coarse fixed step pokes a
        # stage past the wall; the per-stage guard turns that into a clean
        # truncation instead of a silently corrupted step
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "-"})
        opts = IntegratorOptions(t_end=10.0, scheme=FIXED_RK4, h=0.01)
        rhs = Counted(el1_rhs(system))
        traj = integrate(rhs, State.of(0.0, [0.9999], [0.5]), opts)
        assert traj.termination.kind in ("domain_violation", "step_failure")
        assert traj.t[-1] < 10.0
        assert np.all(np.abs(traj.x) < 1.0)
        assert traj.nfev == rhs.calls

    def test_vanishing_mass_truncates_adaptive(self):
        # a mass zero inside the working interval makes the velocity diverge
        # in finite time; the adaptive run must stop, not wander outside
        system = build_system("custom", 1, mass_exprs=["1-x^2"])
        opts = IntegratorOptions(t_end=10.0, scheme=ADAPTIVE45, rel_tol=1e-8)
        rhs = Counted(el1_rhs(system))
        traj = integrate(rhs, State.of(0.0, [0.9], [0.5]), opts)
        assert traj.termination.kind in ("domain_violation", "step_failure")
        assert traj.t[-1] < 10.0
        assert np.all(np.abs(traj.x) <= 1.0)
        assert traj.nfev == rhs.calls

    def test_minus_branch_potential_wall_confines_adaptive(self):
        # the catalog potential diverges at the domain edge, so the true
        # orbit turns around inside it; stage-level retries let the adaptive
        # scheme resolve the turn instead of aborting
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "-"})
        opts = IntegratorOptions(t_end=10.0, scheme=ADAPTIVE45, rel_tol=1e-8)
        rhs = Counted(el1_rhs(system))
        traj = integrate(rhs, State.of(0.0, [0.9999], [0.5]), opts)
        assert traj.termination.kind == "completed"
        assert np.all(np.abs(traj.x) < 1.0)
        # some attempts stopped part-way through their six stages at the
        # domain check and were retried; their stages count too
        assert (traj.nfev - 1) % 6 != 0
        assert traj.nfev == rhs.calls

    @pytest.mark.parametrize("scheme", [ADAPTIVE45, FIXED_RK4])
    def test_domain_violation_truncates_at_its_coordinate(self, scheme):
        def rhs(t, x, v):
            if abs(x[0]) > 0.5:
                raise DomainViolation("left the watched region", t=t, coordinate=0)
            return -x

        opts = IntegratorOptions(t_end=10.0, scheme=scheme, h=0.01, rel_tol=1e-8)
        traj = integrate(rhs, State.of(0.0, [0.0], [1.0]), opts)
        assert traj.termination.kind == "domain_violation"
        assert traj.termination.coordinate == 0
        assert np.all(np.abs(traj.x) <= 0.5)

    def test_fixed_rk4_scheme(self):
        opts = IntegratorOptions(t_end=2.0 * math.pi, scheme=FIXED_RK4, h=1e-3)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "completed"
        assert abs(traj.x[-1, 0] - 1.0) < 1e-10

    def test_fixed_rk4_reuses_the_last_stage(self):
        # four RHS calls per step plus the initial acceleration
        opts = IntegratorOptions(t_end=1.0, scheme=FIXED_RK4, h=0.01)
        rhs = Counted(harmonic_rhs)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert (traj.termination.kind, traj.accepted) == ("completed", 100)
        assert traj.nfev == rhs.calls == 1 + 4 * traj.accepted

    def test_step_statistics_populated(self):
        opts = IntegratorOptions(t_end=5.0, scheme=ADAPTIVE45, rel_tol=1e-10)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.accepted == len(traj.t) - 1
        assert traj.max_error <= 1.0
        assert traj.rejected >= 0

    def test_dense_output_accuracy(self):
        opts = IntegratorOptions(t_end=6.0, scheme=ADAPTIVE45, rel_tol=1e-10)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        ts = np.linspace(0.1, 5.9, 137)
        xs, vs = sample_dense(traj, ts)
        assert np.max(np.abs(xs[:, 0] - np.cos(ts))) < 1e-7
        assert np.max(np.abs(vs[:, 0] + np.sin(ts))) < 1e-7

    def test_states_round_trip(self):
        opts = IntegratorOptions(t_end=1.0, scheme=FIXED_RK4, h=0.25)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        states = [traj.state(k) for k in range(len(traj))]
        assert len(states) == len(traj.t)
        assert states[0].x[0] == 1.0
        assert np.all(np.diff(traj.t) > 0)


class TestDormandPrince:
    def test_tableau_rows_sum_to_nodes(self):
        for i in range(7):
            assert math.fsum(_A[i]) == pytest.approx(_C[i], abs=1e-15)

    def test_last_row_is_fifth_order_weights(self):
        # first-same-as-last: the last stage is evaluated at the new state
        assert np.array_equal(_A[6], _B5)

    def test_weights_are_consistent(self):
        assert math.fsum(_B5) == pytest.approx(1.0, abs=1e-15)
        assert math.fsum(_B4) == pytest.approx(1.0, abs=1e-15)

    def test_error_weights_match_scipy(self):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        # scipy estimates B4 - B5 where this stepper estimates B5 - B4
        assert np.max(np.abs(_E + rk.RK45.E)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_matches_loop_reference(self, n):
        rng = np.random.default_rng(7 + n)
        rhs = random_rhs(n, rng)
        for _ in range(25):
            x, v = rng.normal(size=n), rng.normal(size=n)
            t0, h = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.2)
            opts = IntegratorOptions(t_end=t0 + h, h_init=h, rel_tol=1.0,
                                     abs_tol=1.0)
            traj = integrate(rhs, State(t0, x, v), opts)
            assert (traj.accepted, traj.rejected) == (1, 0)
            ref = reference_dp5_step(rhs, t0, x, v, h)
            got = np.concatenate([traj.x[-1], traj.v[-1]])
            assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))


class TestRk4Tableau:
    def test_tableau_rows_sum_to_nodes(self):
        for i in range(5):
            assert math.fsum(_RK4_A[i]) == pytest.approx(_RK4_C[i], abs=1e-15)

    def test_last_row_is_the_weights(self):
        # first-same-as-last: the last stage is evaluated at the new state
        assert np.array_equal(_RK4_A[4], [1 / 6, 1 / 3, 1 / 3, 1 / 6, 0.0])
        assert math.fsum(_RK4_A[4]) == 1.0

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_matches_loop_reference(self, n):
        rng = np.random.default_rng(17 + n)
        rhs = random_rhs(n, rng)
        for _ in range(25):
            x, v = rng.normal(size=n), rng.normal(size=n)
            t0, h = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.2)
            opts = IntegratorOptions(t_end=t0 + h, scheme=FIXED_RK4, h=h)
            traj = integrate(rhs, State(t0, x, v), opts)
            assert traj.accepted == 1
            ref = reference_rk4_step(rhs, t0, x, v, h)
            got = np.concatenate([traj.x[-1], traj.v[-1]])
            assert np.max(np.abs(got - ref)) <= 4 * np.spacing(np.max(np.abs(ref)))


class TestMaxSteps:
    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_step_budget_is_a_step_failure(self, scheme):
        opts = IntegratorOptions(t_end=10.0, scheme=scheme, h=1e-3,
                                 rel_tol=1e-12, max_steps=100)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "step_failure"
        assert traj.termination.t == traj.t[-1] < 10.0
        assert traj.accepted + traj.rejected == 100


class TestEvaluationCount:
    @pytest.mark.parametrize("scheme", [FIXED_RK4, ADAPTIVE45])
    def test_nfev_counts_every_rhs_call(self, scheme):
        rhs = Counted(harmonic_rhs)
        opts = IntegratorOptions(t_end=3.0, scheme=scheme, h=0.01, rel_tol=1e-10)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "completed"
        assert traj.nfev == rhs.calls > 1

    def test_closed_form_trajectory_has_no_evaluations(self):
        spec = ExactSolutionSpec("harmonic", parameter_set({"omega": [1.0]}, 1), (1.0,))
        assert exact_trajectory(spec, 0.0, 1.0, 11).nfev == 0


class TestRk4Order:
    def test_halving_reduces_error_sixteenfold(self):
        errs = []
        for h in (0.05, 0.025):
            opts = IntegratorOptions(t_end=20.0 * math.pi, scheme=FIXED_RK4, h=h)
            traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
            errs.append(float(np.max(np.abs(traj.x[:, 0] - np.cos(traj.t)))))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0


class TestEstimatePeriod:
    def test_known_cosine(self):
        ts = np.linspace(0.0, 20.0, 4001)
        x = np.cos(2.0 * ts)
        traj_spec = ExactSolutionSpec("harmonic", parameter_set(
            {"omega": [2.0]}, 1), (1.0,))
        traj = exact_trajectory(traj_spec, 0.0, 20.0, 4001)
        measured = estimate_period(traj, 0)
        assert measured == pytest.approx(math.pi, rel=1e-6)
        assert np.allclose(traj.x[:, 0], x, atol=1e-12)

    def test_ml1_measured_period(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+"})
        T = 2.0 * math.pi * math.sqrt(2.0)
        opts = IntegratorOptions(t_end=6.0 * T, scheme=ADAPTIVE45, rel_tol=1e-10)
        traj = integrate(el1_rhs(system), State.of(0.0, [1.0], [0.0]), opts)
        measured = estimate_period(traj, 0)
        assert measured == pytest.approx(8.885766, rel=1e-6)

    def test_monotone_signal_has_no_period(self):
        opts = IntegratorOptions(t_end=5.0, scheme=FIXED_RK4, h=0.01)

        def free(t, x, v):
            return np.zeros_like(x)

        traj = integrate(free, State.of(0.0, [0.0], [1.0]), opts)
        with pytest.raises(NoPeriod):
            estimate_period(traj, 0)

    def test_drifting_period_rejected(self):
        from pdmdyn.core import Termination, Trajectory
        ts = np.linspace(0.0, 30.0, 6001)
        x = np.cos(ts + 0.05 * ts * ts)  # chirp: crossings drift > 1%
        traj = Trajectory(ts, x[:, None], np.gradient(x, ts)[:, None],
                          np.zeros_like(x)[:, None], len(ts), 0, 0.0,
                          Termination("completed"))
        with pytest.raises(NoPeriod):
            estimate_period(traj, 0)
