"""Integrator tests: step correctness, guards, dense output, periods."""

import importlib
import math
import tracemalloc

import numpy as np
import pytest

from pdmdyn.core import State, Termination, build_system, parameter_set
from pdmdyn.errors import DomainViolation, InvalidParameter, NoPeriod
from pdmdyn.exact import ExactSolutionSpec, exact_trajectory, kinematics
from pdmdyn.cli import ConfigError, _integrator_options
from pdmdyn.integrate import (DOP853, FIXED_RK4, IntegratorOptions, _DOP_A, _DOP_C,
                              _DOP_D, _DOP_E3, _DOP_E5, _RK4_A, _RK4_C, estimate_period,
                              integrate, sample_dense)
from pdmdyn.eom import el1_rhs

# the module, which the package's integrate function shadows as an attribute
integrate_module = importlib.import_module("pdmdyn.integrate")


def harmonic_rhs(t, x, v):
    return -np.asarray(x)


class Counted:
    """An RHS that counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, t, x, v):
        self.calls += 1
        return self.fn(t, x, v)


def reference_dop853_step(rhs, t, x, v, h):
    """One 8th-order Dormand-Prince step of (x, v) -> (v, a), loop form: stage
    i sums row i of the dense tableau over every earlier stage, zeros too."""
    n = len(x)

    def fy(tt, yy):
        return np.concatenate([yy[n:], rhs(tt, yy[:n], yy[n:])])

    y = np.concatenate([x, v])
    k = [fy(t, y)]
    for i in range(1, 12):
        yi = y + h * sum(_DOP_A[i, j] * k[j] for j in range(i))
        k.append(fy(t + _DOP_C[i] * h, yi))
    return y + h * sum(_DOP_A[12, j] * k[j] for j in range(12))


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
        x, v = np.asarray(x), np.asarray(v)
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
        # still until MAX_STEPS
        with pytest.raises(InvalidParameter) as err:
            IntegratorOptions(t_end=1.0, **steps)
        assert err.value.field == "h_init"

    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_end_before_initial_time(self, scheme):
        opts = IntegratorOptions(t_end=-5.0, scheme=scheme)
        with pytest.raises(InvalidParameter) as err:
            integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert err.value.field == "t_end"

    @pytest.mark.parametrize("t0,x,v", [(0.0, [math.nan], [0.0]), (0.0, [1.0], [math.inf]),
                                        (0.0, [1.0, -math.inf], [0.0, 0.0]),
                                        (math.nan, [1.0], [0.0])])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
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
        return -np.asarray(x)
    return rhs


class TestArithmeticErrors:
    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_at_initial_state_is_domain_violation(self, scheme, error):
        opts = IntegratorOptions(t_end=1.0, scheme=scheme)
        with pytest.raises(DomainViolation) as err:
            integrate(_raising_beyond(0.5, error), State.of(0.0, [1.0], [0.0]), opts)
        assert err.value.t == 0.0
        assert isinstance(err.value.__cause__, error)

    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_non_finite_rhs_at_initial_state(self, scheme):
        # an RHS whose float arithmetic overflowed to inf at a finite state
        opts = IntegratorOptions(t_end=1.0, scheme=scheme)
        with pytest.raises(DomainViolation, match="^float overflow at the initial state$"):
            integrate(lambda t, x, v: np.full_like(x, math.inf),
                      State.of(0.0, [1.0], [0.0]), opts)

    @pytest.mark.parametrize("error", [ZeroDivisionError, OverflowError])
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_mid_run_truncates(self, scheme, error):
        # the orbit x = cos(t) passes |x| = 0.5 and later reaches 1
        opts = IntegratorOptions(t_end=5.0, scheme=scheme, h=0.01)
        traj = integrate(_raising_beyond(0.9, error), State.of(0.0, [0.5], [-0.8]), opts)
        assert traj.termination.kind == "domain_violation"
        assert 0.0 < traj.termination.t < 5.0
        assert np.max(np.abs(traj.x)) <= 0.9
        if scheme == DOP853:
            assert traj.rejected > 0  # retried closer to the boundary first


class TestIntegrate:
    def test_ml1_returns_to_start_after_one_period(self):
        system = build_system("ml1", 1, {"omega": [1.0], "lambda": 1.0,
                                         "sign": "+"})
        T = 2.0 * math.pi * math.sqrt(2.0)
        opts = IntegratorOptions(t_end=T, scheme=DOP853,
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
        opts = IntegratorOptions(t_end=40.0, scheme=DOP853, rel_tol=1e-10)
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
        opts = IntegratorOptions(t_end=10.0, scheme=DOP853, rel_tol=1e-8)
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
        # from v = 0.5 no DOP853 stage crosses the wall; from 2.0 some do, so
        # there are retries to count
        opts = IntegratorOptions(t_end=3.0, scheme=DOP853, rel_tol=1e-8)
        rhs = Counted(el1_rhs(system))
        traj = integrate(rhs, State.of(0.0, [0.9999], [2.0]), opts)
        assert traj.termination.kind == "completed"
        assert np.all(np.abs(traj.x) < 1.0)
        # some attempts stopped part-way through their twelve stages at the
        # domain check and were retried; their stages count too
        assert traj.rejected_guard > 0
        assert (traj.nfev - 1) % 12 != 0
        assert traj.nfev == rhs.calls

    @pytest.mark.parametrize("scheme", [DOP853, FIXED_RK4])
    def test_domain_violation_truncates_at_its_coordinate(self, scheme):
        def rhs(t, x, v):
            if abs(x[0]) > 0.5:
                raise DomainViolation("left the watched region", t=t, coordinate=0)
            return -np.asarray(x)

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

    def test_fixed_rk4_stops_at_a_non_finite_step(self):
        # float arithmetic that overflows returns inf instead of raising; the
        # fixed scheme has no error estimate to reject the step
        def rhs(t, x, v):
            return [math.inf if abs(x[0]) > 0.9 else -x[0]]

        opts = IntegratorOptions(t_end=3.0, scheme=FIXED_RK4, h=0.01)
        traj = integrate(rhs, State.of(0.0, [0.5], [0.8]), opts)
        assert traj.termination == Termination("step_failure", traj.t[-1])
        assert 0.0 < traj.t[-1] < 3.0
        assert all(np.all(np.isfinite(a)) for a in (traj.x, traj.v, traj.a))

    def test_fixed_rk4_reuses_the_last_stage(self):
        # four RHS calls per step plus the initial acceleration
        opts = IntegratorOptions(t_end=1.0, scheme=FIXED_RK4, h=0.01)
        rhs = Counted(harmonic_rhs)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert (traj.termination.kind, traj.accepted) == ("completed", 100)
        assert traj.nfev == rhs.calls == 1 + 4 * traj.accepted

    def test_step_statistics_populated(self):
        opts = IntegratorOptions(t_end=5.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.accepted == len(traj.t) - 1
        assert traj.max_error <= 1.0
        assert traj.rejected >= 0

    def test_dense_output_accuracy(self):
        opts = IntegratorOptions(t_end=6.0, scheme=DOP853, rel_tol=1e-10)
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
    """One step of the Dormand-Prince 8(5,3) pair against a loop over its
    dense tableau, with no scipy."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_matches_loop_reference(self, n):
        rng = np.random.default_rng(7 + n)
        rhs = random_rhs(n, rng)
        for _ in range(25):
            x, v = rng.normal(size=n), rng.normal(size=n)
            t0, h = rng.uniform(-1.0, 1.0), rng.uniform(0.01, 0.2)
            opts = IntegratorOptions(t_end=t0 + h, h_init=h, rel_tol=1.0, abs_tol=1.0)
            traj = integrate(rhs, State(t0, x, v), opts)
            assert (traj.accepted, traj.rejected) == (1, 0)
            ref = reference_dop853_step(rhs, t0, x, v, h)
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


def _grow(tree):
    """Every rooted tree made from tree by attaching one leaf; a tree is the
    sorted tuple of its root's subtrees."""
    out = {tuple(sorted(tree + ((),)))}
    for k, child in enumerate(tree):
        for grown in _grow(child):
            out.add(tuple(sorted(tree[:k] + (grown,) + tree[k + 1:])))
    return out


def _trees(order):
    trees = {()}
    for _ in range(order - 1):
        trees = set().union(*map(_grow, trees))
    return trees


def _order_defects(A, b, order):
    """Largest |gamma(t) b.Phi(t) - 1| over the rooted trees t of this order."""
    def phi(tree):
        out = np.ones(len(b))
        for child in tree:
            out = out * (A @ phi(child))
        return out

    def size_gamma(tree):
        sizes, gammas = zip(*map(size_gamma, tree)) if tree else ((), ())
        size = 1 + sum(sizes)
        return size, size * math.prod(gammas)

    return max(abs(size_gamma(t)[1] * float(b @ phi(t)) - 1.0) for t in _trees(order))


class TestDop853Tableau:
    # the method proper: stages 0-11, weights b in row 12
    A, b = _DOP_A[:12, :12], _DOP_A[12, :12]

    def test_tree_counts(self):
        assert [len(_trees(p)) for p in range(1, 9)] == [1, 1, 2, 4, 9, 20, 48, 115]

    def test_rows_sum_to_nodes(self):
        # the three dense-output stages too
        for row, c in zip(_DOP_A, _DOP_C):
            assert abs(math.fsum(row) - c) <= 1e-15 * max(1.0, np.abs(row).sum())

    def test_last_row_is_the_weights(self):
        # first-same-as-last: stage 12 is evaluated at the new state
        assert _DOP_C[12] == 1.0 and not np.any(_DOP_A[12, 12:])
        assert math.fsum(self.b) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("order", range(1, 9))
    def test_weights_are_eighth_order(self, order):
        assert _order_defects(self.A, self.b, order) <= 1e-13

    def test_weights_are_not_ninth_order(self):
        assert _order_defects(self.A, self.b, 9) > 1e-3

    @pytest.mark.parametrize("order", range(1, 6))
    def test_embedded_estimates(self, order):
        # b - E5 is a 5th-order and b - E3 a 3rd-order solution
        assert _order_defects(self.A, self.b - _DOP_E5[:12], order) <= 1e-13
        if order <= 3:
            assert _order_defects(self.A, self.b - _DOP_E3[:12], order) <= 1e-13
        assert _order_defects(self.A, self.b - _DOP_E5[:12], 6) > 1e-3
        assert _order_defects(self.A, self.b - _DOP_E3[:12], 4) > 1e-3

    @pytest.mark.parametrize("theta", [0.1, 0.25, 0.5, 0.8])
    def test_dense_output_weights_are_seventh_order(self, theta):
        # sample_dense's F_0 = b, F_1 = e_0 - b, F_2 = 2b - e_0 - e_12 and
        # F_3..F_6 = D give weights b(theta) over the 16 stages; a 7th-order
        # interpolant meets gamma(t) b(theta).Phi(t) = theta^|t| through order 7
        b, e = _DOP_A[12], np.eye(16)
        F = [b, e[0] - b, 2 * b - e[0] - e[12], *_DOP_D]
        acc = F[6]
        for j in range(5, -1, -1):
            acc = F[j] + (theta if j % 2 else 1.0 - theta) * acc
        defects = [_order_defects(_DOP_A, theta * acc / theta ** p, p) * theta ** p
                   for p in range(1, 9)]
        assert max(defects[:7]) <= 1e-13
        assert defects[7] > 1e-4

    def test_coefficients_match_scipy(self):
        dop = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        assert dop.N_STAGES_EXTENDED == 16
        for ours, theirs in ((_DOP_A, dop.A), (_DOP_C, dop.C), (_DOP_E5, dop.E5),
                             (_DOP_E3, dop.E3), (_DOP_D, dop.D)):
            assert ours.shape == theirs.shape
            assert np.max(np.abs(ours - theirs)) <= 1e-15

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_step_and_dense_output_match_scipy(self, n):
        rk = pytest.importorskip("scipy.integrate._ivp.rk")
        rng = np.random.default_rng(27 + n)
        rhs = random_rhs(n, rng)

        def fun(t, y):
            return np.concatenate([y[n:], rhs(t, y[:n], y[n:])])

        for _ in range(10):
            x, v = rng.normal(size=n), rng.normal(size=n)
            t0 = rng.uniform(-1.0, 1.0)
            h = (t0 + rng.uniform(0.05, 0.3)) - t0      # a step both land on exactly
            solver = rk.DOP853(fun, t0, np.concatenate([x, v]), t0 + 1.0, first_step=h,
                               rtol=1.0, atol=1.0)
            solver.step()
            traj = integrate(rhs, State(t0, x, v), IntegratorOptions(
                t_end=t0 + h, scheme=DOP853, h_init=h, rel_tol=1.0, abs_tol=1.0))
            assert (traj.accepted, traj.rejected, solver.t) == (1, 0, traj.t[-1])
            got = np.concatenate([traj.x[-1], traj.v[-1]])
            assert np.max(np.abs(got - solver.y)) <= 1e-14 * max(1.0, np.max(np.abs(got)))
            ts = t0 + h * np.array([0.1, 0.37, 0.5, 0.9])
            xs, vs = sample_dense(traj, ts)
            ref = solver.dense_output()(ts).T
            assert np.max(np.abs(np.hstack([xs, vs]) - ref)) <= 1e-14 * max(1.0, np.max(np.abs(ref)))


class TestDop853Order:
    def test_global_error_is_eighth_order(self):
        # fixed steps: h_min = h_init = h_max, and tolerances every step meets
        errs = []
        for h in (0.4, 0.2):
            opts = IntegratorOptions(t_end=64.0, scheme=DOP853, h_init=h, h_min=h, h_max=h,
                                     rel_tol=1.0, abs_tol=1.0)
            traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
            assert (traj.termination.kind, traj.rejected) == ("completed", 0)
            errs.append(float(np.max(np.abs(traj.x[:, 0] - np.cos(traj.t)))))
        assert 7.5 <= math.log2(errs[0] / errs[1]) <= 8.5

    def test_dense_output_is_seventh_order_at_mid_step(self):
        # a 7th-order interpolant: the local error at mid-step falls as h^8
        errs = []
        for h in (0.8, 0.4):
            opts = IntegratorOptions(t_end=0.3 + h, scheme=DOP853, h_init=h, rel_tol=1.0,
                                     abs_tol=1.0)
            traj = integrate(harmonic_rhs, State.of(0.3, [math.cos(0.3)], [-math.sin(0.3)]),
                             opts)
            assert traj.accepted == 1
            x, v = sample_dense(traj, [0.3 + h / 2])
            errs.append(abs(x[0, 0] - math.cos(0.3 + h / 2)))
        assert 7.5 <= math.log2(errs[0] / errs[1]) <= 8.5

    def test_dense_output_beats_the_cubic(self):
        opts = IntegratorOptions(t_end=6.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        ts = np.linspace(0.1, 5.9, 137)
        xs, vs = sample_dense(traj, ts)
        assert np.max(np.abs(xs[:, 0] - np.cos(ts))) < 1e-9
        assert np.max(np.abs(vs[:, 0] + np.sin(ts))) < 1e-9

    @pytest.mark.parametrize("n", [1, 2])
    def test_memory_held_per_step(self, n):
        # the rows t, x, v, a, and for the interpolant h and the 2n-float
        # stages 5-11 in one flat buffer of doubles, with room for its growth
        opts = IntegratorOptions(t_end=150.0, scheme=DOP853, rel_tol=1e-12, abs_tol=1e-14)
        state = State.of(0.0, [1.0] * n, [0.0] * n)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = integrate(harmonic_rhs, state, opts)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert traj.accepted > 500
        assert held / traj.accepted <= 1.25 * 8 * ((1 + 3 * n) + (1 + 14 * n))

    def test_dense_stages_only_on_demand_and_counted(self):
        rhs = Counted(harmonic_rhs)
        opts = IntegratorOptions(t_end=6.0, scheme=DOP853, rel_tol=1e-10)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        # twelve calls a step, the thirteenth stage being the next step's first
        assert traj.nfev == rhs.calls == 1 + 12 * (traj.accepted + traj.rejected)
        sample_dense(traj, [1.0, 2.5])
        sample_dense(traj, [3.0])
        # the three extra stages of every step, once
        assert traj.nfev == rhs.calls == 1 + 12 * (traj.accepted + traj.rejected) \
            + 3 * traj.accepted

    def test_extra_stage_outside_the_domain_keeps_the_cubic(self):
        # the guard stops no stage of the step, only the extra one at c = 7/9
        def rhs(t, x, v):
            if 0.7 < t < 0.8:
                raise DomainViolation("extra stage", t=t)
            return [-x[0]]

        opts = IntegratorOptions(t_end=1.0, scheme=DOP853, h_init=1.0, rel_tol=1.0,
                                 abs_tol=1.0)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.accepted == 1
        cubic = IntegratorOptions(t_end=1.0, scheme=FIXED_RK4, h=1.0)
        ts = [0.25, 0.5, 0.75]
        x, v = sample_dense(traj, ts)
        # the same cubic Hermite as a trajectory without an interpolant
        plain = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), cubic)
        plain.x, plain.v, plain.a = traj.x, traj.v, traj.a
        xh, vh = sample_dense(plain, ts)
        assert np.allclose(x, xh, rtol=0.0, atol=1e-15)
        assert np.allclose(v, vh, rtol=0.0, atol=1e-15)


class TestDefaultScheme:
    @pytest.mark.parametrize("block", [{"rel_tol": 1e-12}, {"rel_tol": 1e-9},
                                       {"rel_tol": 1e-3}, {}, {"scheme": None}])
    def test_unset_scheme_is_dop853(self, block):
        opts = _integrator_options({"integrator": {"t_end": 1.0, **block}})
        assert opts.scheme == DOP853

    @pytest.mark.parametrize("name", ["adaptive45", "adaptive", "dop853"])
    def test_named_scheme_is_kept(self, name):
        block = {"integrator": {"t_end": 1.0, "rel_tol": 1e-12, "scheme": name}}
        if name == "adaptive45":
            # no scheme has this name; running DOP853 under it would silently
            # change what the config asked for
            with pytest.raises(ConfigError, match="dop853.*fixed_rk4.*'adaptive45'"):
                _integrator_options(block)
        else:
            assert _integrator_options(block).scheme == DOP853

    def test_library_default_is_the_cli_default(self):
        unset = _integrator_options({"integrator": {"t_end": 1.0}})
        assert IntegratorOptions(t_end=1.0).scheme == unset.scheme == DOP853

    @pytest.mark.parametrize("family,params,x0,v0", [
        ("ml1", {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"}, [0.9, -0.4], [0.0, 0.3]),
        ("morse", {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
         [0.3, -0.1, 0.6], [0.2, 0.4, -0.3]),
    ])
    def test_each_coordinate_keeps_its_energy(self, family, params, x0, v0):
        # the setting decouples, so each E_i = m_i v_i^2 / 2 + V_i is conserved;
        # the total energy cannot see energy moving between coordinates
        system = build_system(family, len(x0), params)
        opts = _integrator_options({"integrator": {"t_end": 50.0, "rel_tol": 1e-12,
                                                   "abs_tol": 1e-14}})
        assert opts.scheme == DOP853
        traj = integrate(el1_rhs(system), State.of(0.0, x0, v0), opts)
        assert traj.termination.kind == "completed"

        def energy(k, i):
            x, v = float(traj.x[k, i]), float(traj.v[k, i])
            m = system.profiles[i].eval(x)[0]
            return 0.5 * m * v * v + system.potential.compiled[i](x, 1.0)[0]

        for i in range(system.n):
            e0 = energy(0, i)
            assert max(abs(energy(k, i) - e0) for k in range(len(traj))) <= 1e-8


class TestRejectionCauses:
    @pytest.mark.parametrize("scheme", [DOP853])
    def test_guard_rejections_are_counted_apart(self, scheme):
        # the orbit through x = 0.5 with v = 0.8 reaches |x| = 0.94 > 0.9: the
        # step is retried at a quarter of its size until it is below 4 h_min,
        # and the guard's last refusal ends the run
        refusals = []

        def rhs(t, x, v):
            if abs(x[0]) > 0.9:
                refusals.append(t)
                raise DomainViolation("past the wall", t=t, coordinate=0)
            return [-x[0]]

        opts = IntegratorOptions(t_end=5.0, scheme=scheme, rel_tol=1e-10)
        traj = integrate(rhs, State.of(0.0, [0.5], [0.8]), opts)
        assert traj.termination.kind == "domain_violation"
        assert traj.rejected_guard == len(refusals) - 1 > 0
        assert traj.rejected >= traj.rejected_guard

    def test_error_rejections_are_not_guard_rejections(self):
        # a first step far too long for the tolerance is rejected on its error
        opts = IntegratorOptions(t_end=5.0, scheme=DOP853, rel_tol=1e-12, h_init=2.0)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "completed"
        assert traj.rejected > 0 and traj.rejected_guard == 0


class TestMaxSteps:
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_step_budget_is_a_step_failure(self, scheme, monkeypatch):
        # DOP853 covers 10 time units in fewer than 100 steps, so run to 100
        monkeypatch.setattr(integrate_module, "MAX_STEPS", 100)
        opts = IntegratorOptions(t_end=100.0, scheme=scheme, h=1e-3, rel_tol=1e-12)
        traj = integrate(harmonic_rhs, State.of(0.0, [1.0], [0.0]), opts)
        assert traj.termination.kind == "step_failure"
        assert traj.termination.t == traj.t[-1] < 100.0
        assert traj.accepted + traj.rejected == 100


class TestStepBelowFloatSpacing:
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
    def test_step_that_cannot_advance_time_is_a_step_failure(self, scheme, monkeypatch):
        # at t = -1e300 every step of 1e-3 rounds away: t + h == t
        monkeypatch.setattr(integrate_module, "MAX_STEPS", 10_000)
        opts = IntegratorOptions(t_end=0.01, scheme=scheme)
        traj = integrate(harmonic_rhs, State.of(-1e300, [1.0], [0.0]), opts)
        assert traj.termination == Termination("step_failure", -1e300)
        assert (len(traj), traj.accepted, traj.nfev) == (1, 0, 1)


class TestEvaluationCount:
    @pytest.mark.parametrize("scheme", [FIXED_RK4, DOP853])
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
        opts = IntegratorOptions(t_end=6.0 * T, scheme=DOP853, rel_tol=1e-10)
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
