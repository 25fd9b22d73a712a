"""Named, reusable checks bundling the package invariants into reports.

Every check is deterministic for a given seed and returns only its metric
and details; one table states each check's name, threshold and comparison.
"<=" is an ordinary pass condition, ">=" a demonstration that a quantity is
large (the shared-multiplier obstruction, the misprinted relations): a
passing ">=" check counts as an expected failure in the suite summary,
since it certifies a negative claim.
"""

from __future__ import annotations

import math
import sys
import zlib
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from numbers import Integral, Real
from typing import NamedTuple

import numpy as np

from . import exprparse
from .core import (TYPE2, PdmSystem, State, build_system, parameter_set,
                   total_energy)
from .eom import el1_acceleration, el1_residual, el1_rhs, el2_acceleration, el2_rhs
from .errors import ExprError, InvalidParameter, PdmError, UnknownCheck
from .exact import (AMENDED_FORM, ExactSolutionSpec, exact_energy,
                    exact_solution, exact_trajectory, kinematics,
                    ml2_reduction_check, oscillation_period)
from .families import FAMILIES
from .integrate import (FIXED_RK4, IntegratorOptions, estimate_period, integrate,
                        sample_dense)
from .profiles import CustomProfile
from .transform import (coordinate_image, el2_mapped_residual, el2_obstruction,
                        elg_residual, potential_match_residual, reference_map,
                        tau_values)

DEFAULT_SEED = 20260810


@dataclass(frozen=True)
class CheckReport:
    name: str
    passed: bool
    metric: float
    threshold: float
    comparison: str           # "<=" (pass when small) or ">=" (demonstration)
    details: str = ""

    @property
    def is_demonstration(self) -> bool:
        return self.comparison == ">="


@dataclass(frozen=True)
class SuiteSummary:
    passed: int
    expected_fail: int
    failed: int

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _worst(worst: float, *residuals: float) -> float:
    """The largest of worst and the residuals, or nan where any of them is
    nan.  max() keeps its running value past a nan (max(0.0, nan) is 0.0),
    so a nan residual would vanish from the metric and the check pass."""
    for r in residuals:
        if r > worst or r != r:
            worst = r
    return worst


def _running_max(first: np.ndarray, *rest) -> np.ndarray:
    """max(first, *rest) per element as max() takes it: each later value
    replaces the running one only where it is larger, so a nan stays if it
    comes first and is passed over after."""
    for values in rest:
        first = np.where(values > first, values, first)
    return first


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


# --- standard benchmark cases ---------------------------------------------------


@dataclass(frozen=True)
class Case:
    """One named (system, closed form) pair used across checks."""

    name: str
    family: str
    params: dict
    amplitude: tuple[float, ...]
    variant: str = "published"
    sample_box: tuple[float, float] = (0.1, 2.0)   # x-range for identity sampling

    def spec(self) -> ExactSolutionSpec:
        return ExactSolutionSpec(self.family, parameter_set(self.params, len(self.amplitude)),
                                 self.amplitude, variant=self.variant)

    def system(self) -> PdmSystem:
        return build_system(self.family, len(self.amplitude), self.params)


CASES: dict[str, Case] = {c.name: c for c in [
    Case("ml1+", "ml1", {"omega": [1.0], "lambda": 1.0, "sign": "+"}, (1.0,),
         sample_box=(-2.5, 2.5)),
    Case("ml1-", "ml1", {"omega": [1.0], "lambda": 1.0, "sign": "-"}, (0.5,),
         sample_box=(-0.9, 0.9)),
    Case("ml1-0.5+", "ml1", {"omega": [1.0], "lambda": 0.5, "sign": "+"}, (1.0,),
         sample_box=(-2.5, 2.5)),
    Case("ml1-0.5-", "ml1", {"omega": [1.0], "lambda": 0.5, "sign": "-"}, (0.5,),
         sample_box=(-1.3, 1.3)),
    Case("powerlaw-1", "powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": 1.0},
         (1.0,), sample_box=(0.05, 2.0)),
    Case("powerlaw-2", "powerlaw", {"omega": [1.0], "alpha": 1.0, "upsilon": 2.0},
         (1.0,), sample_box=(0.05, 2.0)),
    Case("morse", "morse", {"omega": [1.0], "zeta": [1.0]}, (0.5,),
         sample_box=(-1.5, 1.5)),
    Case("sw1+", "sw1", {"omega": [1.0], "lambda": 0.5, "sign": "+", "kappa": [1.0]},
         (1.0,), sample_box=(0.2, 2.0)),
    Case("sw1-", "sw1", {"omega": [1.3], "lambda": 0.5, "sign": "-", "kappa": [0.5]},
         (0.8,), sample_box=(0.2, 1.3)),
    Case("sw2-eta-neg1", "sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                                 "eta_exp": -1.0}, (1.2,), sample_box=(0.3, 2.5)),
    Case("sw2-amended-eta2", "sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                                     "eta_exp": 2.0}, (1.1,),
         variant=AMENDED_FORM, sample_box=(0.3, 2.0)),
    Case("sw2-published-eta2", "sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0,
                                   "eta_exp": 2.0}, (1.1,), sample_box=(0.3, 2.0)),
    Case("ml2-reduction", "ml2", {"omega": [1.0], "lambda": 0.25, "sign": "-",
                                  "eta_const": [2.0]}, (1.0,),
         sample_box=(-1.8, 1.8)),
    Case("harmonic", "harmonic", {"omega": [1.0]}, (1.0,), sample_box=(-2.0, 2.0)),
    Case("isotonic", "isotonic", {"omega": [1.0], "kappa": [1.0]}, (1.3,),
         sample_box=(0.3, 2.0)),
]}

def standard_case(name: str) -> Case:
    if not isinstance(name, str) or name not in CASES:
        raise UnknownCheck(f"no benchmark case named {name!r}")
    return CASES[name]


def _adaptive(t_end: float, rel_tol: float | None = None, **kw) -> IntegratorOptions:
    """DOP853 at rel_tol (1e-10 when None) and abs_tol = rel_tol / 100."""
    rel_tol = 1e-10 if rel_tol is None else rel_tol
    return IntegratorOptions(t_end=t_end, rel_tol=rel_tol, abs_tol=rel_tol * 1e-2,
                             h_init=1e-3, **kw)


def _integrate_case(case: Case, periods: float, rel_tol: float | None) -> tuple:
    """(system, spec, trajectory) of the case's closed-form orbit from t = 0."""
    system = case.system()
    spec = case.spec()
    T = float(np.max(oscillation_period(spec)))
    opts = _adaptive(periods * T, rel_tol=rel_tol)
    traj = integrate(el1_rhs(system), exact_solution(spec, 0.0), opts)
    return system, spec, traj


# --- check implementations -------------------------------------------------------


def _profile(family: str, **params) -> CustomProfile:
    """The first mass profile of a one-dimensional catalog system."""
    return build_system(family, 1, {"omega": [1.0], **params}).profiles[0]


def _check_profile_derivatives(seed: int, rel_tol: float | None) -> tuple[float, str]:
    rng = _rng(seed, "profiles")
    profiles = [
        (_profile("ml1", lam=1.0, sign="+"), (-3.0, 3.0)),
        (_profile("ml1", lam=1.0, sign="-"), (-0.9, 0.9)),
        (_profile("powerlaw", alpha=1.3, upsilon=1.5), (0.3, 3.0)),
        (_profile("powerlaw", alpha=1.0, upsilon=2.0), (0.3, 3.0)),
        (_profile("morse", zeta=[0.8]), (-1.5, 1.5)),
        (_profile("sw2", beta=1.1, eta_exp=-1.0, kappa=[1.0]), (0.3, 3.0)),
        (_profile("sw2", beta=1.0, eta_exp=2.0, kappa=[1.0]), (0.3, 3.0)),
        (CustomProfile.from_text("1/(1+x^2)+exp(-x^2)"), (-2.0, 2.0)),
    ]
    worst = 0.0
    for profile, (lo, hi) in profiles:
        xs = rng.uniform(lo, hi, 10_000 // len(profiles))
        dom_lo, dom_hi = profile.domain
        # each array operation is the float operation the stencil takes per
        # point, in the same order, so every value keeps its bits; the
        # arithmetic overflows to inf or nan quietly, as float arithmetic does
        with np.errstate(over="ignore", invalid="ignore"):
            # keep the 5-point stencil well inside the region where the
            # profile is smooth: steep poles need h tied to the distance
            # from the boundary, not to |x|
            hs = 0.005 * np.minimum(np.maximum(1.0, np.abs(xs)),
                                    np.minimum(np.abs(xs - dom_lo), np.abs(dom_hi - xs)))
            v0, v1, v2, v3, v4 = (np.array(profile.eval_many((xs + k * hs).tolist(), 0))
                                  for k in (-2, -1, 0, 1, 2))
            m, d1, d2 = np.array(profile.eval_many(xs.tolist())).T
            d1_fd = (v0 - 8 * v1 + 8 * v3 - v4) / (12 * hs)
            d2_fd = (-v0 + 16 * v1 - 30 * v2 + 16 * v3 - v4) / (12 * hs * hs)
            # relative to the profile's own scale: the derivatives cross zero
            # inside every domain, where a bare relative error is ill-posed
            scale1 = _running_max(np.abs(d1), np.abs(d1_fd), np.abs(m), 1e-8)
            scale2 = _running_max(np.abs(d2), np.abs(d2_fd), np.abs(m), 1e-8)
            errors = np.abs(d1 - d1_fd) / scale1, np.abs(d2 - d2_fd) / scale2
        worst = _worst(worst, float(np.max(errors)))
    return worst, "analytic m', m'' vs 4th-order central differences"


def _check_ml_identity(seed: int, rel_tol: float | None) -> tuple[float, str]:
    rng = _rng(seed, "ml-identity")
    worst = 0.0
    for sign, box in (("+", (-3.0, 3.0)), ("-", (-0.95, 0.95))):
        lam = 1.0
        profile = _profile("ml1", lam=lam, sign=sign)
        s = 1.0 if sign == "+" else -1.0
        for x in rng.uniform(*box, 2000):
            m, m1 = profile.eval(float(x), 1)
            closed = -s * lam * x / (1.0 + s * lam * x * x)
            worst = _worst(worst, abs(m1 / (2.0 * m) - closed))
    return worst, "m'/(2m) equals the closed rational form"


def _random_expression(rng: np.random.Generator, depth: int) -> str:
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(["x", "x", f"{rng.uniform(0.2, 3.0):.3f}"])
    kind = rng.choice(["bin", "fn", "neg", "pow"])
    if kind == "bin":
        op = rng.choice(["+", "-", "*", "/"])
        a = _random_expression(rng, depth - 1)
        b = _random_expression(rng, depth - 1)
        if op == "/":
            b = f"(1.25+({b})^2)"  # keep denominators away from zero
        return f"({a}){op}({b})"
    if kind == "fn":
        fn = rng.choice(["sin", "cos", "exp", "ln", "sqrt"])
        a = _random_expression(rng, depth - 1)
        if fn in ("ln", "sqrt"):
            a = f"(0.5+({a})^2)"
        if fn == "exp":
            a = f"sin({a})"       # bounded argument keeps values tame
        return f"{fn}({a})"
    if kind == "neg":
        return f"-({_random_expression(rng, depth - 1)})"
    exponent = rng.choice(["2", "3", "0.5", "1.5"])
    base = _random_expression(rng, depth - 1)
    return f"(0.5+({base})^2)^{exponent}"


def _fd_stencil(expr, x: float, h: float, order: int) -> float:
    vals = [exprparse.eval_dual(expr, x + k * h)[0] for k in (-2, -1, 0, 1, 2)]
    if any(not math.isfinite(v) for v in vals) or max(map(abs, vals)) > 1e3:
        raise ValueError("stencil leaves the tame range")
    if order == 1:
        return (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
    return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)


def _check_parser_ad(seed: int, rel_tol: float | None, order: int) -> tuple[float, str]:
    rng = _rng(seed, f"parser-ad-{order}")
    threshold = _REGISTRY[f"parser-ad-d{order}"].threshold
    worst = 0.0
    produced = 0
    while produced < 1000:
        text = _random_expression(rng, 3)
        expr = exprparse.parse_expression(text, ["x"])
        x = float(rng.uniform(-1.5, 1.5))
        try:
            val, d1, d2 = exprparse.eval_dual(expr, x)
        except ExprError:
            continue
        h = 1e-3 * max(1.0, abs(x))
        try:
            fd_h = _fd_stencil(expr, x, h, order)
            fd_h2 = _fd_stencil(expr, x, 0.5 * h, order)
        except (ExprError, ValueError):
            continue
        d = d1 if order == 1 else d2
        scale = max(abs(val), 1.0)
        # a safe evaluation point is one where the stencil itself has
        # converged (step-halving agreement); elsewhere the difference
        # quotient says nothing about the derivative
        if abs(fd_h - fd_h2) > 0.02 * threshold * max(abs(fd_h2), scale):
            continue
        produced += 1
        err = abs(d - fd_h2) / max(abs(d), abs(fd_h2), scale)
        worst = _worst(worst, err)
    return worst, "1000 generated expressions vs converged central differences"


def _check_parser_roundtrip(seed: int, rel_tol: float | None) -> tuple[float, str]:
    rng = _rng(seed, "parser-roundtrip")
    bad = 0
    for _ in range(500):
        text = _random_expression(rng, 3)
        expr = exprparse.parse_expression(text, ["x"])
        again = exprparse.parse_expression(exprparse.to_source(expr), ["x"])
        if again != expr:
            bad += 1
    return float(bad), "pretty-print then re-parse yields an equal tree"


def _check_parser_total(seed: int, rel_tol: float | None) -> tuple[float, str]:
    malformed = ["2*sin(x", "1+", "((x)", "x@2", "2**x", "sin()", "foo(x)",
                 "exp(2*z)", "1..2", ")x(", "", "x^", "3e", "x x"]
    bad = 0
    for text in malformed:
        try:
            exprparse.parse_expression(text, ["x"])
            bad += 1                      # parsed something malformed
        except ExprError as err:
            if getattr(err, "position", None) is None and not hasattr(err, "name"):
                bad += 1
        except Exception:
            bad += 1                      # crashed instead of reporting
    return float(bad), "malformed inputs all yield positioned errors"


# printed per-family equations of motion (oracle forms, typos corrected)
def _printed_eom(case: Case):
    p = parameter_set(case.params, len(case.amplitude))
    fam = case.family
    if fam == "ml1":
        s = 1.0 if p.sign == "+" else -1.0
        return lambda x, v: (s * p.lam * x * v * v - p.omega[0] ** 2 * x) / (1 + s * p.lam * x * x)
    if fam == "powerlaw":
        return lambda x, v: -(p.upsilon / x) * v * v - (1 + p.upsilon) * p.omega[0] ** 2 * x
    if fam == "ml2":
        s = 1.0 if p.sign == "+" else -1.0
        e2 = p.eta_const[0] ** 2
        return lambda x, v: (s * p.lam * x * v * v
                             + s * p.lam * e2 * p.omega[0] ** 2 * x) / (1 + s * p.lam * x * x)
    if fam == "morse":
        z = p.zeta[0]
        return lambda x, v: -z * v * v - p.omega[0] ** 2 * z * (1 - math.exp(-z * x))
    if fam == "sw1":
        s = 1.0 if p.sign == "+" else -1.0
        return lambda x, v: (s * p.lam * x * v * v / (1 + s * p.lam * x * x)
                             - p.omega[0] ** 2 * x / (1 + s * p.lam * x * x)
                             + p.kappa[0] * (1 + s * p.lam * x * x) / x ** 3)
    if fam == "sw2":
        e, b = p.eta_exp, p.beta
        return lambda x, v: (-((e - 1) / x) * v * v - e * p.omega[0] ** 2 * x
                             + e * p.kappa[0] / (b ** 4 * x ** (4 * e - 1)))
    raise UnknownCheck(f"no printed form for {fam}")


def _printed_ml1_frequency(p, A: float) -> float:
    """The published ml1 relation Omega = omega |A| / sqrt(1 +- lam A^2), whose
    spurious amplitude factor the misprint ledger records as ml1-frequency."""
    s = 1.0 if p.sign == "+" else -1.0
    return p.omega[0] * abs(A) / math.sqrt(1.0 + s * p.lam * A * A)


def _check_printed_eom(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    case = standard_case(case_name)
    rhs = el1_rhs(case.system())
    printed = _printed_eom(case)
    rng = _rng(seed, f"printed-{case_name}")
    lo, hi = case.sample_box
    # one call draws the (x, v) pairs of 1000 scalar draws, bit for bit
    draws = rng.uniform(np.tile([lo, -2.0], 1000), np.tile([hi, 2.0], 1000)).tolist()
    errors = []
    for x, v in zip(draws[0::2], draws[1::2]):
        generic = rhs(0.0, [x], [v])[0]
        ref = printed(x, v)
        errors.append(abs(generic - ref) / max(abs(ref), 1.0))
    return _worst(0.0, *errors), ("generic form vs hand-coded printed equation "
                                  "(relative, floored at unit scale)")


def _check_el2_collapse(seed: int, rel_tol: float | None) -> tuple[float, str]:
    sys1 = build_system("custom", 1, mass_exprs=["1+x^2"],
                        potential_exprs=["0.5*x^2"])
    sys2 = build_system("custom", 1, mass_exprs=["1+x1^2"],
                        potential_exprs=["0.5*x^2"], kind=TYPE2)
    rng = _rng(seed, "el2-collapse")
    worst = 0.0
    for _ in range(1000):
        st = State.of(0.0, [rng.uniform(-2, 2)], [rng.uniform(-2, 2)])
        worst = _worst(worst, abs(el1_acceleration(sys1, st)[0]
                                  - el2_acceleration(sys2, st)[0]))
    return worst, "shared-multiplier form equals per-coordinate form at n=1"


#: points per batch in the 10^4-point checks: bounds the lists a batch holds at once
_BATCH = 1_000


def _map_samples(seed: int, tag: str, case_name: str) -> tuple:
    """(system, map, reference, 10^4 points of n coordinates drawn from the
    case's sample box, an (N, n) array in batches of _BATCH rows).  At n = 1
    the draws are those of 10^4 scalars, bit for bit."""
    case = standard_case(case_name)
    system = case.system()
    nmap, ref = reference_map(system)
    xs = _rng(seed, f"{tag}-{case_name}").uniform(*case.sample_box, (10_000, system.n))
    return system, nmap, ref, [xs[k:k + _BATCH] for k in range(0, len(xs), _BATCH)]


def _check_g_identity(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    _, nmap, _, batches = _map_samples(seed, "g", case_name)
    worst = 0.0
    for xs in batches:
        for batch, column in zip(nmap.batches, xs.T):   # each coordinate's map at its x_i
            dqs, fs, ms = map(np.array, batch(column.tolist(), ("dq", "f", "m")))
            targets = ms * fs * fs
            r = np.abs(dqs * dqs - targets) / np.maximum(np.abs(targets), 1e-30)
            worst = _worst(worst, float(r.max()))
    return worst, "(dq/dx)^2 = m f^2 at 10^4 sampled points"


def _check_potential_match(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    system, nmap, ref, batches = _map_samples(seed, "vmatch", case_name)
    worst = 0.0
    for xs in batches:
        worst = _worst(worst, float(np.max(potential_match_residual(nmap, system, ref, xs))))
    return worst, "|V(x) - V_ref(q(x))| at 10^4 sampled points"


def _residual_times(spec: ExactSolutionSpec, periods: float, samples: int = 600) -> np.ndarray:
    T = float(np.max(oscillation_period(spec)))
    ts = np.linspace(0.0, periods * T, samples)
    if spec.record.branch:     # stay where every coordinate's form is real
        ts = ts[np.all([np.cos(rate * ts + phase) > 0.05
                        for rate, phase in zip(spec.frequency, spec.phase)], axis=0)]
    return ts


def _check_exact_residual(seed: int, rel_tol: float | None, case_name: str,
                          details: str = "analytic closed form against the "
                                         "equations of motion, 3 periods") -> tuple[float, str]:
    case = standard_case(case_name)
    spec = case.spec()
    system = case.system()
    worst = 0.0
    for t in _residual_times(spec, 3.0):
        r = el1_residual(system, lambda s: kinematics(spec, s), float(t))
        worst = _worst(worst, float(np.max(np.abs(r))))
    return worst, details


def _check_residual_detects_perturbation(seed: int, rel_tol: float | None) -> tuple[float, str]:
    case = standard_case("ml1+")
    spec = case.spec()
    system = case.system()
    # scale the amplitude but keep the original frequency: the result is no
    # longer a solution of anything in the family
    Om = spec.frequency[0]
    A = 1.1 * spec.amplitude[0]

    def detuned(t: float):
        th = Om * t
        return (np.array([A * math.cos(th)]),
                np.array([-A * Om * math.sin(th)]),
                np.array([-A * Om * Om * math.cos(th)]))

    T = float(np.max(oscillation_period(spec)))
    worst = 0.0
    for t in np.linspace(0.0, T, 200):
        worst = _worst(worst, float(np.max(np.abs(el1_residual(system, detuned, float(t))))))
    return worst, "10% amplitude perturbation must light up the residual"


def _check_track_exact(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    case = standard_case(case_name)
    if FAMILIES[case.family].branch:
        return _track_powerlaw(case, rel_tol)
    system, spec, traj = _integrate_case(case, 10.0, rel_tol)
    worst = 0.0
    for k in range(len(traj.t)):
        x_exact, _, _ = kinematics(spec, float(traj.t[k]))
        worst = _worst(worst, float(np.max(np.abs(traj.x[k] - x_exact))))
    details = f"10 periods, {traj.accepted} steps, termination {traj.termination.kind}"
    if traj.termination.kind != "completed":
        worst = math.inf
    return worst, details


def _track_powerlaw(case: Case, rel_tol: float | None) -> tuple[float, str]:
    """Track the closed form arc by arc across 10 nominal periods.

    Every orbit of this family reaches the mass zero at the origin in finite
    time with diverging velocity, so one continuous 10-period integration
    cannot exist; each inter-bounce arc is integrated from its own exact
    initial conditions instead.
    """
    system = case.system()
    p = parameter_set(case.params, 1)
    Om = case.spec().frequency[0]
    T = 2.0 * math.pi / Om
    delta = 0.2                      # entry margin into the arc, radians
    compare_margin = 0.05            # skip the layer where the velocity diverges
    worst = 0.0
    covered = 0.0
    for arc in range(20):            # 20 half-period arcs = 10 periods
        spec = ExactSolutionSpec(case.family, p, case.amplitude,
                                 phase=(-arc * math.pi,))
        t0 = (arc * math.pi - math.pi / 2 + delta) / Om
        t_arc_end = (arc * math.pi + math.pi / 2) / Om
        opts = _adaptive(t_arc_end, rel_tol=rel_tol)
        traj = integrate(el1_rhs(system), exact_solution(spec, t0), opts)
        for k in range(len(traj.t)):
            if abs(math.cos(Om * traj.t[k] - arc * math.pi)) < compare_margin:
                continue             # position error is unbounded where xdot diverges
            try:
                x_exact, _, _ = kinematics(spec, float(traj.t[k]))
            except PdmError:
                continue
            worst = _worst(worst, float(np.max(np.abs(traj.x[k] - x_exact))))
        covered += (traj.t[-1] - t0) / T
    details = (f"20 re-anchored arcs covering {covered:.2f} of 10 periods; "
               "every orbit hits the origin with diverging velocity, so no "
               "single continuous window exists")
    return worst, details


def _check_energy_drift(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    tol = 1e-12 if rel_tol is None else rel_tol
    case = standard_case(case_name)
    # an orbit on a branch (the power law's) reaches the origin within a
    # quarter period, so it runs the maximal smooth arc before it; every row is read
    arc = FAMILIES[case.family].branch
    system, spec, traj = _integrate_case(case, 0.24 if arc else 100.0, tol)
    e0 = exact_energy(spec)
    worst = 0.0
    for k in range(len(traj.t)):
        e = total_energy(system, traj.state(k))
        worst = _worst(worst, abs(e - e0) / abs(e0))
    if arc:
        details = f"maximal smooth arc before the origin encounter ({traj.accepted} steps)"
    else:
        details = f"100 periods, {traj.accepted} steps, E0={e0:.6g}"
    if traj.termination.kind != "completed":
        worst = math.inf
    return worst, details


def _check_energy_formula(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    case = standard_case(case_name)
    spec = case.spec()
    system = case.system()
    e_formula = exact_energy(spec)
    worst = 0.0
    for t in _residual_times(spec, 1.0, samples=60):
        e = total_energy(system, exact_solution(spec, float(t)))
        worst = _worst(worst, abs(e - e_formula) / max(abs(e_formula), 1e-30))
    return worst, "closed-form energy equals the energy along the solution"


def _check_frequency_ml1(seed: int, rel_tol: float | None, printed: bool) -> tuple[float, str]:
    params = parameter_set({"omega": [1.0], "lambda": 1.0, "sign": "+"}, 1)
    A = 0.7
    spec = ExactSolutionSpec("ml1", params, (A,))
    system = build_system("ml1", 1, params)
    T = float(oscillation_period(spec)[0])
    traj = integrate(el1_rhs(system), exact_solution(spec, 0.0),
                     _adaptive(8.0 * T, rel_tol=rel_tol))
    measured = estimate_period(traj, 0)
    Om = _printed_ml1_frequency(params, A) if printed else spec.frequency[0]
    err = abs(measured - 2.0 * math.pi / Om) / (2.0 * math.pi / Om)
    if printed:
        return err, (f"published relation misses the measured period at A={A} "
                     "(the spurious amplitude factor cancels only at A=1)")
    return err, f"measured period {measured:.9f} vs validated relation"


def _check_frequency_powerlaw(seed: int, rel_tol: float | None) -> tuple[float, str]:
    # closed-form period of the cube-root branch solution, measured on samples;
    # the period is read off the monotone image q = alpha x^(1+upsilon), which
    # shares every crossing with x but is smooth there
    params = parameter_set({"omega": [1.0], "alpha": 1.0, "upsilon": 2.0}, 1)
    Om = 3.0          # (1 + upsilon) omega
    A = 1.0
    from .core import Termination, Trajectory
    ts = np.linspace(0.0, 10.0 * 2.0 * math.pi / Om, 6000)
    c = np.cos(Om * ts)
    x = A * np.sign(c) * np.abs(c) ** (1.0 / 3.0)   # odd continuation through the origin
    q = params.alpha * A ** 3 * c
    qd = -params.alpha * A ** 3 * Om * np.sin(Om * ts)
    qdd = -Om * Om * q
    traj = Trajectory(ts, np.column_stack([x, q]),
                      np.column_stack([np.gradient(x, ts), qd]),
                      np.column_stack([np.zeros_like(x), qdd]),
                      len(ts), 0, 0.0, Termination("completed"))
    measured = estimate_period(traj, 1)
    err = abs(measured - 2.0 * math.pi / Om) / (2.0 * math.pi / Om)
    return err, ("closed-form samples; period measured on the smooth "
                 "monotone image of the position signal")


def _check_frequency_powerlaw_dynamic(seed: int, rel_tol: float | None) -> tuple[float, str]:
    """Quarter-period timing of the integrated dynamics against (1+upsilon) omega."""
    case = standard_case("powerlaw-1")
    system = case.system()
    spec = case.spec()
    Om_expected = spec.frequency[0]
    t_end = 0.6 * math.pi / Om_expected
    traj = integrate(el1_rhs(system), exact_solution(spec, 0.0),
                     _adaptive(t_end, rel_tol=rel_tol, h_min=1e-13))
    # q = alpha x^(1+upsilon) stays an exact cosine in t; the integration stops
    # a vanishing distance before its zero, so a secant step lands on it
    p = spec.params
    q = p.alpha * traj.x[:, 0] ** (1.0 + p.upsilon)
    t_star = float(traj.t[-1] - q[-1] * (traj.t[-1] - traj.t[-2]) / (q[-1] - q[-2]))
    Om_measured = math.pi / (2.0 * t_star)
    err = abs(Om_measured - Om_expected) / Om_expected
    return err, f"origin reached at t={t_star:.9f}; frequency from quarter period"


def _check_invariance(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    case = standard_case(case_name)
    periods = 0.24 if FAMILIES[case.family].branch else 3.0
    system, _, traj = _integrate_case(case, periods, rel_tol)
    nmap, ref = reference_map(system)
    worst = 0.0
    for k in range(len(traj.t)):
        r = elg_residual(nmap, system, ref, traj.state(k))
        worst = _worst(worst, float(np.max(np.abs(r))))
    return worst, ("mapped trajectory satisfies the reference equations "
                   f"({len(traj.t)} states)")


def _el2_demo_system(n: int) -> PdmSystem:
    if n == 1:
        return build_system("custom", 1, mass_exprs=["1+x1^2"], kind=TYPE2)
    return build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)


def _el2_demo_residual(seed: int, rel_tol: float | None, n: int) -> tuple[float, str]:
    """Largest mapped residual of the shared-multiplier demo orbit in n dimensions."""
    system = _el2_demo_system(n)
    if n == 1:
        x0, v0 = [0.4], [0.7]
        details = "the same construction collapses cleanly at n=1"
    else:
        x0, v0 = [0.4, -0.3], [0.7, 0.5]
        details = "shared multiplier in two dimensions leaves an order-one mapped residual"
    traj = integrate(el2_rhs(system), State.of(0.0, x0, v0),
                     _adaptive(10.0, rel_tol=rel_tol))
    worst = 0.0
    for k in range(len(traj.t)):
        r = el2_mapped_residual(system, traj.state(k))
        worst = _worst(worst, float(np.max(np.abs(r))))
    return worst, details


def _check_el2_obstruction_value(seed: int, rel_tol: float | None) -> tuple[float, str]:
    system = _el2_demo_system(2)
    st = State.of(0.0, [1.0, 0.0], [0.0, 1.0])
    metric = abs(el2_obstruction(system, st) - 0.5)
    return metric, "closed-form value of the obstruction term at a probe state"


def _check_ml2_reduction(seed: int, rel_tol: float | None) -> tuple[float, str]:
    params = {"omega": [1.0], "lambda": 0.25, "sign": "-", "eta_const": [2.0]}
    assert ml2_reduction_check(parameter_set(params, 1))
    sys_ml2 = build_system("ml2", 1, params)
    sys_ml1 = build_system("ml1", 1, {"omega": [1.0], "lambda": 0.25, "sign": "-"})
    spec = ExactSolutionSpec("ml1", parameter_set(
        {"omega": [1.0], "lambda": 0.25, "sign": "-"}, 1), (1.0,))
    T = float(oscillation_period(spec)[0])
    start = exact_solution(spec, 0.0)
    opts = IntegratorOptions(t_end=5.0 * T, scheme=FIXED_RK4, h=2e-3)
    tr_a = integrate(el1_rhs(sys_ml2), start, opts)
    tr_b = integrate(el1_rhs(sys_ml1), start, opts)
    worst = float(np.max(np.abs(tr_a.x - tr_b.x)))
    return worst, ("constant-map trajectories coincide with oscillator-map "
                   "trajectories when lam = 1/eta^2 on the '-' branch")


def _check_rk4_order(seed: int, rel_tol: float | None) -> tuple[float, str]:
    system = build_system("harmonic", 1, {"omega": [1.0]})
    rhs = el1_rhs(system)
    T = 2.0 * math.pi
    errs = []
    for h in (0.05, 0.025):
        opts = IntegratorOptions(t_end=10.0 * T, scheme=FIXED_RK4, h=h)
        traj = integrate(rhs, State.of(0.0, [1.0], [0.0]), opts)
        # max over the window: at full-period endpoints the dominant phase
        # error is first-order invisible and the measured order comes out 5
        errs.append(float(np.max(np.abs(traj.x[:, 0] - np.cos(traj.t)))))
    ratio = errs[0] / errs[1]
    metric = max(0.0, 12.0 - ratio, ratio - 20.0)
    return metric, (f"error ratio {ratio:.2f} for h -> h/2 over 10 periods "
                    "(4th order predicts 16)")


def _check_adaptive_vs_fixed(seed: int, rel_tol: float | None) -> tuple[float, str]:
    case = standard_case("morse")
    system = case.system()
    spec = case.spec()
    T = float(oscillation_period(spec)[0])
    start = exact_solution(spec, 0.0)
    tr_a = integrate(el1_rhs(system), start, _adaptive(10.0 * T, rel_tol=rel_tol))
    tr_f = integrate(el1_rhs(system), start,
                     IntegratorOptions(t_end=10.0 * T, scheme=FIXED_RK4, h=1e-3))
    xs, _ = sample_dense(tr_f, tr_a.t)
    worst = float(np.max(np.abs(xs - tr_a.x)))
    return worst, ("two schemes agree over 10 periods of the "
                   "bounded-exponential family")


def _check_substitution_identity(seed: int, rel_tol: float | None) -> tuple[float, str]:
    rng = _rng(seed, "substitution")
    worst = 0.0
    for sign in (1.0, -1.0):
        lam = 1.0
        xs = rng.uniform(-0.9, 0.9, 5000) if sign < 0 else rng.uniform(-3, 3, 5000)
        for x in xs:
            q2 = x * x / (1.0 + sign * lam * x * x)
            back = q2 / (1.0 - sign * lam * q2)
            worst = _worst(worst, abs(back - x * x) / max(x * x, 1e-30))
    return worst, "q^2 = x^2/(1 +- lam x^2) inverts to x^2 = q^2/(1 -+ lam q^2)"


def _check_tau_closed_form(seed: int, rel_tol: float | None) -> tuple[float, str]:
    case = standard_case("ml1+")
    spec = case.spec()
    nmap, _ = reference_map(case.system())
    T = float(oscillation_period(spec)[0])           # 2 pi sqrt(2)
    traj = exact_trajectory(spec, 0.0, T, 4001)
    tau = tau_values(nmap, traj, 0)
    metric = abs(tau[-1] - 2.0 * math.pi)
    return metric, "one position period advances the rescaled clock by 2 pi"


def _reference_closed_form(spec: ExactSolutionSpec, i: int, phase: float):
    """Reference-frame closed form q_ref(tau) of coordinate i, matched to the
    mapped solution: its orbit constant is the record's image of A_i."""
    p = spec.params
    w = p.omega[i]
    c = spec.record.image(p, i, spec.amplitude[i])
    if spec.record.reference == "harmonic":
        return lambda tau: c * np.cos(w * np.asarray(tau) + phase)
    k = p.kappa[i]

    def q_ref(tau):
        th = w * np.asarray(tau) + phase
        return np.sqrt((w * w * c * c * np.sin(th) ** 2 + k * np.cos(th) ** 2) / (w * w * c))
    return q_ref


def _check_mapped_exactness(seed: int, rel_tol: float | None, case_name: str) -> tuple[float, str]:
    case = standard_case(case_name)
    spec = case.spec()
    nmap, _ = reference_map(case.system())
    if spec.record.branch:
        # an arc inside every coordinate's branch, not starting at a turning point
        t0 = -0.45 * math.pi / max(spec.frequency)
        t1 = -t0
    else:
        t0, t1 = 0.0, 3.0 * float(np.max(oscillation_period(spec)))
    traj = exact_trajectory(spec, t0, t1, 4001)
    worst = 0.0
    for i in range(spec.n):
        tau, q_num, _ = coordinate_image(nmap, traj, i, require_positive=False)
        q_ref = _reference_closed_form(spec, i, spec.frequency[i] * t0 + spec.phase[i])(tau)
        worst = _worst(worst, float(np.max(np.abs(q_num - q_ref))))
    return worst, ("mapped closed form reproduces the reference solution "
                   "pointwise in the rescaled time")


# --- the check table ------------------------------------------------------------


class _Row(NamedTuple):
    """check(seed, rel_tol, *args) gives (metric, details); a callable threshold reads rel_tol."""
    check: Callable[..., tuple[float, str]]
    threshold: float | Callable[[float | None], float]
    comparison: str
    args: tuple = ()


def _kind(kind: str, cases: Sequence[str], check, threshold, comparison) -> dict[str, _Row]:
    """One check per case, named "kind:case", with the case as its last arg."""
    return {f"{kind}:{case}": _Row(check, threshold, comparison, (case,)) for case in cases}


#: cases of the map identities, the closed forms, and the invariance claim (+ amended sw2)
_MAP_CASES = ("ml1+", "ml1-", "powerlaw-1", "powerlaw-2", "ml2-reduction",
              "morse", "sw1+", "sw1-", "sw2-eta-neg1", "sw2-amended-eta2")
_ORBIT_CASES = ("harmonic", "isotonic", "ml1+", "ml1-", "powerlaw-1", "powerlaw-2",
                "morse", "sw1+", "sw1-", "sw2-eta-neg1", "sw2-amended-eta2")
_MAPPED_CASES = ("ml1+", "powerlaw-1", "ml2-reduction", "morse", "sw1+",
                 "sw2-eta-neg1", "sw2-amended-eta2")
#: the check table: every check's name, check, threshold, comparison and args
_REGISTRY: dict[str, _Row] = {
    "profiles-derivatives": _Row(_check_profile_derivatives, 1e-6, "<="),
    "ml-profile-identity": _Row(_check_ml_identity, 1e-12, "<="),
    "parser-ad-d1": _Row(_check_parser_ad, 1e-6, "<=", (1,)),
    "parser-ad-d2": _Row(_check_parser_ad, 1e-4, "<=", (2,)),
    "parser-roundtrip": _Row(_check_parser_roundtrip, 0.0, "<="),
    "parser-total": _Row(_check_parser_total, 0.0, "<="),
    "el2-collapse-n1": _Row(_check_el2_collapse, 1e-12, "<="),
    "exact-residual:sw2-published-eta2": _Row(_check_exact_residual, 1e-1, ">=", (
        "sw2-published-eta2", "published kappa normalization is not a solution for eta=2")),
    "residual-detects-perturbation": _Row(_check_residual_detects_perturbation, 1e-2, ">="),
    "frequency:ml1": _Row(_check_frequency_ml1, 1e-6, "<=", (False,)),
    "frequency:ml1-printed-form": _Row(_check_frequency_ml1, 1e-2, ">=", (True,)),
    "frequency:powerlaw": _Row(_check_frequency_powerlaw, 1e-6, "<="),
    "frequency:powerlaw-dynamic": _Row(_check_frequency_powerlaw_dynamic, 1e-6, "<="),
    "noninvariance:el2-n2": _Row(_el2_demo_residual, 1e-2, ">=", (2,)),
    "invariance:el2-n1": _Row(_el2_demo_residual, 1e-8, "<=", (1,)),
    "el2-obstruction-value": _Row(_check_el2_obstruction_value, 1e-12, "<="),
    "ml2-reduction": _Row(_check_ml2_reduction, 1e-9, "<="),
    "rk4-order": _Row(_check_rk4_order, 0.0, "<="),
    "adaptive-vs-fixed": _Row(_check_adaptive_vs_fixed,
                              lambda rel_tol: 10.0 * _adaptive(1.0, rel_tol).rel_tol, "<="),
    "substitution-identity": _Row(_check_substitution_identity, 1e-12, "<="),
    "tau-closed-form:ml1": _Row(_check_tau_closed_form, 1e-8, "<="),
    **_kind("printed-eom", ("ml1+", "ml1-", "powerlaw-1", "ml2-reduction", "morse", "sw1+",
                            "sw2-amended-eta2"), _check_printed_eom, 1e-12, "<="),
    **_kind("g-identity", _MAP_CASES, _check_g_identity, 1e-10, "<="),
    **_kind("potential-match", _MAP_CASES, _check_potential_match, 1e-12, "<="),
    **_kind("exact-residual", _ORBIT_CASES, _check_exact_residual, 1e-8, "<="),
    **_kind("track-exact", ("ml1+", "ml1-", "ml1-0.5+", "ml1-0.5-", "powerlaw-1", "powerlaw-2",
                            "morse", "sw1+", "sw2-eta-neg1"), _check_track_exact, 1e-6, "<="),
    **_kind("energy-drift", ("ml1+", "ml1-", "powerlaw-1", "morse", "sw1+", "sw2-eta-neg1",
                             "ml2-reduction"), _check_energy_drift, 1e-8, "<="),
    **_kind("energy-formula", _ORBIT_CASES, _check_energy_formula, 1e-12, "<="),
    **_kind("invariance", _MAPPED_CASES, _check_invariance, 1e-6, "<="),
    **_kind("mapped-exactness", _MAPPED_CASES, _check_mapped_exactness, 1e-8, "<="),
}


def check_names() -> list[str]:
    return sorted(_REGISTRY)


def _validate_run(seed: int, rel_tol: float | None) -> None:
    """An InvalidParameter unless seed is an integer >= 0 and rel_tol is None
    or a finite positive real."""
    if isinstance(seed, bool) or not (isinstance(seed, Integral) and seed >= 0):
        raise InvalidParameter("seed", f"must be a non-negative integer, got {seed!r}")
    if rel_tol is not None and (isinstance(rel_tol, bool) or not (
            isinstance(rel_tol, Real) and 0.0 < rel_tol <= sys.float_info.max)):
        raise InvalidParameter("rel_tol", f"must be finite and positive, got {rel_tol!r}")


def run_check(name: str, seed: int = DEFAULT_SEED,
              rel_tol: float | None = None) -> CheckReport:
    """Run one named check; first _validate_run's InvalidParameter, then
    UnknownCheck if the name is not registered."""
    _validate_run(seed, rel_tol)
    if not isinstance(name, str) or name not in _REGISTRY:
        raise UnknownCheck(f"no check named {name!r}")
    row = _REGISTRY[name]
    metric, details = row.check(seed, rel_tol, *row.args)
    threshold = row.threshold(rel_tol) if callable(row.threshold) else row.threshold
    passed = metric <= threshold if row.comparison == "<=" else metric >= threshold
    return CheckReport(name, bool(passed), float(metric), float(threshold),
                       row.comparison, details)


def run_suite(selection: Sequence[str] | None = None, seed: int = DEFAULT_SEED,
              rel_tol: float | None = None) -> tuple[list[CheckReport], SuiteSummary]:
    """Run a selection of checks (all by default) and summarize.

    ``selection`` entries may be exact names or prefixes; ``rel_tol``
    overrides the integrator tolerance of every integration-backed check
    (the documented way to demonstrate threshold sensitivity).  Before it
    selects, an InvalidParameter unless seed and rel_tol are as run_check
    takes them and ``selection`` is None or a sequence of str.
    """
    _validate_run(seed, rel_tol)
    if selection is None:
        names = check_names()
    else:
        if (isinstance(selection, str) or not isinstance(selection, Sequence)
                or not all(isinstance(want, str) for want in selection)):
            raise InvalidParameter("selection", "must be a sequence of check names "
                                   f"or prefixes, got {selection!r}")
        names = []
        for want in selection:
            hits = [n for n in check_names() if n == want or n.startswith(want)]
            if not hits:
                raise UnknownCheck(f"no check named {want!r}")
            names.extend(hits)
        names = sorted(dict.fromkeys(names))
    reports = [run_check(n, seed=seed, rel_tol=rel_tol) for n in names]
    passed = sum(1 for r in reports if r.passed and not r.is_demonstration)
    expected = sum(1 for r in reports if r.passed and r.is_demonstration)
    failed = sum(1 for r in reports if not r.passed)
    return reports, SuiteSummary(passed, expected, failed)
