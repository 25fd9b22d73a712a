"""Domain types and energy bookkeeping for position-dependent-mass systems.

Two kinetic-term shapes are supported.  "type1" deforms each velocity
component by its own scalar multiplier sqrt(m_i(x_i)); "type2" deforms all
components by a single shared multiplier sqrt(m(x1..xn)).  The rest mass is
fixed to 1: a general constant would multiply kinetic and potential terms
alike and add nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import exprparse
from .errors import InvalidParameter, MissingParameter, SingularPoint
from .exprparse import Expr
from .profiles import (CoupledProfile, CustomProfile, Exponential,
                       IsotonicPowerLaw, MassProfile, MathewsLakshmanan,
                       PowerLaw)

TYPE1 = "type1"
TYPE2 = "type2"

#: families understood by build_system, potential_energy and the transform
FAMILIES = ("ml1", "powerlaw", "ml2", "morse", "sw1", "sw2",
            "harmonic", "isotonic", "custom")

#: families whose potential carries an inverse-square term (singular at x = 0)
ISOTONIC_FAMILIES = ("sw1", "sw2", "isotonic")


@dataclass(frozen=True)
class ParameterSet:
    """Union of every parameter any catalog family may need.

    Only the fields the chosen family requires must be set; build_system
    enforces presence and ranges.
    """

    omega: tuple[float, ...] | None = None     # angular frequencies, one per coordinate
    lam: float | None = None                   # deformation strength (kept >= 0)
    sign: str | None = None                    # branch tag for the 1 +- lam x^2 families
    upsilon: float | None = None               # power-law exponent, != -1
    alpha: float | None = None                 # power-law scale, > 0
    zeta: tuple[float, ...] | None = None      # exponential rates, > 0
    eta_const: tuple[float, ...] | None = None # constants of the constant-map family
    eta_exp: float | None = None               # isotonic power-law exponent, != 1
    beta: float | None = None                  # isotonic power-law scale, > 0
    kappa: tuple[float, ...] | None = None     # inverse-square strengths, > 0

    def require(self, *names: str) -> None:
        for name in names:
            if getattr(self, name) is None:
                raise MissingParameter(name)


def parameter_set(data: Mapping | ParameterSet | None, n: int) -> ParameterSet:
    """Build a ParameterSet from a mapping, broadcasting scalars to length n."""
    if isinstance(data, ParameterSet):
        return data
    data = dict(data or {})
    aliases = {"lambda": "lam"}
    kw = {}
    for key, value in data.items():
        name = aliases.get(key, key)
        if name not in ParameterSet.__dataclass_fields__:
            raise InvalidParameter(key, "unknown parameter")
        if name in ("omega", "zeta", "eta_const", "kappa") and value is not None:
            seq = [value] * n if isinstance(value, (int, float)) else list(value)
            value = tuple(float(v) for v in seq)
        elif name == "sign":
            value = str(value)
        elif value is not None:
            value = float(value)
        kw[name] = value
    return ParameterSet(**kw)


@dataclass(frozen=True)
class PotentialSpec:
    """Potential family plus its parameters.

    ``custom`` uses one parsed expression per coordinate (the total potential
    is their sum); catalog families derive everything from ``params``.
    """

    family: str
    params: ParameterSet
    exprs: tuple[Expr, ...] | None = None
    expr_texts: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PdmSystem:
    """A validated n-dimensional position-dependent-mass Lagrangian."""

    n: int
    kind: str                       # TYPE1 or TYPE2
    profiles: tuple                 # n MassProfile for TYPE1, one CoupledProfile for TYPE2
    potential: PotentialSpec
    rest_mass: float = 1.0

    @property
    def coupled_profile(self) -> CoupledProfile:
        assert self.kind == TYPE2
        return self.profiles[0]


@dataclass(frozen=True)
class State:
    t: float
    x: np.ndarray
    v: np.ndarray

    @staticmethod
    def of(t: float, x: Sequence[float], v: Sequence[float]) -> "State":
        return State(float(t), np.asarray(x, dtype=float), np.asarray(v, dtype=float))


@dataclass(frozen=True)
class EnergyBreakdown:
    kinetic: float
    potential: float
    total: float


@dataclass(frozen=True)
class Termination:
    kind: str                      # "completed" | "domain_violation" | "step_failure"
    t: float | None = None
    coordinate: int | None = None


@dataclass
class Trajectory:
    """Time-ordered integrator output plus step statistics."""

    t: np.ndarray                  # (N,)
    x: np.ndarray                  # (N, n)
    v: np.ndarray                  # (N, n)
    a: np.ndarray                  # (N, n) accelerations at accepted points
    accepted: int
    rejected: int
    max_error: float               # largest accepted local error estimate
    termination: Termination
    nfev: int = 0                  # RHS evaluations integrate attempted

    def __len__(self) -> int:
        return len(self.t)

    def state(self, k: int) -> State:
        return State(float(self.t[k]), self.x[k].copy(), self.v[k].copy())

    @property
    def samples(self) -> list[State]:
        return [self.state(k) for k in range(len(self.t))]


# --- validation and construction ---------------------------------------------


def _positive(params: ParameterSet, name: str) -> None:
    value = getattr(params, name)
    values = value if isinstance(value, tuple) else (value,)
    if any(not (v > 0.0) for v in values):
        raise InvalidParameter(name, f"must be positive, got {value!r}")


def _check_lengths(params: ParameterSet, n: int, *names: str) -> None:
    for name in names:
        value = getattr(params, name)
        if value is not None and len(value) != n:
            raise InvalidParameter(name, f"expected {n} entries, got {len(value)}")


def _validate_common(family: str, n: int, params: ParameterSet) -> None:
    if n < 1:
        raise InvalidParameter("n", f"dimension must be >= 1, got {n}")
    _check_lengths(params, n, "omega", "zeta", "eta_const", "kappa")
    if params.sign is not None and params.sign not in ("+", "-"):
        raise InvalidParameter("sign", f"must be '+' or '-', got {params.sign!r}")
    if params.lam is not None and params.lam < 0.0:
        raise InvalidParameter("lam", "kept non-negative; use the sign branch tag")
    if params.upsilon is not None and params.upsilon == -1.0:
        raise InvalidParameter("upsilon", "-1 collapses the coordinate map to a constant")
    if params.eta_exp is not None and params.eta_exp == 1.0:
        raise InvalidParameter("eta_exp", "1 reduces to the constant-mass oscillator")
    if params.eta_exp is not None and params.eta_exp == 0.0:
        raise InvalidParameter("eta_exp", "0 collapses the coordinate map to a constant")


def _ml_profiles(n: int, params: ParameterSet) -> tuple[MassProfile, ...]:
    return tuple(MathewsLakshmanan(params.lam, params.sign) for _ in range(n))


def build_system(family: str, n: int = 1,
                 params: Mapping | ParameterSet | None = None,
                 mass_exprs: Sequence[str] | None = None,
                 potential_exprs: Sequence[str] | None = None,
                 kind: str | None = None) -> PdmSystem:
    """Construct and validate a PdmSystem for a named family.

    ``custom`` takes per-coordinate mass and potential expressions (kind
    TYPE1), or a single coupled mass expression over x1..xn (kind TYPE2).
    """
    if family not in FAMILIES:
        raise InvalidParameter("family", f"unknown family {family!r}")
    p = parameter_set(params, n)
    _validate_common(family, n, p)

    if family == "ml1":
        p.require("omega", "lam", "sign")
        _positive(p, "omega")
        profiles: tuple = _ml_profiles(n, p)
    elif family == "powerlaw":
        p.require("omega", "alpha", "upsilon")
        _positive(p, "omega")
        _positive(p, "alpha")
        profiles = tuple(PowerLaw(p.alpha, p.upsilon) for _ in range(n))
    elif family == "ml2":
        p.require("omega", "lam", "sign", "eta_const")
        _positive(p, "omega")
        if any(e == 0.0 for e in p.eta_const):
            raise InvalidParameter("eta_const", "zero collapses the coordinate map")
        profiles = _ml_profiles(n, p)
    elif family == "morse":
        p.require("omega", "zeta")
        _positive(p, "omega")
        _positive(p, "zeta")
        profiles = tuple(Exponential(z) for z in p.zeta)
    elif family == "sw1":
        p.require("omega", "lam", "sign", "kappa")
        _positive(p, "omega")
        _positive(p, "kappa")
        profiles = _ml_profiles(n, p)
    elif family == "sw2":
        p.require("omega", "kappa", "beta", "eta_exp")
        _positive(p, "omega")
        _positive(p, "kappa")
        _positive(p, "beta")
        profiles = tuple(IsotonicPowerLaw(p.beta, p.eta_exp) for _ in range(n))
    elif family == "harmonic":
        p.require("omega")
        _positive(p, "omega")
        profiles = tuple(CustomProfile.from_text("1") for _ in range(n))
    elif family == "isotonic":
        p.require("omega", "kappa")
        _positive(p, "omega")
        _positive(p, "kappa")
        profiles = tuple(CustomProfile.from_text("1") for _ in range(n))
    else:  # custom
        if mass_exprs is None:
            raise MissingParameter("mass_exprs", "custom systems need mass expressions")
        want = TYPE2 if kind == TYPE2 else TYPE1
        if want == TYPE2:
            if len(mass_exprs) != 1:
                raise InvalidParameter("mass_exprs", "type2 takes one coupled expression")
            profiles = (CoupledProfile.from_text(mass_exprs[0], n),)
        else:
            if len(mass_exprs) != n:
                raise InvalidParameter("mass_exprs", f"expected {n} expressions")
            profiles = tuple(CustomProfile.from_text(s) for s in mass_exprs)
        pot = _custom_potential(n, p, potential_exprs)
        return PdmSystem(n, want, profiles, pot)

    potential = PotentialSpec(family, p)
    return PdmSystem(n, TYPE1, profiles, potential)


def _custom_potential(n: int, p: ParameterSet,
                      potential_exprs: Sequence[str] | None) -> PotentialSpec:
    texts = tuple(potential_exprs) if potential_exprs else tuple("0" for _ in range(n))
    if len(texts) != n:
        raise InvalidParameter("potential_exprs", f"expected {n} expressions")
    exprs = tuple(exprparse.parse_expression(s, ["x"]) for s in texts)
    return PotentialSpec("custom", p, exprs, texts)


# --- potential evaluation ------------------------------------------------------


def _coordinate_potential(system: PdmSystem, i: int, xi: float,
                          m: float, m1: float) -> tuple[float, float]:
    """(V_i, dV_i/dx_i) for one coordinate of a separable potential."""
    family = system.potential.family
    p = system.potential.params
    if family == "custom":
        val, d1, _ = exprparse.eval_dual(system.potential.exprs[i], xi)
        return val, d1
    w2 = p.omega[i] * p.omega[i]
    if family in ("ml1", "powerlaw"):
        v = 0.5 * w2 * m * xi * xi
        dv = 0.5 * w2 * (m1 * xi * xi + 2.0 * m * xi)
        return v, dv
    if family == "ml2":
        e2 = p.eta_const[i] * p.eta_const[i]
        return 0.5 * w2 * e2 * m, 0.5 * w2 * e2 * m1
    if family == "morse":
        z = p.zeta[i]
        ez = math.exp(-z * xi)
        w = 1.0 - ez
        v = 0.5 * w2 * m * w * w
        dv = 0.5 * w2 * (m1 * w * w + 2.0 * m * w * z * ez)
        return v, dv
    if family in ("sw1", "sw2"):
        if xi == 0.0:
            raise SingularPoint(f"inverse-square potential singular at x_{i + 1} = 0", i)
        k = p.kappa[i]
        v = 0.5 * (w2 * m * xi * xi + k / (m * xi * xi))
        dv = 0.5 * (w2 * (m1 * xi * xi + 2.0 * m * xi)
                    - k * (m1 * xi + 2.0 * m) / (m * m * xi ** 3))
        return v, dv
    if family == "harmonic":
        return 0.5 * w2 * xi * xi, w2 * xi
    if family == "isotonic":
        if xi == 0.0:
            raise SingularPoint(f"inverse-square potential singular at x_{i + 1} = 0", i)
        k = p.kappa[i]
        return 0.5 * (w2 * xi * xi + k / (xi * xi)), w2 * xi - k / xi ** 3
    raise InvalidParameter("family", f"no potential rule for {family!r}")


def _profile_values(system: PdmSystem, x: np.ndarray) -> list[tuple[float, float, float]]:
    return [system.profiles[i].eval(float(x[i])) for i in range(system.n)]


def potential_energy(system: PdmSystem, x: Sequence[float]) -> float:
    """V(x) for the system's potential family."""
    xv = np.asarray(x, dtype=float)
    if system.kind == TYPE2:
        total = 0.0
        for i in range(system.n):
            val, _, _ = exprparse.eval_dual(system.potential.exprs[i], float(xv[i]))
            total += val
        return total
    total = 0.0
    for i in range(system.n):
        m, m1, _ = system.profiles[i].eval(float(xv[i]))
        v, _ = _coordinate_potential(system, i, float(xv[i]), m, m1)
        total += v
    return total


def potential_gradient(system: PdmSystem, x: Sequence[float]) -> np.ndarray:
    """dV/dx as a vector; analytic for catalog families, dual-number for custom."""
    xv = np.asarray(x, dtype=float)
    if system.kind == TYPE2:
        out = np.empty(system.n)
        for i in range(system.n):
            _, d1, _ = exprparse.eval_dual(system.potential.exprs[i], float(xv[i]))
            out[i] = d1
        return out
    out = np.empty(system.n)
    for i in range(system.n):
        m, m1, _ = system.profiles[i].eval(float(xv[i]))
        _, dv = _coordinate_potential(system, i, float(xv[i]), m, m1)
        out[i] = dv
    return out


def kinetic_energy(system: PdmSystem, state: State) -> float:
    """Kinetic term: per-coordinate multipliers for type1, a shared one for type2."""
    if system.kind == TYPE2:
        m, _ = system.coupled_profile.value_and_gradient(state.x)
        return 0.5 * m * float(np.dot(state.v, state.v))
    total = 0.0
    for i in range(system.n):
        m, _, _ = system.profiles[i].eval(float(state.x[i]))
        total += 0.5 * m * float(state.v[i]) ** 2
    return total


def total_energy(system: PdmSystem, state: State) -> EnergyBreakdown:
    t = kinetic_energy(system, state)
    v = potential_energy(system, state.x)
    return EnergyBreakdown(t, v, t + v)
