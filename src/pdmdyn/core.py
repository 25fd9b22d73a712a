"""Domain types and energy bookkeeping for position-dependent-mass systems.

Two kinetic-term shapes are supported.  "type1" deforms each velocity
component by its own scalar multiplier sqrt(m_i(x_i)); "type2" deforms all
components by a single shared multiplier sqrt(m(x1..xn)).  The rest mass is
fixed to 1: a general constant would multiply kinetic and potential terms
alike and add nothing.

Every type1 system, catalog or ``custom``, is the same object: n compiled
mass profiles and n compiled potential terms V_i(x_i).  A catalog family's
record in ``families`` supplies its parameter checks and its mass and
potential templates; build_system substitutes each coordinate's parameters
into them and resolves the record's domain, coefficient singularity and
potential pole once, so evaluation never branches on the family.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import DomainViolation, InvalidParameter, MissingParameter, SingularPoint
from .exprparse import Expr, compile_expression, parse_cached
from .families import FAMILIES
from .profiles import REAL_LINE, CoupledProfile, CustomProfile

TYPE1 = "type1"
TYPE2 = "type2"


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

    def __post_init__(self):
        # no inf or nan reaches a family's formulas or templates
        for name, value in vars(self).items():
            values = value if isinstance(value, (tuple, list)) else (value,)
            if name != "sign" and value is not None and not all(map(math.isfinite, values)):
                raise InvalidParameter(name, f"must be finite, got {value!r}")

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
        try:
            if name in ("omega", "zeta", "eta_const", "kappa") and value is not None:
                seq = [value] * n if isinstance(value, (int, float)) else list(value)
                value = tuple(float(v) for v in seq)
            elif name == "sign":
                value = str(value)
            elif value is not None:
                value = float(value)
        except (TypeError, ValueError):
            raise InvalidParameter(name, f"must be a number, got {value!r}") from None
        kw[name] = value
    return ParameterSet(**kw)


@dataclass(frozen=True)
class PotentialSpec:
    """Potential family, its parameters and one expression V_i(x) per coordinate.

    The total potential is the sum of the V_i: the user's expressions for
    ``custom``, the record's template with the coordinate's parameters
    substituted for a catalog family.  Every x_i must lie inside the open
    interval ``domain``; x_i == ``pole`` is a SingularPoint.
    """

    family: str
    params: ParameterSet
    exprs: tuple[Expr, ...]
    expr_texts: tuple[str, ...]
    domain: tuple[float, float] = REAL_LINE
    pole: float | None = None

    def __post_init__(self):
        # resolved once, when the system is built: the compiled expressions
        # x -> (V_i, V_i', V_i'') and the family record (None for custom)
        object.__setattr__(self, "compiled", tuple(compile_expression(e) for e in self.exprs))
        object.__setattr__(self, "record", FAMILIES.get(self.family))


@dataclass(frozen=True)
class PdmSystem:
    """A validated n-dimensional position-dependent-mass Lagrangian."""

    n: int
    kind: str                       # TYPE1 or TYPE2
    profiles: tuple                 # n CustomProfile for TYPE1, one CoupledProfile for TYPE2
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


def _validate_common(n: int, params: ParameterSet) -> None:
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


def build_system(family: str, n: int = 1,
                 params: Mapping | ParameterSet | None = None,
                 mass_exprs: Sequence[str] | None = None,
                 potential_exprs: Sequence[str] | None = None,
                 kind: str | None = None) -> PdmSystem:
    """Construct and validate a PdmSystem for a named family.

    ``custom`` takes per-coordinate mass and potential expressions (kind
    TYPE1), or a single coupled mass expression over x1..xn (kind TYPE2).
    """
    record = FAMILIES.get(family)
    if record is None and family != "custom":
        raise InvalidParameter("family", f"unknown family {family!r}")
    p = parameter_set(params, n)
    _validate_common(n, p)
    if record is None:
        return _custom_system(n, p, mass_exprs, potential_exprs, kind)
    p.require(*record.required)
    for name in record.positive:
        _positive(p, name)
    record.validate(p)
    domain, singularity = record.domain(p), record.singularity(p)
    profiles = tuple(CustomProfile.from_text(_substitute(record.mass, p, i), domain, singularity)
                     for i in range(n))
    texts = tuple(_substitute(record.potential, p, i) for i in range(n))
    exprs = tuple(parse_cached(s) for s in texts)
    return PdmSystem(n, TYPE1, profiles, PotentialSpec(family, p, exprs, texts, domain,
                                                       record.pole))


def _substitute(template: str, p: ParameterSet, i: int) -> str:
    """A record's template for coordinate i: each parameter name becomes its value.

    A vector parameter stands for its entry i and ``sign`` for +1 or -1.
    repr round-trips the float; a negative one keeps its own parentheses.
    """
    def value(match: re.Match) -> str:
        name = match.group(0)
        if name not in ParameterSet.__dataclass_fields__:
            return name
        v = getattr(p, name)
        v = (1.0 if v == "+" else -1.0) if name == "sign" else v[i] if isinstance(v, tuple) else v
        text = repr(v)
        return f"({text})" if text.startswith("-") else text
    return re.sub(r"[A-Za-z_]\w*", value, template)


def _custom_system(n: int, p: ParameterSet, mass_exprs: Sequence[str] | None,
                   potential_exprs: Sequence[str] | None, kind: str | None) -> PdmSystem:
    if mass_exprs is None:
        raise MissingParameter("mass_exprs", "custom systems need mass expressions")
    want = TYPE2 if kind == TYPE2 else TYPE1
    if want == TYPE2:
        if len(mass_exprs) != 1:
            raise InvalidParameter("mass_exprs", "type2 takes one coupled expression")
        profiles: tuple = (CoupledProfile.from_text(mass_exprs[0], n),)
    else:
        if len(mass_exprs) != n:
            raise InvalidParameter("mass_exprs", f"expected {n} expressions")
        profiles = tuple(CustomProfile.from_text(s) for s in mass_exprs)
    texts = tuple(potential_exprs) if potential_exprs else tuple("0" for _ in range(n))
    if len(texts) != n:
        raise InvalidParameter("potential_exprs", f"expected {n} expressions")
    exprs = tuple(parse_cached(s) for s in texts)
    return PdmSystem(n, want, profiles, PotentialSpec("custom", p, exprs, texts))


# --- potential evaluation ------------------------------------------------------


def _inside(pot: PotentialSpec, i: int, xi: float) -> float:
    """x_i, once checked against the potential's domain and pole."""
    lo, hi = pot.domain
    if not lo < xi < hi:
        raise DomainViolation(f"x_{i + 1}={xi!r} outside the domain ({lo}, {hi})",
                              coordinate=i)
    if xi == pot.pole:
        raise SingularPoint(f"potential singular at x_{i + 1} = {xi!r}", i)
    return xi


def potential_energy(system: PdmSystem, x: Sequence[float]) -> float:
    """V(x), the sum of the compiled per-coordinate terms."""
    pot = system.potential
    total = 0.0
    for i, term in enumerate(pot.compiled):
        total += term(_inside(pot, i, float(x[i])), 1.0)[0]
    return total


def potential_gradient(system: PdmSystem, x: Sequence[float]) -> np.ndarray:
    """dV/dx as a vector, exact through the compiled dual-number terms."""
    pot = system.potential
    out = np.empty(system.n)
    for i, term in enumerate(pot.compiled):
        out[i] = term(_inside(pot, i, float(x[i])), 1.0)[1]
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
