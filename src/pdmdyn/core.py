"""Domain types and energy bookkeeping for position-dependent-mass systems.

Two kinetic-term shapes are supported.  "type1" deforms each velocity
component by its own scalar multiplier sqrt(m_i(x_i)); "type2" deforms all
components by a single shared multiplier sqrt(m(x1..xn)).  The rest mass is
fixed to 1: a general constant would multiply kinetic and potential terms
alike and add nothing.

Every type1 system, catalog or ``custom``, is the same object: n compiled
mass profiles and n compiled potential terms V_i(x_i).  A catalog family's
record in ``families`` supplies its mass and potential templates;
build_system substitutes each coordinate's parameters into them and resolves
the record's domain, coefficient singularity and potential pole once, so
evaluation never branches on the family.

This module is the only place that knows what a parameter is: which ones
hold one entry per coordinate (VECTORS) and each one's admissible range
(_validate), the same for every family.  A family requires exactly the
parameters its templates read.
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


#: parameters with one entry per coordinate; a scalar broadcasts to all n
VECTORS = ("omega", "zeta", "eta_const", "kappa")


@dataclass(frozen=True)
class ParameterSet:
    """The parameters of a system, read by name from a family's templates.

    Any field may be left unset; a family needs those its templates read.
    Construction checks only finiteness: build_system checks shapes and
    ranges (_validate), for every field that is set.
    """

    omega: tuple[float, ...] | None = None     # angular frequencies, > 0
    lam: float | None = None                   # deformation strength (kept >= 0)
    sign: str | None = None                    # branch tag for the 1 +- lam x^2 families
    upsilon: float | None = None               # power-law exponent, != -1
    alpha: float | None = None                 # power-law scale, > 0
    zeta: tuple[float, ...] | None = None      # exponential rates, > 0
    eta_const: tuple[float, ...] | None = None # constants of the constant-map family, != 0
    eta_exp: float | None = None               # isotonic power-law exponent, != 0, 1
    beta: float | None = None                  # isotonic power-law scale, > 0
    kappa: tuple[float, ...] | None = None     # inverse-square strengths, > 0

    def __post_init__(self):
        # no inf or nan reaches a family's formulas or templates
        for name, value in vars(self).items():
            values = value if isinstance(value, (tuple, list)) else (value,)
            if name != "sign" and value is not None and not all(map(math.isfinite, values)):
                raise InvalidParameter(name, f"must be finite, got {value!r}")


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
            if name in VECTORS and value is not None:
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
    domain: tuple[float, float] = REAL_LINE
    pole: float | None = None

    def __post_init__(self):
        # resolved once, when the system is built: the compiled expressions
        # x -> (V_i, V_i', V_i''), the family record (None for custom) and
        # the energy closure
        object.__setattr__(self, "compiled", tuple(compile_expression(e) for e in self.exprs))
        object.__setattr__(self, "record", FAMILIES.get(self.family))
        object.__setattr__(self, "energy", _potential(self))


@dataclass(frozen=True)
class PdmSystem:
    """A validated n-dimensional position-dependent-mass Lagrangian."""

    n: int
    kind: str                       # TYPE1 or TYPE2
    profiles: tuple                 # n CustomProfile for TYPE1, one CoupledProfile for TYPE2
    potential: PotentialSpec

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
    nfev: int = 0                  # RHS evaluations attempted, dense output's included
    rejected_guard: int = 0        # of the rejected steps, those a domain guard stopped
    dense: object = None           # integrate's DOP853 interpolant; None: cubic Hermite

    def __len__(self) -> int:
        return len(self.t)

    def state(self, k: int) -> State:
        return State(float(self.t[k]), self.x[k].copy(), self.v[k].copy())


# --- validation and construction ---------------------------------------------


def _check_lengths(params: ParameterSet, n: int) -> None:
    for name in VECTORS:
        value = getattr(params, name)
        if value is not None and len(value) != n:
            raise InvalidParameter(name, f"expected {n} entries, got {len(value)}")


def _validate(n: int, p: ParameterSet) -> None:
    """Shape and range of every parameter that is set, whichever family reads it."""
    if n < 1:
        raise InvalidParameter("n", f"dimension must be >= 1, got {n}")
    _check_lengths(p, n)
    if p.sign is not None and p.sign not in ("+", "-"):
        raise InvalidParameter("sign", f"must be '+' or '-', got {p.sign!r}")
    if p.lam is not None and p.lam < 0.0:
        raise InvalidParameter("lam", "kept non-negative; use the sign branch tag")
    if p.upsilon is not None and p.upsilon == -1.0:
        raise InvalidParameter("upsilon", "-1 collapses the coordinate map to a constant")
    if p.eta_exp is not None and p.eta_exp == 1.0:
        raise InvalidParameter("eta_exp", "1 reduces to the constant-mass oscillator")
    if p.eta_exp is not None and p.eta_exp == 0.0:
        raise InvalidParameter("eta_exp", "0 collapses the coordinate map to a constant")
    for name in ("omega", "alpha", "zeta", "kappa", "beta"):
        value = getattr(p, name)
        values = value if isinstance(value, (tuple, list)) else (value,)
        if value is not None and min(values) <= 0.0:
            raise InvalidParameter(name, f"must be positive, got {value!r}")
    if p.eta_const is not None and 0.0 in p.eta_const:
        raise InvalidParameter("eta_const", "zero collapses the coordinate map")


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
    _validate(n, p)
    if record is None:
        return _custom_system(n, p, mass_exprs, potential_exprs, kind)
    masses = [_substitute(record.mass, p, i) for i in range(n)]
    exprs = tuple(parse_cached(_substitute(record.potential, p, i)) for i in range(n))
    domain, singularity = record.domain(p), record.singularity(p)
    profiles = tuple(CustomProfile.from_text(m, domain, singularity) for m in masses)
    return PdmSystem(n, TYPE1, profiles, PotentialSpec(family, p, exprs, domain, record.pole))


def _substitute(template: str, p: ParameterSet, i: int) -> str:
    """A record's template for coordinate i: each parameter name becomes its value.

    A vector parameter stands for its entry i and ``sign`` for +1 or -1.
    repr round-trips the float; a negative one keeps its own parentheses.
    A name the template reads and ``p`` lacks is a MissingParameter.
    """
    def value(match: re.Match) -> str:
        name = match.group(0)
        if name not in ParameterSet.__dataclass_fields__:
            return name
        v = getattr(p, name)
        if v is None:
            raise MissingParameter(name)
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
    return PdmSystem(n, want, profiles, PotentialSpec("custom", p, exprs))


# --- energy evaluation -----------------------------------------------------------


def _potential(pot: PotentialSpec):
    """V(x) on a list of floats: the sum of the compiled terms, each x_i checked
    first against the domain and the pole; a DomainViolation unless finite."""
    terms, (lo, hi), pole = pot.compiled, pot.domain, pot.pole

    def energy(x: list[float]) -> float:
        total = 0.0
        for i, (term, xi) in enumerate(zip(terms, x)):
            if not lo < xi < hi:
                raise DomainViolation(f"x_{i + 1}={xi!r} outside the domain ({lo}, {hi})",
                                      coordinate=i)
            if xi == pole:
                raise SingularPoint(f"potential singular at x_{i + 1} = {xi!r}", i)
            total += term(xi, 1.0)[0]
        if not math.isfinite(total):
            raise DomainViolation(f"potential energy V={total!r} is not finite at x={x}")
        return total
    return energy


def potential_energy(system: PdmSystem, x: Sequence[float]) -> float:
    """V(x), the sum of the compiled per-coordinate terms; a DomainViolation
    when it is not finite."""
    return system.potential.energy([*map(float, x)])


def potential_gradient(system: PdmSystem, x: Sequence[float]) -> np.ndarray:
    """dV/dx as a vector, exact through the compiled dual-number terms."""
    pot = system.potential
    (lo, hi), pole = pot.domain, pot.pole
    xs = [*map(float, x)]
    if not all(lo < xi < hi and xi != pole for xi in xs):
        pot.energy(xs)  # raises the first coordinate's error
    return np.array([term(xi, 1.0)[1] for term, xi in zip(pot.compiled, xs)])


def kinetic_energy(system: PdmSystem, state: State) -> float:
    """Kinetic term: per-coordinate multipliers for type1, a shared one for
    type2; a DomainViolation when it overflows or is not finite."""
    try:
        if system.kind == TYPE2:
            m, _ = system.coupled_profile.value_and_gradient(state.x)
            total = 0.5 * m * float(np.dot(state.v, state.v))
        else:
            total = 0.0
            for profile, xi, vi in zip(system.profiles, state.x, state.v):
                total += 0.5 * profile.eval(float(xi))[0] * float(vi) ** 2
    except OverflowError as err:
        raise DomainViolation(f"float overflow in the kinetic energy at t={state.t!r}",
                              t=state.t) from err
    if not math.isfinite(total):
        raise DomainViolation(f"kinetic energy T={total!r} is not finite at t={state.t!r}",
                              t=state.t)
    return total


def total_energy(system: PdmSystem, state: State) -> float:
    """T + V; a DomainViolation when a term or the sum is not finite."""
    t = kinetic_energy(system, state)
    v = potential_energy(system, state.x)
    if not math.isfinite(t + v):
        raise DomainViolation(f"energy is not finite at t={state.t!r}: T={t!r}, V={v!r}",
                              t=state.t)
    return t + v
