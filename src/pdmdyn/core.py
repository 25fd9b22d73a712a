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
evaluation never branches on the family.  A system's energy T + V at a state
is one generated kernel (``exprparse.compile_energy``), compiled by the
first ``total_energy`` call for it and kept on the system.

This module is the only place that knows what a parameter is: which ones
hold one entry per coordinate (VECTORS) and each one's admissible range
(_validate), the same for every family.  A family requires exactly the
parameters its templates read.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DomainViolation, InvalidParameter, MissingParameter, SingularPoint
from .exprparse import Expr, compile_energy, compile_potential, parse_cached
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
    _dimension(n)
    try:
        data = dict(data or {})
    except (TypeError, ValueError):
        raise InvalidParameter("params", f"expected a mapping, got {data!r}") from None
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
            elif name == "sign" and value is not None:
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

    ``energies`` and ``gradients`` are the terms' generated kernels
    (``exprparse.compile_potential`` at order 0 and 1), each compiled when
    first read and bound to ``_fail``.  Building a system compiles nothing.
    """

    family: str
    params: ParameterSet
    exprs: tuple[Expr, ...]
    domain: tuple[float, float] = REAL_LINE
    pole: float | None = None

    def __post_init__(self):
        # resolved with the system: the record, None for custom
        object.__setattr__(self, "record", FAMILIES.get(self.family))

    @functools.cached_property
    def energies(self) -> Callable:
        """Points of n floats -> the list of V at each, in order: the terms
        summed from 0.0 in coordinate order, each x_i checked first against
        the domain and the pole; a DomainViolation unless finite."""
        return compile_potential(self.exprs, self.domain, self.pole, 0)(self._fail)

    @functools.cached_property
    def gradients(self) -> Callable:
        """Points of n floats -> the list of [V_1', .., V_n'] at each, in
        order, each x_i checked first against the domain and the pole."""
        return compile_potential(self.exprs, self.domain, self.pole, 1)(self._fail)

    def _fail(self, i: int | None, x: Sequence[float], total: float | None = None):
        """Raise what the energy owes at x: for coordinate i's failed check,
        or (i None) for the sum total that is not finite."""
        if i is None:
            raise DomainViolation(f"potential energy V={total!r} is not finite at x={list(x)}")
        (lo, hi), xi = self.domain, x[i]
        if not lo < xi < hi:
            raise DomainViolation(f"x_{i + 1}={xi!r} outside the domain ({lo}, {hi})",
                                  coordinate=i)
        raise SingularPoint(f"potential singular at x_{i + 1} = {xi!r}", i)


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

    @functools.cached_property
    def energy(self) -> Callable:
        """kernel(t, x, v) -> T + V, x and v lists of n floats: the generated
        energy kernel (``exprparse.compile_energy``), compiled when first read."""
        return _energy_kernel(self, self.potential.exprs)

    @functools.cached_property
    def kinetic(self) -> Callable:
        """kernel(t, x, v) -> T alone, as ``energy``."""
        return _energy_kernel(self, ())


@dataclass(frozen=True)
class State:
    t: float
    x: np.ndarray
    v: np.ndarray

    @staticmethod
    def of(t: float, x: Sequence[float], v: Sequence[float]) -> "State":
        """A State of floats; an InvalidParameter naming t, x or v where it is
        not a number, is a string or holds an entry float() refuses (None too)."""
        return State(_number(t, "t"), np.array(_number(x, "x", _floats)),
                     np.array(_number(v, "v", _floats)))


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


def _dimension(n: int) -> None:
    """An InvalidParameter unless n is an integer from 1 to sys.maxsize."""
    if isinstance(n, bool) or not isinstance(n, Integral):
        raise InvalidParameter("n", f"expected an integer, got {n!r}")
    if n < 1:
        raise InvalidParameter("n", f"dimension must be >= 1, got {n}")
    if n > sys.maxsize:
        raise InvalidParameter("n", "dimension beyond any list's length")


def _check_shape(n: int, p: ParameterSet) -> None:
    for name in VECTORS:
        value = getattr(p, name)
        if value is not None and len(value) != n:
            raise InvalidParameter(name, f"expected {n} entries, got {len(value)}")


def _validate(n: int, p: ParameterSet) -> None:
    """Shape and range of every parameter that is set, whichever family reads it."""
    _check_shape(n, p)
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
    record = FAMILIES.get(family) if isinstance(family, str) else None
    if record is None and family != "custom":
        raise InvalidParameter("family", f"unknown family {family!r}")
    _dimension(n)
    p = parameter_set(params, n)
    _validate(n, p)
    if record is None:
        return _custom_system(n, p, mass_exprs, potential_exprs, kind)
    masses = [_substitute(record.mass, p, i) for i in range(n)]
    exprs = tuple(parse_cached(_substitute(record.potential, p, i)) for i in range(n))
    domain, singularity = record.domain(p), record.singularity(p)
    profiles = tuple(CustomProfile.from_text(m, domain, singularity) for m in masses)
    return PdmSystem(n, TYPE1, profiles, PotentialSpec(family, p, exprs, domain, record.pole))


def _substitute(template: str, p: ParameterSet, i: int, **values: float) -> str:
    """A record's template for coordinate i: each parameter name becomes its value.

    A vector parameter stands for its entry i and ``sign`` for +1 or -1; a
    name given in ``values`` (a closed form's A, phase and rate) for that.
    repr round-trips the float; a negative one keeps its own parentheses.
    A name the template reads and ``p`` lacks is a MissingParameter.
    """
    def value(match: re.Match) -> str:
        name = match.group(0)
        if name in values:
            v = values[name]
        elif name not in ParameterSet.__dataclass_fields__:
            return name
        else:
            v = getattr(p, name)
            if v is None:
                raise MissingParameter(name)
            v = (1.0 if v == "+" else -1.0) if name == "sign" else v[i] if isinstance(v, tuple) else v
        text = repr(float(v))   # a numpy float's repr is not a number
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


def _number(value: object, name: str, convert: Callable = float):
    """convert(value), float(value) by default; an InvalidParameter naming
    ``name`` where value is not a number (for an array, an entry)."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(name, f"expected a number, got {value!r}") from None


def _floats(values: Sequence[float]) -> list[float]:
    """values as a list of floats; a TypeError for a string, which float() reads by character."""
    if isinstance(values, (str, bytes, bytearray)):
        raise TypeError(f"expected numbers, got {values!r}")
    return [*map(float, values)]


def _coordinates(system: PdmSystem, values: Sequence[float], name: str) -> list[float]:
    """values as n floats; an InvalidParameter unless there are n numbers."""
    try:
        out = _floats(values)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter(name, f"expected {system.n} numbers, got {values!r}") from None
    if len(out) != system.n:
        raise InvalidParameter(name, f"expected {system.n} coordinates, got {len(out)}")
    return out


def _state(system: PdmSystem, state: State) -> tuple[float, list[float], list[float]]:
    """The state's t, and its x and v as lists of n floats; an
    InvalidParameter unless it is a State whose x and v each hold n."""
    if not isinstance(state, State):
        raise InvalidParameter("state", f"expected a State, got {state!r}")
    return state.t, _coordinates(system, state.x, "x"), _coordinates(system, state.v, "v")


def potential_energy(system: PdmSystem, x: Sequence[float]) -> float:
    """V(x), the sum of the compiled per-coordinate terms; a DomainViolation
    when it is not finite."""
    return system.potential.energies((_coordinates(system, x, "x"),))[0]


def potential_gradient(system: PdmSystem, x: Sequence[float]) -> np.ndarray:
    """dV/dx as a vector, exact through the compiled dual-number terms."""
    return np.array(system.potential.gradients((_coordinates(system, x, "x"),))[0])


def _energy_fail(t: float, kinetic: float | None = None, potential: float | None = None):
    """Raise the DomainViolation the energy owes at t: a float overflow in
    a type1 T (no value), a T that is not finite, or a T + V that is not."""
    if kinetic is None:
        raise DomainViolation(f"float overflow in the kinetic energy at t={t!r}", t=t)
    if potential is None:
        raise DomainViolation(f"kinetic energy T={kinetic!r} is not finite at t={t!r}", t=t)
    raise DomainViolation(f"energy is not finite at t={t!r}: T={kinetic!r}, "
                          f"V={potential!r}", t=t)


def _energy_kernel(system: PdmSystem, potentials: tuple) -> Callable:
    """The system's ``compile_energy`` kernel over ``potentials`` (none: T
    alone), bound to the error each failed check owes."""
    pot = system.potential
    if system.kind == TYPE2:
        profile = system.coupled_profile
        kernel = compile_energy((profile.expr,), profile.names, (), potentials,
                                pot.domain, pot.pole)

        def mass(i, x, m):
            """The shared mass m <= 0 at x (i None)."""
            profile._positive(m, x)
    else:
        profiles = system.profiles
        kernel = compile_energy(tuple(p.expr for p in profiles), None,
                                tuple(p.domain for p in profiles), potentials,
                                pot.domain, pot.pole)

        def mass(i, x, m=None):
            """Coordinate i's mass outside its domain, or (given m) m < 0."""
            profiles[i]._fail(x[i], m)
    return kernel(mass, pot._fail, _energy_fail)


def kinetic_energy(system: PdmSystem, state: State) -> float:
    """Kinetic term: per-coordinate multipliers for type1, a shared one for
    type2; a DomainViolation when it overflows or is not finite."""
    return system.kinetic(*_state(system, state))


def total_energy(system: PdmSystem, state: State) -> float:
    """T + V from one conversion of the state and one call of the system's
    energy kernel; a DomainViolation when a term or the sum is not finite."""
    return system.energy(*_state(system, state))
