"""Closed-form solutions, frequency relations and energies for all families.

Each family's closed form, branch, amplitude checks, frequency relation,
position period and energy live in its record in ``families``; a spec
evaluates each coordinate's frequency Omega_i once, when it is built, and
on first use compiles the closed forms with A_i, phase_i, rate = Omega_i and
the parameters substituted, in t at order 2, so (x, xdot, xddot) come from
the same dual numbers as the equations of motion.  One generated loop (the
spec's ``grid``) runs them over a grid of times: at each t, coordinate by
coordinate, the branch check cos(Omega_i t + phase_i) > 0 where the family
has one, the closed form's lines and its pole and finiteness checks.
exact_trajectory runs it over its grid, kinematics at one t.

Wherever a published relation conflicts with the equation-of-motion residual
oracle, the catalog stores the oracle-validated form and records the printed
one in MISPRINTS (surfaced by the CLI).  Three such corrections are active:

* the amplitude-dependent frequency of the inverse-quadratic family carries
  a spurious amplitude factor in print (validated: Omega^2 = w^2/(1 +- lam A^2));
* the power-law energy constant is B = A^(1+upsilon), not A^(1/(1+upsilon));
* the isotonic power-law closed form only solves its equations for eta = -1
  as printed; rescaling kappa -> eta^2 kappa inside it makes it exact for
  every admissible eta (a derived extension, not published content).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Callable

import numpy as np

from .core import (ParameterSet, State, Termination, Trajectory, _check_shape,
                   _substitute, _validate, build_system, total_energy)
from .errors import DomainViolation, InvalidParameter, InvalidSpec
from .exprparse import compile_grid, parse_cached
from .families import (AMENDED_FORM, FAMILIES, PUBLISHED_FORM,
                       ml2_reduction_check)


@dataclass(frozen=True)
class ExactSolutionSpec:
    """Parameters of one closed-form solution.

    ``amplitude`` holds the family's integration constant per coordinate
    (A for the oscillator families, B for the bounded-exponential one,
    C for the inverse-square ones); ``phase`` the matching phase constant.
    ``variant`` selects the published ("published") or kappa-rescaled
    ("amended") form of the isotonic power-law solution.  Building it
    stores ``frequency``, the validated angular frequency Omega_i of each
    coordinate, which each closed form is written in.
    """

    family: str
    params: ParameterSet
    amplitude: tuple[float, ...]
    phase: tuple[float, ...] = ()
    variant: str = PUBLISHED_FORM

    def __post_init__(self):
        record = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if record is None:
            raise InvalidSpec(f"no closed form catalogued for {self.family!r}")
        object.__setattr__(self, "record", record)
        if self.variant not in (PUBLISHED_FORM, AMENDED_FORM):
            raise InvalidSpec(f"unknown variant {self.variant!r}")
        try:
            n = len(self.amplitude)
            phase = self.phase if self.phase else tuple(0.0 for _ in range(n))
            finite = all(map(math.isfinite, (*self.amplitude, *phase)))
        except TypeError:
            raise InvalidSpec(f"amplitude {self.amplitude!r} and phase {self.phase!r} "
                              f"must be finite numbers") from None
        object.__setattr__(self, "phase", phase)
        if len(phase) != n:
            raise InvalidSpec("amplitude and phase lengths differ")
        _check_shape(n, self.params)
        for template in (record.mass, record.potential):    # as build_system reads them
            _substitute(template, self.params, 0)           # a MissingParameter if unset
        if not finite:
            raise InvalidSpec(f"amplitude {self.amplitude} and phase {phase} must be finite")
        record.check(self.params, self.amplitude)   # first: its InvalidSpec is more specific
        _validate(n, self.params)                   # then the ranges build_system checks
        frequency = tuple(record.frequency(self.params, i, a)
                          for i, a in enumerate(self.amplitude))
        # an amplitude so large that the relation overflows reads as 0 or inf
        if not all(math.isfinite(w) and w > 0.0 for w in frequency):
            raise InvalidSpec(f"no finite positive frequency at amplitude "
                              f"{self.amplitude}: {list(frequency)}")
        object.__setattr__(self, "frequency", frequency)

    @property
    def n(self) -> int:
        return len(self.amplitude)

    @functools.cached_property
    def grid(self) -> Callable:
        """ts -> the flat list of (x_i, xdot_i, xddot_i), time after time and
        coordinate after coordinate: every coordinate's closed form, the
        template with its values substituted, in one ``compile_grid`` loop
        bound to ``_fail``, compiled when first read."""
        record = self.record
        template = (record.amended_form if self.variant == AMENDED_FORM and record.amended_form
                    else record.closed_form)
        exprs = tuple(parse_cached(_substitute(template, self.params, i, A=A, phase=phase,
                                               rate=rate), ("t",))
                      for i, (A, phase, rate) in enumerate(zip(self.amplitude, self.phase,
                                                               self.frequency)))
        return compile_grid(exprs, self.frequency, self.phase, record.branch,
                            record.pole)(self._fail)

    def _fail(self, t, i: int | None, *row):
        """Raise what the closed form owes at t: coordinate i off its branch
        (no row), at the pole (row (x,)) or not finite (row (x, xdot, xddot));
        or (i None) the error row[0] its lines raised, as an InvalidSpec."""
        if i is None:
            err = row[0]
        elif not row:
            raise DomainViolation(f"{self.family} closed form leaves its branch (cos <= 0)",
                                  t=t, coordinate=i)
        elif len(row) == 1:     # u^rho, rho < 0, reads 0 where u overflows
            err = OverflowError(f"x = {row[0]!r} is the pole: u is not finite")
        else:
            err = ArithmeticError(f"(x, xdot, xddot) = {row} is not finite")
        raise InvalidSpec(f"closed form fails at t={t!r}, amplitude {self.amplitude}: "
                          f"{err}") from err


def oscillation_period(spec: ExactSolutionSpec) -> np.ndarray:
    """Period of the position signal per coordinate.

    The inverse-square families oscillate in x^2, so their position period is
    half the phase period.
    """
    return spec.record.position_phase / np.array(spec.frequency)


#: times per grid call in exact_trajectory: bounds the Python floats held at once
_CHUNK = 4096


def _time(name: str, t) -> None:
    """An InvalidParameter unless t is a real number (a bool is not) inside
    the float range."""
    if type(t) is float:    # before the slower check against the abstract Real
        return
    if isinstance(t, bool) or not isinstance(t, Real):
        raise InvalidParameter(name, f"must be a real number, got {t!r}")
    try:
        float(t)
    except OverflowError:   # an int past the largest float
        raise InvalidParameter(name, f"must be inside the float range, got {t!r}") from None


def kinematics(spec: ExactSolutionSpec, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic (x, xdot, xddot) of the closed form at time t: the spec's grid
    at the one time t.  An InvalidParameter unless t is a real number; an
    InvalidSpec where an extreme amplitude or time makes it overflow, divide
    by zero, take the cosine of an infinite phase or return a value that is
    not finite; off a branch, a DomainViolation."""
    _time("t", t)
    flat = np.array(spec.grid((t,)))
    return flat[0::3], flat[1::3], flat[2::3]


def exact_solution(spec: ExactSolutionSpec, t: float) -> State:
    """State (positions, velocities) of the closed form at time t."""
    x, v, _ = kinematics(spec, t)
    return State(float(t), x, v)


def exact_trajectory(spec: ExactSolutionSpec, t0: float, t1: float, samples: int):
    """A Trajectory holding dense analytic samples of the closed form.

    Lets trajectory consumers (period estimation, the nonlocal map, quadrature)
    run on a closed form exactly as they would on integrator output.  The
    spec's grid runs over the times, so every sample holds the bits
    kinematics gives at its time, and the first failing time raises what
    kinematics raises there.  An InvalidParameter unless t0 and t1 are real
    numbers, samples an integer >= 1, and the grid finite and forward.
    """
    _time("t0", t0)
    _time("t1", t1)
    try:
        samples = operator.index(samples)
    except TypeError:
        raise InvalidParameter("samples", f"must be an integer, got {samples!r}") from None
    if samples < 1:
        raise InvalidParameter("samples", f"need at least 1, got {samples!r}")
    if not math.isfinite(t1 - t0):
        raise InvalidParameter("t1", f"the grid from t0={t0!r} to t1={t1!r} is not finite")
    if t1 < t0:
        raise InvalidParameter("t1", f"{t1!r} is before the grid start t0={t0!r}")
    try:
        # near the largest float the last step's product overflows before
        # linspace sets that sample to t1 itself
        with np.errstate(over="ignore"):
            ts = np.linspace(t0, t1, samples)
        width = 3 * spec.n
        flat = np.empty(samples * width)
    except (ValueError, MemoryError) as err:    # more samples than one array can hold
        raise InvalidParameter("samples", f"too many for one array: {err}") from None
    for k in range(0, samples, _CHUNK):
        part = spec.grid(ts[k:k + _CHUNK].tolist())
        flat[k * width:k * width + len(part)] = np.fromiter(part, float, len(part))
    xs, vs, accs = flat.reshape(samples, spec.n, 3).transpose(2, 0, 1).copy()
    return Trajectory(ts, xs, vs, accs, samples, 0, 0.0, Termination("completed"))


def exact_energy(spec: ExactSolutionSpec) -> float:
    """Total energy of the closed form.

    Families with a validated printed formula use it; the inverse-square
    families are evaluated through total_energy on the solution, which is the
    formula of record (and the cross-check for everything else).
    """
    term = spec.record.coordinate_energy
    if term is None:
        system = build_system(spec.family, spec.n, spec.params)
        return total_energy(system, exact_solution(spec, 0.0))
    total = 0.0
    for i in range(spec.n):
        total += term(spec.params, spec.amplitude[i], i)
    return total


# --- misprint ledger ---------------------------------------------------------


@dataclass(frozen=True)
class MisprintEntry:
    identifier: str
    published_ref: str
    family: str
    printed: str
    validated: str
    note: str


MISPRINTS: tuple[MisprintEntry, ...] = (
    MisprintEntry(
        identifier="ml1-frequency",
        published_ref="(30)",
        family="ml1",
        printed="Omega_i^2 = omega_i^2 A_i^2 / (1 +- lam A_i^2)",
        validated="Omega_i^2 = omega_i^2 / (1 +- lam A_i^2)",
        note="substituting the cosine form into the equations of motion cancels "
             "the amplitude factor; the printed energy formula already matches "
             "the validated relation",
    ),
    MisprintEntry(
        identifier="powerlaw-restoring-term",
        published_ref="(34)",
        family="powerlaw",
        printed="xdd + (upsilon/x) xd^2 + (1+upsilon) omega^2 x^2 = 0",
        validated="xdd + (upsilon/x) xd^2 + (1+upsilon) omega^2 x = 0",
        note="the restoring term is linear in x; the printed closed-form "
             "solution satisfies the linear equation, not the quadratic one",
    ),
    MisprintEntry(
        identifier="powerlaw-energy-constant",
        published_ref="(36)",
        family="powerlaw",
        printed="B_i = A_i^(1/(1+upsilon))",
        validated="B_i = A_i^(1+upsilon)",
        note="energy evaluated at the turning point gives "
             "E = (1/2) sum alpha^2 omega_i^2 A_i^(2(1+upsilon))",
    ),
    MisprintEntry(
        identifier="morse-scale-subscript",
        published_ref="(47)",
        family="morse",
        printed="=_i f_i (stray subscript placement)",
        validated="f_i = zeta_i",
        note="read as a plain constant time-rescaling factor",
    ),
    MisprintEntry(
        identifier="sw2-kappa-normalization",
        published_ref="(66)-(67)",
        family="sw2",
        printed="closed form with kappa inside the radical; "
                "valid only for eta = -1",
        validated="same form with kappa -> eta^2 kappa is exact for every "
                  "admissible eta (derived extension, not published content)",
        note="the eta = -1 restriction stems from the kappa normalization; "
             "the residual oracle passes the rescaled form for eta = 2",
    ),
    MisprintEntry(
        identifier="powerlaw-map-exponent",
        published_ref="(70)",
        family="powerlaw",
        printed="q_i = alpha x_i^(alpha+1)",
        validated="q_i = alpha x_i^(upsilon+1)",
        note="exponent symbol swap; the section it recaps uses upsilon+1",
    ),
)
