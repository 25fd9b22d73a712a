"""Closed-form solutions, frequency relations and energies for all families.

Each family's closed form, amplitude checks, frequency relation, position
period and energy live in its record in ``families``; an ExactSolutionSpec
resolves the record and evaluates each coordinate's frequency once, when it
is built.

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

import math
from dataclasses import dataclass

import numpy as np

from .core import (ParameterSet, State, Termination, Trajectory, _check_lengths,
                   build_system, total_energy)
from .errors import InvalidParameter, InvalidSpec, MissingParameter
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
    coordinate, and ``rates``, the rate each closed form is written in.
    """

    family: str
    params: ParameterSet
    amplitude: tuple[float, ...]
    phase: tuple[float, ...] = ()
    variant: str = PUBLISHED_FORM

    def __post_init__(self):
        record = FAMILIES.get(self.family)
        if record is None:
            raise InvalidSpec(f"no closed form catalogued for {self.family!r}")
        object.__setattr__(self, "record", record)
        if self.variant not in (PUBLISHED_FORM, AMENDED_FORM):
            raise InvalidSpec(f"unknown variant {self.variant!r}")
        n = len(self.amplitude)
        phase = self.phase if self.phase else tuple(0.0 for _ in range(n))
        object.__setattr__(self, "phase", phase)
        if len(phase) != n:
            raise InvalidSpec("amplitude and phase lengths differ")
        _check_lengths(self.params, n)
        if not all(map(math.isfinite, (*self.amplitude, *phase))):
            raise InvalidSpec(f"amplitude {self.amplitude} and phase {phase} must be finite")
        record.check(self.params, self.amplitude)
        if self.params.omega is None:       # every closed form reads omega
            raise MissingParameter("omega")
        frequency = tuple(record.frequency(self.params, i, a)
                          for i, a in enumerate(self.amplitude))
        # an amplitude so large that the relation overflows reads as 0 or inf
        if not all(math.isfinite(w) and w > 0.0 for w in frequency):
            raise InvalidSpec(f"no finite positive frequency at amplitude "
                              f"{self.amplitude}: {list(frequency)}")
        object.__setattr__(self, "frequency", frequency)
        object.__setattr__(self, "rates",
                           frequency if record.amplitude_dependent else self.params.omega)

    @property
    def n(self) -> int:
        return len(self.amplitude)


def oscillation_period(spec: ExactSolutionSpec) -> np.ndarray:
    """Period of the position signal per coordinate.

    The inverse-square families oscillate in x^2, so their position period is
    half the phase period.
    """
    return spec.record.position_phase / np.array(spec.frequency)


def kinematics(spec: ExactSolutionSpec, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic (x, xdot, xddot) of the closed form at time t; an InvalidSpec
    where an extreme amplitude or time makes it overflow, divide by zero,
    take the cosine of an infinite phase or return a value that is not finite."""
    x, v, a = np.empty((3, spec.n))
    try:
        for i, rate in enumerate(spec.rates):
            x[i], v[i], a[i] = row = spec.record.closed_form(spec, i, t, rate)
            if not all(map(math.isfinite, row)):
                raise ArithmeticError(f"(x, xdot, xddot) = {row} is not finite")
    except (ArithmeticError, ValueError) as err:
        raise InvalidSpec(f"closed form fails at t={t!r}, amplitude {spec.amplitude}: "
                          f"{err}") from err
    return x, v, a


def exact_solution(spec: ExactSolutionSpec, t: float) -> State:
    """State (positions, velocities) of the closed form at time t."""
    x, v, _ = kinematics(spec, t)
    return State(float(t), x, v)


def exact_trajectory(spec: ExactSolutionSpec, t0: float, t1: float, samples: int):
    """A Trajectory holding dense analytic samples of the closed form.

    Lets trajectory consumers (period estimation, the nonlocal map, quadrature)
    run on a closed form exactly as they would on integrator output.
    """
    if samples < 1:
        raise InvalidParameter("samples", f"need at least 1, got {samples!r}")
    if not math.isfinite(t1 - t0):
        raise InvalidParameter("t1", f"the grid from t0={t0!r} to t1={t1!r} is not finite")
    if t1 < t0:
        raise InvalidParameter("t1", f"{t1!r} is before the grid start t0={t0!r}")
    try:
        ts = np.linspace(t0, t1, samples)
    except (ValueError, MemoryError) as err:    # more samples than one array can hold
        raise InvalidParameter("samples", f"too many for one array: {err}") from None
    xs, vs, accs = np.empty((3, samples, spec.n))
    for k, t in enumerate(map(float, ts)):
        xs[k], vs[k], accs[k] = kinematics(spec, t)
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
