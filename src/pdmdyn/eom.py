"""Right-hand sides of the two equation families and a residual evaluator.

One generic implementation covers every per-coordinate-profile system:

    xdd_i = -(m_i'/2m_i) xd_i^2 - (1/m_i) dV/dx_i

It is one generated function per system's masses and potentials
(``exprparse.compile_rhs``), with no loop over the coordinates; this module
binds it to the errors its failed checks owe.  The constant-mass reference
oscillators are the catalog ``harmonic`` and ``isotonic`` systems, so this
form is their equation of motion too.  A shared-multiplier (type2) system,

    xdd_i = -(mdot/m) xd_i + (1/2)(d_i m/m) sum_j xd_j^2 - (1/m) dV/dx_i,

is one generated function per shared mass and potentials
(``exprparse.compile_rhs2``), bound here in the same way.
The per-family printed forms in the literature are used as cross-check
oracles in the tests, never as separate code paths (several of them carry
typos that the generic form adjudicates).

el1_residual checks a candidate solution t -> (x, v, a) whose acceleration
is analytic, as every closed form in ``exact`` supplies it; nothing here is
finite-differenced.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import TYPE1, TYPE2, PdmSystem, State, _coordinates, _number, _state
from .errors import InvalidParameter, SingularCoefficient
from .exprparse import compile_rhs, compile_rhs2


def el1_rhs(system: PdmSystem) -> Callable:
    """rhs(t, x, v) of a type1 system: lists of n floats in, n floats out.

    The generated kernel of the system's masses and potentials
    (``exprparse.compile_rhs``, compiled by the first call for them), bound
    to the error it owes at each failed check.
    """
    if system.kind != TYPE1:
        raise InvalidParameter("kind", "el1_rhs needs a type1 system")
    pot, profiles = system.potential, system.profiles

    def fail(i, x, m=None):
        """Raise what coordinate i's failed check owes at x: given the mass
        m there, m < 0; else the singular coefficient, the domain or the pole."""
        profile, xi = profiles[i], x[i]
        if m is not None:
            profile._fail(xi, m)
        if xi == profile.coefficient_singularity:
            raise SingularCoefficient(f"m'/m and 1/m diverge at x_{i + 1} = {xi!r}", i)
        pot._fail(i, x)  # the profiles share the potential's domain

    singularities = tuple(p.coefficient_singularity for p in profiles)
    return compile_rhs(tuple(p.expr for p in profiles), pot.exprs, singularities,
                       pot.domain, pot.pole)(fail)


def el2_rhs(system: PdmSystem) -> Callable:
    """rhs(t, x, v) of a type2 system, as el1_rhs: the generated kernel of
    the system's shared mass and potentials (``exprparse.compile_rhs2``,
    compiled by the first call for them), bound to the error it owes at each
    failed check.  m <= 0 is the mass's DomainViolation.
    """
    if system.kind != TYPE2:
        raise InvalidParameter("kind", "el2_rhs needs a type2 system")
    pot, profile = system.potential, system.coupled_profile

    def fail(i, x, m=None):
        """Raise what the failed check owes at x: the mass m <= 0 (i None),
        else coordinate i's domain or pole."""
        if i is None:
            profile._positive(m, x)
        pot._fail(i, x)

    return compile_rhs2(profile.expr, profile.names, pot.exprs, pot.domain, pot.pole)(fail)


def _rhs(system: PdmSystem, build: Callable) -> Callable:
    """build(system), built on the first call and kept on the system."""
    kept = vars(system)
    return kept.get(build.__name__) or kept.setdefault(build.__name__, build(system))


def el1_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the per-coordinate-profile system at a state; an
    InvalidParameter unless x and v hold n coordinates each."""
    return np.array(_rhs(system, el1_rhs)(*_state(system, state)))


def el2_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the shared-multiplier system at a state; an
    InvalidParameter unless x and v hold n coordinates each."""
    rhs = _rhs(system, el2_rhs)
    return np.array(rhs(*_state(system, state)))


def el1_residual(system: PdmSystem, solution: Callable[[float], tuple],
                 t: float) -> np.ndarray:
    """Residual of a candidate solution against the type1 equations of motion.

    ``solution(t)`` returns the analytic (x, v, a).  Zero residual certifies
    the solution independently of any printed formula.  An InvalidParameter
    unless t is a real number and x, v and a hold n coordinates each.
    """
    t = _number(t, "t")
    x, v, a = solution(t)
    x, v = _coordinates(system, x, "x"), _coordinates(system, v, "v")
    return np.array(_coordinates(system, a, "a")) - _rhs(system, el1_rhs)(t, x, v)
