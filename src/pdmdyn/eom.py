"""Right-hand sides of the two equation families and a residual evaluator.

One generic implementation covers every per-coordinate-profile system:

    xdd_i = -(m_i'/2m_i) xd_i^2 - (1/m_i) dV/dx_i

The constant-mass reference oscillators are the catalog ``harmonic`` and
``isotonic`` systems, so this form is their equation of motion too.
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

from .core import TYPE1, TYPE2, PdmSystem, State
from .errors import InvalidParameter, SingularCoefficient


def el1_rhs(system: PdmSystem) -> Callable:
    """rhs(t, x, v) of a type1 system: lists of n floats in, n floats out."""
    if system.kind != TYPE1:
        raise InvalidParameter("kind", "el1_rhs needs a type1 system")
    pot = system.potential
    (lo, hi), pole = pot.domain, pot.pole
    coords = tuple((i, p.coefficient_singularity, term, p._dual, p.eval)
                   for i, (p, term) in enumerate(zip(system.profiles, pot.compiled)))

    def rhs(t, x, v):
        out = []
        for (i, singular, term, mass, profile), xi, vi in zip(coords, x, v):
            if xi == singular:
                raise SingularCoefficient(f"m'/m and 1/m diverge at x_{i + 1} = {xi!r}", i)
            if not lo < xi < hi or xi == pole:  # the profiles share this domain
                pot.energy(x)  # raises the coordinate's error
            dv = term(xi, 1.0)[1]
            m, m1, _ = mass(xi, 1.0)
            if m < 0.0:
                profile(xi)  # raises the negative-mass DomainViolation
            out.append(-(m1 / (2.0 * m)) * vi * vi - dv / m)
        return out
    return rhs


def el2_rhs(system: PdmSystem) -> Callable:
    """rhs(t, x, v) of a type2 system, as el1_rhs; m <= 0 is a DomainViolation."""
    if system.kind != TYPE2:
        raise InvalidParameter("kind", "el2_rhs needs a type2 system")
    pot = system.potential
    (lo, hi), pole = pot.domain, pot.pole

    def rhs(t, x, v):
        m, gradm = system.coupled_profile.value_and_gradient(x)
        mdot = v2 = 0.0
        for g, vi in zip(gradm, v):
            mdot += g * vi
            v2 += vi * vi
        out = []
        for (i, term), xi, vi, g in zip(enumerate(pot.compiled), x, v, gradm):
            if not lo < xi < hi or xi == pole:
                pot.energy(x)  # raises the coordinate's error
            out.append(-(mdot / m) * vi + 0.5 * (g / m) * v2 - term(xi, 1.0)[1] / m)
        return out
    return rhs


def el1_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the per-coordinate-profile system at a state."""
    return np.array(el1_rhs(system)(state.t, [*map(float, state.x)], [*map(float, state.v)]))


def el2_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the shared-multiplier system at a state."""
    return np.array(el2_rhs(system)(state.t, [*map(float, state.x)], [*map(float, state.v)]))


def el1_residual(system: PdmSystem, solution: Callable[[float], tuple],
                 t: float) -> np.ndarray:
    """Residual of a candidate solution against the type1 equations of motion.

    ``solution(t)`` returns the analytic (x, v, a).  Zero residual certifies
    the solution independently of any printed formula.
    """
    x, v, a = (np.asarray(c, float) for c in solution(t))
    return a - el1_rhs(system)(t, x.tolist(), v.tolist())
