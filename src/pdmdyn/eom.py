"""Right-hand sides of the two equation families and a residual evaluator.

One generic implementation covers every per-coordinate-profile system:

    xdd_i = -(m_i'/2m_i) xd_i^2 - (1/m_i) dV/dx_i

The constant-mass reference oscillators are the catalog ``harmonic`` and
``isotonic`` systems, so this form is their equation of motion too.
The per-family printed forms in the literature are used as cross-check
oracles in the tests, never as separate code paths (several of them carry
typos that the generic form adjudicates).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .core import (TYPE1, TYPE2, PdmSystem, State, potential_gradient)
from .errors import InvalidParameter, SingularCoefficient


def _check_coefficients(system: PdmSystem, x: np.ndarray) -> None:
    for i in range(system.n):
        s = system.profiles[i].coefficient_singularity
        if s is not None and float(x[i]) == s:
            raise SingularCoefficient(
                f"equation-of-motion coefficient diverges at x_{i + 1} = {s}", i)


def el1_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the per-coordinate-profile system at a state."""
    if system.kind != TYPE1:
        raise InvalidParameter("kind", "el1_acceleration needs a type1 system")
    _check_coefficients(system, state.x)
    grad = potential_gradient(system, state.x)
    out = np.empty(system.n)
    for i in range(system.n):
        m, m1, _ = system.profiles[i].eval(float(state.x[i]))
        vi = float(state.v[i])
        out[i] = -(m1 / (2.0 * m)) * vi * vi - grad[i] / m
    return out


def el2_acceleration(system: PdmSystem, state: State) -> np.ndarray:
    """Accelerations of the shared-multiplier system at a state."""
    if system.kind != TYPE2:
        raise InvalidParameter("kind", "el2_acceleration needs a type2 system")
    m, gradm = system.coupled_profile.value_and_gradient(state.x)
    gradm = np.asarray(gradm)
    v = state.v
    mdot = float(np.dot(gradm, v))
    v2 = float(np.dot(v, v))
    gradV = potential_gradient(system, state.x)
    return -(mdot / m) * v + 0.5 * (gradm / m) * v2 - gradV / m


SolutionFn = Callable[[float], tuple]


def _kinematics(solution: SolutionFn, t: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    out = solution(t)
    if len(out) == 3 and out[2] is not None:
        x, v, a = out
        return np.asarray(x, float), np.asarray(v, float), np.asarray(a, float)
    x, v = out[0], out[1]
    # no analytic acceleration: 4th-order central difference of x(t)
    h = 1e-4 * max(1.0, abs(t))
    xs = [np.asarray(solution(t + k * h)[0], float) for k in (-2, -1, 0, 1, 2)]
    a = (-xs[4] + 16.0 * xs[3] - 30.0 * xs[2] + 16.0 * xs[1] - xs[0]) / (12.0 * h * h)
    return np.asarray(x, float), np.asarray(v, float), a


def el1_residual(system: PdmSystem, solution: SolutionFn, t: float) -> np.ndarray:
    """Residual of a candidate solution against the type1 equations of motion.

    ``solution(t)`` returns (x, v) or (x, v, a); without an analytic
    acceleration a 4th-order central difference with step 1e-4*max(1,|t|)
    is used.  Zero residual certifies the solution independently of any
    printed formula.
    """
    x, v, a = _kinematics(solution, t)
    _check_coefficients(system, x)
    grad = potential_gradient(system, x)
    r = np.empty(system.n)
    for i in range(system.n):
        m, m1, _ = system.profiles[i].eval(float(x[i]))
        r[i] = a[i] + (m1 / (2.0 * m)) * v[i] ** 2 + grad[i] / m
    return r
