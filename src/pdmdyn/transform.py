"""Nonlocal point transformation onto constant-mass reference oscillators.

Per coordinate the bundle is (q_i(x_i), f_i(x_i), tau_i) with

    dq_i/dx_i = f_i sqrt(m_i),   dtau_i/dt = f_i,   qtilde_i = xdot_i sqrt(m_i),

so (dq/dx)^2 = m f^2 always holds.  dq/dx is returned signed: the isotonic
power-law family with a negative exponent has a decreasing coordinate map,
and the squared identity is the invariant, not the sign.  Each family's
q_i and f_i live in its record in ``families``; a NonlocalMap binds them
into one closure per coordinate.  The reference oscillator is the
catalog system the record names (``harmonic`` or ``isotonic``), built with
the family's own parameters, so its potential and gradient are the
catalog's.

The same machinery powers the negative result: for a shared mass multiplier
in two or more dimensions the mapped velocity acquires a term with no
counterpart in the reference equations, and el2_obstruction measures it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (TYPE2, ParameterSet, PdmSystem, State, Trajectory,
                   build_system, potential_gradient)
from .eom import el1_acceleration, el2_acceleration
from .errors import InvalidParameter, NonPositiveScale, UnsupportedFamily
from .families import Family
from .integrate import sample_dense


@dataclass(frozen=True)
class NonlocalMap:
    record: Family          # the family whose q_i, f_i the map uses
    profiles: tuple
    params: ParameterSet

    def __post_init__(self):
        # points[i]: x -> (q_i, dq_i/dx_i, f_i, m_i) from one checked evaluation of m_i
        object.__setattr__(self, "points", tuple(map(self._point, range(len(self.profiles)))))

    def _point(self, i: int):
        q, f, p, mass = self.record.q, self.record.f, self.params, self.profiles[i].eval

        def point(x: float) -> tuple[float, float, float, float]:
            m, m1, _ = mass(x)
            root = math.sqrt(m)
            qi, fi = q(p, i, x, root), f(p, i, x, m1 / (2.0 * m))
            return qi, fi * root, fi, m
        return point


@dataclass
class MappedTrajectory:
    """Per-coordinate reference-frame image of a trajectory."""

    t: np.ndarray          # (N,)
    tau: np.ndarray        # (N, n) rescaled times, one clock per coordinate
    q: np.ndarray          # (N, n)
    qtilde: np.ndarray     # (N, n)


def reference_map(system: PdmSystem) -> tuple[NonlocalMap, PdmSystem]:
    """The transformation bundle and reference oscillator for a catalog family."""
    record = system.potential.record
    if record is None or not record.mapped:
        raise UnsupportedFamily(
            f"no reference map catalogued for {system.potential.family!r}")
    p = system.potential.params
    ref = build_system(record.reference, system.n, p)
    return NonlocalMap(record, system.profiles, p), ref


def f_scale(nmap: NonlocalMap, i: int, x: float) -> float:
    """Time-rescaling factor f_i at x."""
    return nmap.points[i](x)[2]


def q_map(nmap: NonlocalMap, i: int, x: float) -> tuple[float, float]:
    """(q_i, dq_i/dx_i) at x; the derivative is f_i sqrt(m_i), sign included."""
    return nmap.points[i](x)[:2]


# 4-point Gauss-Legendre nodes and weights on [0, 1]: exact to degree 7, the
# degree of DOP853's interpolant
_GL_ROOTS = [math.sqrt(3 / 7 + s * 2 / 7 * math.sqrt(6 / 5)) for s in (1.0, -1.0)]
_GL_NODES = np.array([0.5 - 0.5 * _GL_ROOTS[0], 0.5 - 0.5 * _GL_ROOTS[1],
                      0.5 + 0.5 * _GL_ROOTS[1], 0.5 + 0.5 * _GL_ROOTS[0]])
_GL_WEIGHTS = np.array([18 - math.sqrt(30), 18 + math.sqrt(30),
                        18 + math.sqrt(30), 18 - math.sqrt(30)]) / 72


def coordinate_image(nmap: NonlocalMap, traj: Trajectory, i: int,
                     require_positive: bool = True) -> tuple[np.ndarray, ...]:
    """(tau_i, q_i, m_i) along a trajectory from one pass over coordinate i:
    the map closure runs once at each node and once at each quadrature point.

    tau_i(t) is the cumulative rescaled time, tau_i(t0) = 0.  The integral of
    f_i over each accepted interval is 4-point Gauss-Legendre on a DOP853
    trajectory's 7th-order interpolant, and composite Simpson on any other
    trajectory, with the midpoint from its cubic dense output.
    """
    t = traj.t
    h = np.diff(t)
    if traj.dense is not None:
        inner = (t[:-1, None] + h[:, None] * _GL_NODES).ravel()
    else:
        inner = 0.5 * (t[:-1] + t[1:])
    x_inner, _ = sample_dense(traj, inner)
    point = nmap.points[i]
    q, f_nodes, m = np.empty((3, len(t)))
    for k, xk in enumerate(map(float, traj.x[:, i])):
        q[k], _, f_nodes[k], m[k] = point(xk)
    f_inner = np.array([point(xk)[2] for xk in map(float, x_inner[:, i])])
    if require_positive and (np.any(f_nodes <= 0.0) or np.any(f_inner <= 0.0)):
        raise NonPositiveScale(
            f"f_{i + 1} <= 0 along the trajectory; tau_{i + 1} is not increasing")
    if traj.dense is not None:
        dtau = h * (f_inner.reshape(-1, 4) @ _GL_WEIGHTS)
    else:
        dtau = (h / 6.0) * (f_nodes[:-1] + 4.0 * f_inner + f_nodes[1:])
    return np.concatenate([[0.0], np.cumsum(dtau)]), q, m


def tau_values(nmap: NonlocalMap, traj: Trajectory, i: int,
               require_positive: bool = True) -> np.ndarray:
    """Cumulative rescaled time tau_i(t) along a trajectory, tau_i(t0) = 0."""
    return coordinate_image(nmap, traj, i, require_positive)[0]


def map_to_reference(nmap: NonlocalMap, traj: Trajectory) -> MappedTrajectory:
    """Image (tau_i, q_i, qtilde_i) of a trajectory, one clock per coordinate."""
    images = [coordinate_image(nmap, traj, i) for i in range(traj.x.shape[1])]
    tau, q, m = (np.column_stack(columns) for columns in zip(*images))
    return MappedTrajectory(traj.t.copy(), tau, q, traj.v * np.sqrt(m))


def potential_match_residual(nmap: NonlocalMap, system: PdmSystem,
                             ref: PdmSystem, x: Sequence[float]) -> float:
    """|V_system(x) - V_ref(q(x))|; zero when the map matches the potentials."""
    xs = [*map(float, x)]
    q = [point(xi)[0] for point, xi in zip(nmap.points, xs)]
    return abs(system.potential.energy(xs) - ref.potential.energy(q))


def elg_residual(nmap: NonlocalMap, system: PdmSystem, ref: PdmSystem,
                 state: State) -> np.ndarray:
    """Reference-equation residual of the mapped image of one type1 state.

    d(qtilde)/dtau is evaluated analytically through the chain rule,
    d(qtilde)/dtau = (d(qtilde)/dt) / f with the acceleration taken from the
    equations of motion at the state.
    """
    acc = el1_acceleration(system, state)
    images = [point(float(xi)) for point, xi in zip(nmap.points, state.x)]
    grad_ref = potential_gradient(ref, [image[0] for image in images])
    out = np.empty(system.n)
    for i, (_, _, f, _) in enumerate(images):
        m, m1, _ = system.profiles[i].eval(float(state.x[i]))
        dqt_dt = math.sqrt(m) * (acc[i] + (m1 / (2.0 * m)) * float(state.v[i]) ** 2)
        if f == 0.0:
            # removable 0/0 exactly at the turning point of the constant map
            out[i] = 0.0 if dqt_dt == 0.0 else math.inf
            continue
        out[i] = dqt_dt / f + grad_ref[i]
    return out


def el2_obstruction(system: PdmSystem, state: State) -> float:
    """Magnitude of the shared-multiplier term absent from the reference form.

    The coupled equations of motion carry (1/2)(grad_i m / m) sum_j xd_j^2;
    nothing in the mapped reference equations can absorb it once n >= 2.
    """
    if system.kind != TYPE2:
        raise InvalidParameter("kind", "el2_obstruction needs a type2 system")
    m, gradm = system.coupled_profile.value_and_gradient(state.x)
    v2 = float(np.dot(state.v, state.v))
    vec = 0.5 * (np.asarray(gradm) / m) * v2
    return float(np.linalg.norm(vec))


def el2_mapped_residual(system: PdmSystem, state: State) -> np.ndarray:
    """Free-reference residual of the mapped image of one type2 state.

    Uses the same construction as the per-coordinate map: qtilde_i =
    xdot_i sqrt(m), f_i = 1 + (grad_i m) x_i / (2m), and a force-free
    reference.  At n = 1 this vanishes identically; at n >= 2 the
    obstruction term survives.
    """
    if system.kind != TYPE2:
        raise InvalidParameter("kind", "el2_mapped_residual needs a type2 system")
    m, gradm = system.coupled_profile.value_and_gradient(state.x)
    acc = el2_acceleration(system, state)
    mdot = float(np.dot(np.asarray(gradm), state.v))
    out = np.empty(system.n)
    for i in range(system.n):
        dqt_dt = math.sqrt(m) * (acc[i] + (mdot / (2.0 * m)) * float(state.v[i]))
        f = 1.0 + (gradm[i] / (2.0 * m)) * float(state.x[i])
        out[i] = dqt_dt / f
    return out
