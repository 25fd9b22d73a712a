"""Nonlocal point transformation onto constant-mass reference oscillators.

Per coordinate the bundle is (q_i(x_i), f_i(x_i), tau_i) with

    dq_i/dx_i = f_i sqrt(m_i),   dtau_i/dt = f_i,   qtilde_i = xdot_i sqrt(m_i),

so (dq/dx)^2 = m f^2 always holds.  dq/dx is returned signed: the isotonic
power-law family with a negative exponent has a decreasing coordinate map,
and the squared identity is the invariant, not the sign.  Each family's
q_i and f_i are expression text in its record in ``families``, in x,
root = sqrt(m_i) and half = m_i'/(2 m_i); a NonlocalMap substitutes each
coordinate's parameters into them and runs them with the coordinate's mass
as one compiled batch kernel (``exprparse.compile_map``) over a list of
points.  It returns the columns its caller names from (q_i, dq_i/dx_i, f_i,
m_i), all four by default, and runs only the lines they need; at the first
point outside the domain or where m_i < 0 the profile raises what it owes
there.  Every map evaluation runs on these batches, a single point as a
batch of one, and each caller names only the columns it reads.  Where m_i
underflows to 0, q alone (``potential_match_residual``'s column) is q_i,
while any set with f_i raises ZeroDivisionError in m_i'/(2 m_i).  The
reference oscillator is the catalog system the record names (``harmonic``
or ``isotonic``), built with the family's own parameters, so its potential
and gradient are the catalog's.

The same machinery powers the negative result: for a shared mass multiplier
in two or more dimensions the mapped velocity acquires a term with no
counterpart in the reference equations, and el2_obstruction measures it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (TYPE2, ParameterSet, PdmSystem, State, Trajectory, _number, _state,
                   _substitute, build_system, potential_gradient)
from .eom import el1_acceleration, el2_acceleration
from .errors import InvalidParameter, NonPositiveScale, UnsupportedFamily
from .exprparse import MAP_COLUMNS, MAP_NAMES, compile_map, parse_cached
from .families import Family
from .integrate import sample_dense


@dataclass(frozen=True)
class NonlocalMap:
    record: Family          # the family whose q_i, f_i the map uses
    profiles: tuple
    params: ParameterSet

    def __post_init__(self):
        # batches[i]: a list of x (and a tuple of MAP_COLUMNS) -> one list per
        # column there, by default (q_i, dq_i/dx_i, f_i, m_i)
        object.__setattr__(self, "batches", tuple(map(self._batch, range(len(self.profiles)))))

    def _batch(self, i: int):
        profile = self.profiles[i]
        q, f = (parse_cached(_substitute(template, self.params, i), MAP_NAMES)
                for template in (self.record.q, self.record.f))
        kernels = {}

        def batch(xs: list[float], columns: tuple[str, ...] = MAP_COLUMNS) -> tuple[list, ...]:
            kernel = kernels.get(columns)
            if kernel is None:  # compiled on the first call with these columns
                kernel = kernels[columns] = compile_map(profile.expr, q, f, columns)
            return kernel(xs, *profile.domain, profile._fail)
        return batch


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
    if record is None or record.reference == record.name:   # a reference itself
        raise UnsupportedFamily(
            f"no reference map catalogued for {system.potential.family!r}")
    p = system.potential.params
    ref = build_system(record.reference, system.n, p)
    return NonlocalMap(record, system.profiles, p), ref


def _coordinate_batch(nmap: NonlocalMap, i: int):
    """Coordinate i's batch map; an InvalidParameter unless i is an integer
    0 <= i < n."""
    n = len(nmap.batches)
    try:
        k = operator.index(i)
    except TypeError:
        k = -1
    if not 0 <= k < n:
        raise InvalidParameter("i", f"expected a coordinate index 0 <= i < {n}, got {i!r}")
    return nmap.batches[k]


def _point_map(nmap: NonlocalMap, i: int, x: float) -> tuple[list[float], ...]:
    """Coordinate i's four columns at the one point x; an InvalidParameter
    unless x is a number."""
    batch = _coordinate_batch(nmap, i)
    return batch([_number(x, "x")])


def f_scale(nmap: NonlocalMap, i: int, x: float) -> float:
    """Time-rescaling factor f_i at x."""
    return _point_map(nmap, i, x)[2][0]


def q_map(nmap: NonlocalMap, i: int, x: float) -> tuple[float, float]:
    """(q_i, dq_i/dx_i) at x; the derivative is f_i sqrt(m_i), sign included."""
    (q,), (dq,), _, _ = _point_map(nmap, i, x)
    return q, dq


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
    the batch map runs once over the nodes and once over the quadrature
    points, so each point is mapped once.

    tau_i(t) is the cumulative rescaled time, tau_i(t0) = 0.  The integral of
    f_i over each accepted interval is 4-point Gauss-Legendre on a DOP853
    trajectory's 7th-order interpolant, and composite Simpson on any other
    trajectory, with the midpoint from its cubic dense output.
    """
    batch = _coordinate_batch(nmap, i)
    t = traj.t
    h = np.diff(t)
    if traj.dense is not None:
        inner = (t[:-1, None] + h[:, None] * _GL_NODES).ravel()
    else:
        inner = 0.5 * (t[:-1] + t[1:])
    x_inner, _ = sample_dense(traj, inner)
    q, f_nodes, m = map(np.array, batch(traj.x[:, i].tolist(), ("q", "f", "m")))
    f_inner = np.array(batch(x_inner[:, i].tolist(), ("f",))[0])
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


def potential_match_residual(nmap: NonlocalMap, system: PdmSystem, ref: PdmSystem,
                             points: Sequence[Sequence[float]]) -> np.ndarray:
    """|V_system(x) - V_ref(q(x))| at each of N points x, an (N, n) array,
    as one array in order; zero where the map matches the potentials.

    The map and both energies run as batches over all points, in this
    order: the map coordinate by coordinate, then V, then V_ref.  The first
    batch that fails raises at its own first failing point.  The map runs
    its q column alone, so where m_i underflows to 0 it gives q_i there and
    raises nothing the full map's m_i'/(2 m_i) would.  An InvalidParameter
    unless points is an (N, n) array of numbers.
    """
    try:
        xs = np.asarray(points)
        # numpy would read a None entry as nan
        if xs.dtype == object and any(x is None for x in xs.flat):
            raise TypeError("an entry is None")
        xs = xs.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as err:
        raise InvalidParameter("points", f"expected an (N, {system.n}) array of numbers: "
                                         f"{err}") from None
    if xs.ndim != 2 or xs.shape[1] != system.n:
        raise InvalidParameter("points", f"expected an (N, {system.n}) array, "
                                         f"got shape {xs.shape}")
    columns = xs.T.tolist()
    qs = [batch(column, ("q",))[0] for batch, column in zip(nmap.batches, columns)]
    v = np.array(system.potential.energies(zip(*columns)))
    v_ref = np.array(ref.potential.energies(zip(*qs)))
    with np.errstate(over="ignore"):    # a difference past the float range is inf, as in floats
        return np.abs(v - v_ref)


def elg_residual(nmap: NonlocalMap, system: PdmSystem, ref: PdmSystem,
                 state: State) -> np.ndarray:
    """Reference-equation residual of the mapped image of one type1 state.

    d(qtilde)/dtau is evaluated analytically through the chain rule,
    d(qtilde)/dtau = (d(qtilde)/dt) / f with the acceleration taken from the
    equations of motion at the state.
    """
    acc = el1_acceleration(system, state)
    images = [batch([float(xi)], ("q", "f")) for batch, xi in zip(nmap.batches, state.x)]
    grad_ref = potential_gradient(ref, [q for (q,), _ in images])
    out = np.empty(system.n)
    for i, (_, (f,)) in enumerate(images):
        m, m1 = system.profiles[i].eval(float(state.x[i]), 1)
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
    _, _, v = _state(system, state)   # an InvalidParameter unless x and v hold n
    m, gradm = system.coupled_profile.value_and_gradient(state.x)
    v2 = 0.0    # |v|^2 as the generated kernels sum it
    for vi in v:
        v2 += vi * vi
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
    _, x, v = _state(system, state)   # an InvalidParameter unless x and v hold n
    m, gradm = system.coupled_profile.value_and_gradient(state.x)
    acc = el2_acceleration(system, state)
    mdot = 0.0    # as the generated right-hand side sums it
    for g, vi in zip(gradm, v):
        mdot += g * vi
    out = np.empty(system.n)
    for i in range(system.n):
        dqt_dt = math.sqrt(m) * (float(acc[i]) + (mdot / (2.0 * m)) * v[i])
        f = 1.0 + (gradm[i] / (2.0 * m)) * x[i]
        if f == 0.0:
            # as in elg_residual: a removable 0/0, else an unbounded residual
            out[i] = 0.0 if dqt_dt == 0.0 else math.inf
            continue
        out[i] = dqt_dt / f
    return out
