"""The generated energy kernel against the per-term Python formula it replaced.

The oracle is T + V written as the energy was summed before it became one
generated function: each type1 coordinate's mass from its own profile (its
domain check, value and m < 0 check), the running sum 0.0 + (1/2) m_i v_i**2,
a type2 system's (1/2) m |v|^2 with |v|^2 the running sum 0.0 + v_1 v_1 + ..,
then the potential's energies kernel and the non-finite checks.  A float
overflow in a type1 T is the one DomainViolation the kernel owes for it; a
type2 |v|^2 that overflows is inf, so its T is not finite.
"""

import functools
import math
import warnings

import numpy as np
import pytest

from pdmdyn.core import (TYPE2, State, _state, build_system, kinetic_energy,
                         total_energy)
from pdmdyn.errors import DomainViolation, PdmError

SYSTEMS = {
    "ml1+ n=1": ("ml1", 1, {"omega": [1.0], "lambda": 0.5, "sign": "+"}, {}),
    "ml1- n=2": ("ml1", 2, {"omega": [1.0, 2.0], "lambda": 0.5, "sign": "-"}, {}),
    "sw1 n=3": ("sw1", 3, {"omega": [1.0, 1.5, 2.0], "lambda": 0.25, "sign": "+",
                           "kappa": [0.5, 1.0, 1.5]}, {}),
    "powerlaw n=2": ("powerlaw", 2, {"omega": [1.0, 2.0], "upsilon": 0.5, "alpha": 1.5}, {}),
    "morse n=3": ("morse", 3, {"omega": [1.0, 1.5, 2.0], "zeta": [1.0, 0.5, 2.0]}, {}),
    "custom type1 n=2": ("custom", 2, {}, {"mass_exprs": ["1-x^2", "2+sin(x)"],
                                           "potential_exprs": ["x^4", "exp(x)"]}),
    "type2 n=1": ("custom", 1, {}, {"mass_exprs": ["1+x1^2"],
                                    "potential_exprs": ["x^2"], "kind": TYPE2}),
    "type2 n=2": ("custom", 2, {}, {"mass_exprs": ["1+x1^2+x2^2"],
                                    "potential_exprs": ["x^2", "0.5*x^2"], "kind": TYPE2}),
    "type2 n=3": ("custom", 3, {}, {"mass_exprs": ["2+sin(x1*x2)+0.5*x3^2"],
                                    "potential_exprs": ["0.5*x^2"] * 3, "kind": TYPE2}),
    "type2 n=3 signed": ("custom", 3, {}, {"mass_exprs": ["x1-x2+x3^2"],
                                           "potential_exprs": ["1/x", "x", "ln(2+x)"],
                                           "kind": TYPE2}),
    "type2 n=4": ("custom", 4, {}, {"mass_exprs": ["2+sin(x1*x4)+0.5*x2^2+x3^2"],
                                    "potential_exprs": ["x^2", "0.5*x^2", "x^4", "exp(x)"],
                                    "kind": TYPE2}),
}

STATES = 300


def _square(v):
    """|v|^2 summed from 0.0 in coordinate order."""
    total = 0.0
    for vi in v:
        total += vi * vi
    return total


def _kinetic(system, t, x, v):
    try:
        if system.kind == TYPE2:
            total = 0.5 * system.coupled_profile.value(x) * _square(v)
        else:
            total = 0.0
            for profile, xi, vi in zip(system.profiles, x, v):
                total += 0.5 * profile.eval(xi, 0) * vi ** 2
    except OverflowError as err:
        raise DomainViolation(f"float overflow in the kinetic energy at t={t!r}", t=t) from err
    if not math.isfinite(total):
        raise DomainViolation(f"kinetic energy T={total!r} is not finite at t={t!r}", t=t)
    return total


def _total(system, state):
    _, x, v = _state(system, state)
    kinetic = _kinetic(system, state.t, x, v)
    potential = system.potential.energies((x,))[0]
    if not math.isfinite(kinetic + potential):
        raise DomainViolation(f"energy is not finite at t={state.t!r}: T={kinetic!r}, "
                              f"V={potential!r}", t=state.t)
    return kinetic + potential


def _outcome(fn, *args):
    """The value's hex, or the error's type and text."""
    try:
        return float.hex(fn(*args))
    except PdmError as err:
        return type(err).__name__, str(err)


def _draw(rng, n: int, scale: float, special: tuple) -> list[float]:
    """n coordinates: mostly uniform in (-scale, scale), one in eight special."""
    return [float(rng.choice(special)) if rng.random() < 0.125
            else float(rng.uniform(-scale, scale)) for _ in range(n)]


def _states(n: int, seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(STATES):
        x = _draw(rng, n, 2.5, (0.0, -1.0, 1.0, 1e200, -1e200, math.inf, math.nan))
        v = _draw(rng, n, 3.0, (1e160, -1e160, 1e200, 1e154, math.inf, math.nan))
        yield State(float(rng.uniform(-5, 5)), x, v)


@functools.cache
def _outcomes(name: str) -> list[tuple]:
    """Each state's outcome on system name, checked against the oracle with
    warnings as errors; computed once per system for both tests below."""
    family, n, params, custom = SYSTEMS[name]
    system = build_system(family, n, params, **custom)
    out = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for state in _states(n, seed=sum(map(ord, name))):
            for shaped in (state, State(state.t, np.array(state.x), np.array(state.v))):
                want = _outcome(_total, system, shaped)
                got = _outcome(total_energy, system, shaped)
                assert got == want, (name, shaped)
                want = _outcome(lambda s, st: _kinetic(s, *_state(s, st)), system, shaped)
                assert _outcome(kinetic_energy, system, shaped) == want, (name, shaped)
                out.append(got)
    return out


@pytest.mark.parametrize("name", SYSTEMS)
def test_kernel_matches_the_python_formula(name):
    outcomes = _outcomes(name)
    # the draw reaches values and failures alike on every system
    values = sum(isinstance(o, str) for o in outcomes)
    assert 0 < values < len(outcomes)


def test_draws_reach_every_failure():
    """The oracle runs meet each kind of failure somewhere: the mass's domain
    and sign, the potential's domain, pole and overflow, and T's overflow."""
    texts = [o[1] for name in SYSTEMS for o in _outcomes(name)
             if not isinstance(o, str)]
    for needle in ("outside the domain (-1.414", "< 0 at x=", "<= 0 at", "potential singular",
                   "float overflow in the kinetic energy", "kinetic energy T=",
                   "potential energy V=", "of profile"):
        assert any(needle in text for text in texts), needle


def test_type2_overflow_is_typed_under_warnings_as_errors():
    # |v|^2 overflows to inf, which no float product raises or warns about
    system = build_system("custom", 2, mass_exprs=["1+x1^2+x2^2"], kind=TYPE2)
    state = State.of(0.0, [0.1, 0.2], [1e160, 1e160])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for energy in (total_energy, kinetic_energy):
            with pytest.raises(DomainViolation,
                               match=r"^kinetic energy T=inf is not finite at t=0\.0$"):
                energy(system, state)


def test_type2_square_is_the_running_sum():
    # 0.5 * m * (0.0 + v1*v1 + v2*v2 + v3*v3) bit for bit, near-overflow and
    # safe velocities alike
    system = build_system("custom", 3, mass_exprs=["1+x1^2"], kind=TYPE2)
    rng = np.random.default_rng(5)
    for scale in (1.0, 1e150, 1e153):
        for _ in range(200):
            v1, v2, v3 = rng.uniform(-scale, scale, 3).tolist()
            state = State.of(0.0, [0.0, 0.0, 0.0], [v1, v2, v3])
            want = 0.5 * 1.0 * (0.0 + v1 * v1 + v2 * v2 + v3 * v3)
            assert float.hex(kinetic_energy(system, state)) == float.hex(want)
