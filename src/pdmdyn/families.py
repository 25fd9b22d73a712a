"""One record per catalog family: everything the package knows about it.

A record owns four templates, expression text in x and the parameter names:
the family's mass profile m_i(x), its potential V_i(x), and its nonlocal map
(q_i, f_i) onto a reference oscillator, which also reads root = sqrt(m_i)
and half = m_i'/(2 m_i).  It also owns the domain, coefficient singularity
and potential pole that no expression can state, and its closed form with
amplitude checks, frequency relation, position period and energy.  The
parameters a family requires are the names its mass and potential templates
read (q and f read no other); each parameter's shape and range are stated
once, in ``core``, alike for every family.  ``core`` substitutes each
coordinate's parameter values into the templates and compiles them, so a
catalog system evaluates exactly as a ``custom`` one does; ``transform``
compiles the map's q and f, with the mass, into one kernel per coordinate,
and ``exact`` resolves the record once, when a closed form is built, and
calls into it.  Every callable works on one coordinate's floats; printed
relations are in the misprint ledger, not here.  A new family is one new
record plus one FAMILIES entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import DomainViolation, InvalidSpec
from .profiles import REAL_LINE

PUBLISHED_FORM = "published"
AMENDED_FORM = "amended"


def _sign(p) -> float:
    return 1.0 if p.sign == "+" else -1.0


_HALF_LINE = (0.0, math.inf)

# m = 1/(1 +- lam x^2) and the oscillator potential (1/2) w^2 m x^2
_ML = "1/(1+sign*lam*x^2)"
_ML_OSCILLATOR = "0.5*omega^2*x^2/(1+sign*lam*x^2)"


def _ml_domain(p) -> tuple[float, float]:
    """'+' is defined everywhere, '-' inside |x| < 1/sqrt(lam)."""
    if p.sign == "-" and p.lam > 0.0:
        b = 1.0 / math.sqrt(p.lam)
        return -b, b
    return REAL_LINE


def _cosine(spec, i: int, t: float, rate: float) -> tuple[float, float, float]:
    A, phi = spec.amplitude[i], spec.phase[i]
    th = rate * t + phi
    return A * math.cos(th), -A * rate * math.sin(th), -A * rate * rate * math.cos(th)


@dataclass(frozen=True)
class Family:
    """One catalog family; ``p`` is its ParameterSet, ``i`` a coordinate.

    ``mass`` and ``potential`` are expression text in x and the names of
    ParameterSet fields: a vector parameter stands for its entry i, and
    ``sign`` for +1 or -1.  The names they read are the parameters the
    family requires; ``core`` checks every parameter's range.  ``q`` and
    ``f`` are written the same way, also in ``root`` = sqrt(m_i) and
    ``half`` = m_i'/(2 m_i).  Defaults, the common case: the whole real line,
    the map q = x sqrt(m), f = 1 + x m'/(2m) onto the harmonic reference, a
    cosine closed form of period 2 pi / Omega.
    """

    name: str
    mass: str                                   # m_i(x)
    potential: str                              # V_i(x); V is their sum
    #: p -> the open interval (lo, hi) where the profile is defined
    domain: Callable = lambda p: REAL_LINE
    #: p -> the x where m'/m and 1/m diverge, if any
    singularity: Callable = lambda p: None
    pole: float | None = None                   # x where V_i diverges: SingularPoint
    q: str = "x*root"                           # q_i in x, root = sqrt(m_i)
    f: str = "1+half*x"                         # f_i in x, half = m_i'/(2 m_i)
    mapped: bool = True                         # False for the references themselves
    reference: str = "harmonic"
    #: (p, amplitude) -> None; raises InvalidSpec where no closed form exists
    check: Callable = lambda p, amplitude: None
    #: (p, i, A_i) -> Omega_i in IEEE arithmetic (an extreme A_i may give 0,
    #: inf or nan); raises InvalidSpec where no real frequency exists
    frequency: Callable = lambda p, i, A: p.omega[i]
    #: closed form written in that frequency (else in omega_i)
    amplitude_dependent: bool = False
    #: (spec, i, t, rate) -> (x_i, xdot_i, xddot_i)
    closed_form: Callable = _cosine
    #: (p, A_i, i) -> energy of coordinate i; None: no printed energy formula
    coordinate_energy: Callable | None = lambda p, A, i: 0.5 * p.omega[i] * p.omega[i] * A * A
    position_phase: float = 2.0 * math.pi       # phase over one period of x(t)


HARMONIC = Family("harmonic", "1", "0.5*omega^2*x^2", mapped=False)


# --- ml1 and ml2: m = 1/(1 +- lam x^2) ------------------------------------------
def ml2_reduction_check(params) -> bool:
    """True when the constant-map family collapses onto the oscillator family.

    With the deformation strength kept non-negative, the collapse condition
    lands on the '-' branch with lam = 1/eta_i^2 for every coordinate.
    """
    if params.lam is None or params.sign != "-" or not params.eta_const:
        return False
    return all(e != 0.0 and abs(params.lam - 1.0 / (e * e)) <= 1e-12 * max(1.0, params.lam)
               for e in params.eta_const)


def _ml1_check(p, amplitude):
    if p.sign == "-" and any(p.lam * a * a >= 1.0 for a in amplitude):
        raise InvalidSpec("'-' branch needs lam A^2 < 1 for a bounded orbit")


def _ml1_frequency(p, i, A):
    # the spec checks sign and lam are set, and _ml1_check that 1 +- lam A^2 > 0
    return p.omega[i] / math.sqrt(1.0 + _sign(p) * p.lam * A * A)


ML1 = Family("ml1", _ML, _ML_OSCILLATOR, domain=_ml_domain, check=_ml1_check,
             frequency=_ml1_frequency, amplitude_dependent=True,
             coordinate_energy=lambda p, A, i: (0.5 * p.omega[i] * p.omega[i] * A * A
                                                / (1.0 + _sign(p) * p.lam * A * A)))


def _ml2_check(p, amplitude):
    _ml1_check(p, amplitude)
    if not ml2_reduction_check(p):
        raise InvalidSpec("the constant-map family has a closed form only in "
                          "the reduction case lam = 1/eta^2 on the '-' branch")


# the constant map q = eta sqrt(m) with V = (1/2) w^2 eta^2 m; same orbit as
# ml1 in the reduction case, but the potential differs by the constant
# (1/2) w^2 eta^2, so the energy is read off at the turning point directly
ML2 = replace(ML1, name="ml2", potential="0.5*omega^2*eta_const^2/(1+sign*lam*x^2)",
              q="eta_const*root", f="eta_const*half",
              check=_ml2_check,
              coordinate_energy=lambda p, A, i: (0.5 * p.omega[i] * p.omega[i]
                                                 * p.eta_const[i] ** 2
                                                 / (1.0 + _sign(p) * p.lam * A * A)))


# --- powerlaw: m = alpha^2 x^(2 upsilon) ----------------------------------------
def _powerlaw_check(p, amplitude):
    if any(a <= 0.0 for a in amplitude):
        raise InvalidSpec("power-law amplitude must be positive")


def _powerlaw_form(spec, i, t, w):
    A, phi, u = spec.amplitude[i], spec.phase[i], spec.params.upsilon
    Om = (1.0 + u) * w
    pw = 1.0 / (1.0 + u)
    c = math.cos(Om * t + phi)
    if c <= 0.0:
        raise DomainViolation(
            "power-law closed form leaves its branch (cos <= 0)", t=t, coordinate=i)
    s = math.sin(Om * t + phi)
    return (A * c ** pw, -A * pw * Om * c ** (pw - 1.0) * s,
            A * pw * Om * Om * ((pw - 1.0) * c ** (pw - 2.0) * s * s - c ** pw))


def _powerlaw_energy(p, A, i):
    w = p.omega[i]
    b = A ** (1.0 + p.upsilon)   # validated constant; print says A^(1/(1+upsilon))
    return 0.5 * p.alpha ** 2 * w * w * b * b


# x > 0 keeps x^(2 upsilon) single-valued for non-integer exponents
POWERLAW = Family("powerlaw", "alpha^2*x^(2*upsilon)",
                  "0.5*omega^2*alpha^2*x^(2*upsilon+2)",
                  domain=lambda p: _HALF_LINE,
                  singularity=lambda p: 0.0 if p.upsilon != 0.0 else None,
                  check=_powerlaw_check,
                  frequency=lambda p, i, A: (1.0 + p.upsilon) * p.omega[i],
                  closed_form=_powerlaw_form, coordinate_energy=_powerlaw_energy)


# --- morse: m = exp(2 zeta x), V = (1/2) w^2 m (1 - e^(-zeta x))^2 ---------------
def _morse_check(p, amplitude):
    if any(abs(b) >= 1.0 for b in amplitude):
        raise InvalidSpec("bounded-exponential form needs |B| < 1")


def _morse_form(spec, i, t, w):
    A, phi, z = spec.amplitude[i], spec.phase[i], spec.params.zeta[i]
    th = z * w * t + phi
    u = 1.0 + A * math.cos(th)
    return (math.log(u) / z, -A * w * math.sin(th) / u,
            -A * z * w * w * (math.cos(th) + A) / (u * u))


# the bounded-exponential map; f reduces to the constant zeta for this mass
# V written with one exp: m (1 - e^(-zeta x))^2 = (e^(zeta x) - 1)^2
MORSE = Family("morse", "exp(2*zeta*x)", "0.5*omega^2*(exp(zeta*x)-1)^2",
               q="root*(1-exp(-zeta*x))", f="half+(zeta-half)*exp(-zeta*x)",
               check=_morse_check,
               frequency=lambda p, i, A: p.zeta[i] * p.omega[i],
               closed_form=_morse_form,
               coordinate_energy=lambda p, A, i: 0.5 * p.omega[i] ** 2 * A ** 2)


# --- inverse-square families: V = (1/2)(w^2 m x^2 + kappa/(m x^2)) -------------
def _inverse_square_check(p, amplitude):
    if any(c == 0.0 for c in amplitude):
        raise InvalidSpec("inverse-square form needs C != 0")


def _sqrt_shape(theta_dot: float, num_s: float, num_c: float, denom: float,
                rho: float, t: float, phase: float) -> tuple[float, float, float]:
    """x = u^rho with u = (num_s sin^2 + num_c cos^2)/denom and theta = theta_dot t + phase."""
    th = theta_dot * t + phase
    s = math.sin(th)
    u = (num_c + (num_s - num_c) * (s * s)) / denom
    if not math.isfinite(u):    # u^rho with rho < 0 would hide it
        raise OverflowError(f"u = {u!r} is not finite")
    ud = (num_s - num_c) * math.sin(2.0 * th) * theta_dot / denom
    udd = (num_s - num_c) * 2.0 * math.cos(2.0 * th) * theta_dot ** 2 / denom
    x = u ** rho
    xd = rho * u ** (rho - 1.0) * ud
    xdd = rho * (rho - 1.0) * u ** (rho - 2.0) * ud * ud + rho * u ** (rho - 1.0) * udd
    return x, xd, xdd


def _isotonic_form(spec, i, t, rate):
    A, k = spec.amplitude[i], spec.params.kappa[i]
    return _sqrt_shape(rate, rate * rate * A ** 4, k, rate * rate * A * A, 0.5,
                       t, spec.phase[i])


# x^2 oscillates, so the position period is half the phase period; sw1 and
# sw2 print no energy, so exact_energy evaluates the definition of record
_INVERSE_SQUARE = Family("", "1", "0.5*(omega^2*x^2+kappa/x^2)",
                         pole=0.0, reference="isotonic",
                         check=_inverse_square_check, closed_form=_isotonic_form,
                         coordinate_energy=None, position_phase=math.pi)


ISOTONIC = replace(_INVERSE_SQUARE, name="isotonic", mapped=False,
                   coordinate_energy=lambda p, C, i: 0.5 * (p.omega[i] * p.omega[i] * C * C
                                                            + p.kappa[i] / (C * C)))


def _sw1_frequency(p, i, A):
    s = _sign(p)
    c2 = A * A
    denom = 1.0 + s * p.lam * c2
    if denom <= 0.0:
        raise InvalidSpec("no real oscillation frequency for these constants")
    # C^2 underflows to 0 for |C| < 1e-162; shift * inf is then IEEE's shift / +0
    shift = s * p.lam * p.kappa[i]
    om2 = p.omega[i] * p.omega[i] / denom - (shift / c2 if c2 else shift * math.inf)
    if om2 <= 0.0:
        raise InvalidSpec("no real oscillation frequency for these constants")
    return math.sqrt(om2)


SW1 = replace(_INVERSE_SQUARE, name="sw1",
              mass=_ML, potential="0.5*(omega^2*x^2/(1+sign*lam*x^2)"
                                  "+kappa*(1+sign*lam*x^2)/x^2)",
              domain=_ml_domain, frequency=_sw1_frequency, amplitude_dependent=True)


def _sw2_form(spec, i, t, w):
    p, A = spec.params, spec.amplitude[i]
    eta, k = p.eta_exp, p.kappa[i]
    keff = k if spec.variant == AMENDED_FORM else k / (eta * eta)
    return _sqrt_shape(eta * w, w * w * A ** 4, keff, (p.beta * w * A) ** 2,
                       1.0 / (2.0 * eta), t, spec.phase[i])


# m = beta^2 x^(2(eta-1)); see the misprint ledger for the closed form
SW2 = replace(_INVERSE_SQUARE, name="sw2", mass="beta^2*x^(2*eta_exp-2)",
              potential="0.5*(omega^2*beta^2*x^(2*eta_exp)+kappa/(beta^2*x^(2*eta_exp)))",
              domain=lambda p: _HALF_LINE, singularity=lambda p: 0.0,
              frequency=lambda p, i, A: abs(p.eta_exp) * p.omega[i],
              closed_form=_sw2_form)


#: every catalog family by name; the only family registry
FAMILIES: dict[str, Family] = {f.name: f for f in (
    ML1, POWERLAW, ML2, MORSE, SW1, SW2, HARMONIC, ISOTONIC)}
