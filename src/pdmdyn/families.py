"""One record per catalog family: everything the package knows about it.

A record owns five templates, expression text in the parameter names: the
family's mass profile m_i(x), its potential V_i(x) and its nonlocal map
(q_i, f_i) onto a reference oscillator, in x (q and f also in root =
sqrt(m_i) and half = m_i'/(2 m_i)), and its closed form x_i(t), in t, A,
phase and rate = Omega_i, coordinate i's frequency.  It also owns what no
expression can state: the domain, coefficient singularity and potential
pole, whether the closed form is real only on its branch cos(rate t +
phase) > 0, the amplitude checks, frequency relation, position period and
energy, and the constant of the reference orbit each coordinate maps onto.
The parameters a family requires are the names its mass and potential
templates read (the others read no other); each parameter's shape and
range are stated once, in ``core``, alike for every family.  ``core`` substitutes each coordinate's parameter values into the
templates and compiles them, so a catalog system evaluates exactly as a
``custom`` one does; ``transform`` compiles the map's q and f, with the
mass, into one kernel per coordinate, and ``exact`` compiles each
coordinate's closed form in t, so its velocity and acceleration come from
the same dual numbers.  Every callable works on one coordinate's floats;
printed relations are in the misprint ledger, not here.  A new family is
one new record plus one FAMILIES entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

from .errors import InvalidSpec
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


@dataclass(frozen=True)
class Family:
    """One catalog family; ``p`` is its ParameterSet, ``i`` a coordinate.

    ``mass`` and ``potential`` are expression text in x and the names of
    ParameterSet fields: a vector parameter stands for its entry i, and
    ``sign`` for +1 or -1.  The names they read are the parameters the
    family requires; ``core`` checks every parameter's range.  ``q`` and
    ``f`` are written the same way, also in ``root`` = sqrt(m_i) and
    ``half`` = m_i'/(2 m_i); ``closed_form`` in ``t``, ``A`` = A_i,
    ``phase`` = phase_i and ``rate`` = Omega_i, coordinate i's frequency (a
    template that means omega_i names ``omega``).  Defaults, the common
    case: the whole real line, the map q = x sqrt(m), f = 1 + x m'/(2m)
    onto the harmonic reference, a cosine closed form of period 2 pi / Omega
    whose reference orbit has amplitude A.
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
    reference: str = "harmonic"                 # a record that is its own is not mapped
    #: (p, amplitude) -> None; raises InvalidSpec where no closed form exists
    check: Callable = lambda p, amplitude: None
    #: (p, i, A_i) -> Omega_i in IEEE arithmetic (an extreme A_i may give 0,
    #: inf or nan); raises InvalidSpec where no real frequency exists
    frequency: Callable = lambda p, i, A: p.omega[i]
    closed_form: str = "A*cos(rate*t+phase)"   # x_i(t)
    amended_form: str | None = None             # the amended variant's, where it differs
    branch: bool = False                        # real only where cos(rate*t+phase) > 0
    #: (p, i, A_i) -> the constant of the reference orbit coordinate i maps onto
    image: Callable = lambda p, i, A: A
    #: (p, A_i, i) -> energy of coordinate i; None: no printed energy formula
    coordinate_energy: Callable | None = lambda p, A, i: 0.5 * p.omega[i] * p.omega[i] * A * A
    position_phase: float = 2.0 * math.pi       # phase over one period of x(t)


HARMONIC = Family("harmonic", "1", "0.5*omega^2*x^2")


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
             frequency=_ml1_frequency,
             image=lambda p, i, A: A / math.sqrt(1.0 + _sign(p) * p.lam * A * A),
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
              image=lambda p, i, A: p.eta_const[i] / math.sqrt(1.0 + _sign(p) * p.lam * A * A),
              coordinate_energy=lambda p, A, i: (0.5 * p.omega[i] * p.omega[i]
                                                 * p.eta_const[i] ** 2
                                                 / (1.0 + _sign(p) * p.lam * A * A)))


# --- powerlaw: m = alpha^2 x^(2 upsilon) ----------------------------------------
def _powerlaw_check(p, amplitude):
    if any(a <= 0.0 for a in amplitude):
        raise InvalidSpec("power-law amplitude must be positive")


def _powerlaw_energy(p, A, i):
    w = p.omega[i]
    b = A ** (1.0 + p.upsilon)   # validated constant; print says A^(1/(1+upsilon))
    return 0.5 * p.alpha ** 2 * w * w * b * b


# x > 0 keeps x^(2 upsilon) single-valued for non-integer exponents; the
# reference orbit's amplitude is Q = alpha A^(1+upsilon)
POWERLAW = Family("powerlaw", "alpha^2*x^(2*upsilon)",
                  "0.5*omega^2*alpha^2*x^(2*upsilon+2)",
                  domain=lambda p: _HALF_LINE,
                  singularity=lambda p: 0.0 if p.upsilon != 0.0 else None,
                  check=_powerlaw_check,
                  frequency=lambda p, i, A: (1.0 + p.upsilon) * p.omega[i],
                  closed_form="A*cos(rate*t+phase)^(1/(1+upsilon))",
                  branch=True,   # where 1/(1+upsilon) is an integer its power raises nothing
                  image=lambda p, i, A: p.alpha * A ** (1.0 + p.upsilon),
                  coordinate_energy=_powerlaw_energy)


# --- morse: m = exp(2 zeta x), V = (1/2) w^2 m (1 - e^(-zeta x))^2 ---------------
def _morse_check(p, amplitude):
    if any(abs(b) >= 1.0 for b in amplitude):
        raise InvalidSpec("bounded-exponential form needs |B| < 1")


# the bounded-exponential map; f reduces to the constant zeta for this mass
# V written with one exp: m (1 - e^(-zeta x))^2 = (e^(zeta x) - 1)^2
MORSE = Family("morse", "exp(2*zeta*x)", "0.5*omega^2*(exp(zeta*x)-1)^2",
               q="root*(1-exp(-zeta*x))", f="half+(zeta-half)*exp(-zeta*x)",
               check=_morse_check,
               frequency=lambda p, i, A: p.zeta[i] * p.omega[i],
               closed_form="ln(1+A*cos(rate*t+phase))/zeta",
               coordinate_energy=lambda p, A, i: 0.5 * p.omega[i] ** 2 * A ** 2)


# --- inverse-square families: V = (1/2)(w^2 m x^2 + kappa/(m x^2)) -------------
def _inverse_square_check(p, amplitude):
    if any(c == 0.0 for c in amplitude):
        raise InvalidSpec("inverse-square form needs C != 0")


def _inverse_square_form(kappa: str, theta_dot: str, denom: str, rho: str,
                         s: str = "rate*rate*A^4") -> str:
    """x = u^rho, u = (c + (s - c) sin^2(theta_dot t + phase))/denom with
    c = kappa: u denom is c at theta = 0 and s a quarter turn later."""
    return f"(({kappa}+({s}-{kappa})*sin({theta_dot}*t+phase)^2)/({denom}))^({rho})"


# x^2 oscillates, so the position period is half the phase period; sw1 and
# sw2 print no energy, so exact_energy evaluates the definition of record;
# the reference orbit's constant is C_q^2
_INVERSE_SQUARE = Family("", "1", "0.5*(omega^2*x^2+kappa/x^2)",
                         pole=0.0, reference="isotonic",
                         check=_inverse_square_check,
                         closed_form=_inverse_square_form("kappa", "rate", "rate*rate*A*A", "0.5"),
                         image=lambda p, i, C: C * C,
                         coordinate_energy=None, position_phase=math.pi)


ISOTONIC = replace(_INVERSE_SQUARE, name="isotonic",
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
              domain=_ml_domain, frequency=_sw1_frequency,
              image=lambda p, i, C: C * C / (1.0 + _sign(p) * p.lam * C * C))


# m = beta^2 x^(2(eta-1)); see the misprint ledger for the closed form: the
# printed one reads kappa/eta^2 where the amended one reads kappa; its shape
# is written in omega, its phase in eta omega (Omega = |eta| omega)
_SW2_SHAPE = dict(theta_dot="eta_exp*omega", denom="(beta*omega*A)^2", rho="1/(2*eta_exp)",
                  s="omega*omega*A^4")
SW2 = replace(_INVERSE_SQUARE, name="sw2", mass="beta^2*x^(2*eta_exp-2)",
              potential="0.5*(omega^2*beta^2*x^(2*eta_exp)+kappa/(beta^2*x^(2*eta_exp)))",
              domain=lambda p: _HALF_LINE, singularity=lambda p: 0.0,
              frequency=lambda p, i, A: abs(p.eta_exp) * p.omega[i],
              closed_form=_inverse_square_form("kappa/eta_exp^2", **_SW2_SHAPE),
              amended_form=_inverse_square_form("kappa", **_SW2_SHAPE))


#: every catalog family by name; the only family registry
FAMILIES: dict[str, Family] = {f.name: f for f in (
    ML1, POWERLAW, ML2, MORSE, SW1, SW2, HARMONIC, ISOTONIC)}
