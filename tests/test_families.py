"""Family records: each catalog family against its custom-expression twin.

A twin writes the family's mass and potential as parsed expressions, so its
equations of motion and energy go through the expression compiler and share
no formula with the family record.
"""

import math
import re
import zlib

import numpy as np
import pytest

from pdmdyn.core import (VECTORS, ParameterSet, State, build_system, parameter_set,
                         total_energy)
from pdmdyn.eom import el1_acceleration
from pdmdyn.errors import MissingParameter
from pdmdyn.exact import (ExactSolutionSpec, exact_energy, exact_solution,
                          oscillation_period)
from pdmdyn.exprparse import compile_expression
from pdmdyn.families import FAMILIES
from pdmdyn.transform import f_scale, q_map, reference_map

# family, params, twin mass, twin potential, x-range of the sampled states
TWINS = {
    "ml1+": ("ml1", {"omega": [1.3], "lambda": 0.7, "sign": "+"},
             "1/(1+0.7*x^2)", "0.5*1.69*x^2/(1+0.7*x^2)", (-3.0, 3.0)),
    "ml1-": ("ml1", {"omega": [1.3], "lambda": 0.7, "sign": "-"},
             "1/(1-0.7*x^2)", "0.5*1.69*x^2/(1-0.7*x^2)", (-1.1, 1.1)),
    "powerlaw": ("powerlaw", {"omega": [0.9], "alpha": 1.2, "upsilon": 1.5},
                 "1.44*x^3", "0.5*0.81*1.44*x^3*x^2", (0.2, 2.5)),
    "ml2": ("ml2", {"omega": [1.1], "lambda": 0.25, "sign": "-", "eta_const": [2.0]},
            "1/(1-0.25*x^2)", "0.5*1.21*4/(1-0.25*x^2)", (-1.8, 1.8)),
    "morse": ("morse", {"omega": [1.4], "zeta": [0.6]},
              "exp(1.2*x)", "0.5*1.96*exp(1.2*x)*(1-exp(-0.6*x))^2", (-2.0, 2.0)),
    "sw1": ("sw1", {"omega": [1.2], "lambda": 0.5, "sign": "+", "kappa": [0.8]},
            "1/(1+0.5*x^2)", "0.5*(1.44*x^2/(1+0.5*x^2)+0.8*(1+0.5*x^2)/x^2)", (0.2, 2.5)),
    "sw2": ("sw2", {"omega": [1.1], "kappa": [0.9], "beta": 1.3, "eta_exp": 2.0},
            "1.69*x^2", "0.5*(1.21*1.69*x^4+0.9/(1.69*x^4))", (0.3, 2.0)),
    "harmonic": ("harmonic", {"omega": [1.7]}, "1", "0.5*2.89*x^2", (-2.5, 2.5)),
    "isotonic": ("isotonic", {"omega": [0.8], "kappa": [1.5]},
                 "1", "0.5*(0.64*x^2+1.5/x^2)", (0.2, 2.5)),
}


def test_every_family_has_a_twin():
    assert {family for family, *_ in TWINS.values()} == set(FAMILIES)


@pytest.mark.parametrize("name,key", [(name, key) for name in sorted(TWINS)
                                      for key in TWINS[name][1]])
def test_every_template_parameter_is_required(name, key):
    # a twin gives exactly the parameters its family's templates read
    family, params, *_ = TWINS[name]
    with pytest.raises(MissingParameter) as err:
        build_system(family, 1, {k: v for k, v in params.items() if k != key})
    assert err.value.field == ("lam" if key == "lambda" else key)


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_map_templates_read_no_other_parameter(name):
    # so the mass and potential state every parameter the family requires
    record = FAMILIES[name]

    def reads(*templates):
        return {word for text in templates for word in re.findall(r"[A-Za-z_]\w*", text)
                if word in ParameterSet.__dataclass_fields__}
    assert reads(record.q, record.f) <= reads(record.mass, record.potential)


@pytest.mark.parametrize("name", sorted(TWINS))
def test_family_matches_its_custom_twin(name):
    family, params, mass, potential, (lo, hi) = TWINS[name]
    record = build_system(family, 1, params)
    twin = build_system("custom", 1, mass_exprs=[mass], potential_exprs=[potential])
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    worst = 0.0
    for x, v in zip(rng.uniform(lo, hi, 2000), rng.uniform(-2.0, 2.0, 2000)):
        state = State.of(0.0, [x], [v])
        for a, b in ((el1_acceleration(record, state)[0], el1_acceleration(twin, state)[0]),
                     (total_energy(record, state), total_energy(twin, state))):
            worst = max(worst, abs(a - b) / max(abs(b), 1.0))
    assert worst <= 1e-13


# --- coordinate-index net ---------------------------------------------------------
# Every per-coordinate quantity of an n-dimensional system must equal that of
# the one-dimensional system built from its coordinate's own parameters: a
# record that reads coordinate 0's parameter where it should read coordinate
# i's shows here and nowhere in the one-dimensional checks.

# family, parameters at n = 3 (n = 2 takes the first two entries),
# amplitudes, phases, whether a closed form exists
NDIM = {
    "ml1+": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "+"},
             [0.9, 0.5, 1.3], [0.3, -1.1, 2.0], True),
    "ml1-": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "-"},
             [0.9, 0.5, 1.1], [0.3, -1.1, 2.0], True),
    "powerlaw": ("powerlaw", {"omega": [1.0, 1.7, 0.6], "alpha": 1.2, "upsilon": 1.5},
                 [1.0, 0.6, 1.4], [0.3, -0.4, 0.5], True),
    # the reduction case needs lam = 1/eta_i^2, so the eta_i differ in sign only
    "ml2-reduction": ("ml2", {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "-",
                              "eta_const": [2.0, -2.0, 2.0]},
                      [1.0, 0.5, 1.5], [0.3, -1.1, 2.0], True),
    "ml2": ("ml2", {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "-",
                    "eta_const": [1.5, -2.5, 3.0]},
            [1.0, 0.5, 1.5], [0.3, -1.1, 2.0], False),
    "morse": ("morse", {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
              [0.5, 0.3, 0.8], [0.3, -1.1, 2.0], True),
    "sw1+": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.5, "sign": "+",
                     "kappa": [0.3, 0.8, 0.5]},
             [1.0, 0.7, 1.5], [0.3, -1.1, 2.0], True),
    "sw1-": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.3, "sign": "-",
                     "kappa": [0.3, 0.8, 0.5]},
             [1.0, 0.7, 1.5], [0.3, -1.1, 2.0], True),
    "sw2": ("sw2", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3], "beta": 1.3,
                    "eta_exp": 2.0},
            [1.0, 0.8, 1.2], [0.3, -1.1, 2.0], True),
    "harmonic": ("harmonic", {"omega": [1.0, 2.0, 0.7]},
                 [1.0, 0.8, 1.2], [0.3, -1.1, 2.0], True),
    "isotonic": ("isotonic", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3]},
                 [1.0, 0.8, 1.2], [0.3, -1.1, 2.0], True),
}
# powerlaw orbits leave their branch within a quarter period: keep t small
NDIM_TIMES = (0.0, 0.07, 0.15)
NDIM_CASES = [(name, n) for name in NDIM for n in (2, 3)]


def _coordinate(name, n, i):
    """(n-dimensional parameters, coordinate i's own one-dimensional ones,
    amplitudes and phases of both) of case name."""
    family, params, amp, phase, _ = NDIM[name]
    full = {k: v[:n] if k in VECTORS else v for k, v in params.items()}
    own = {k: [v[i]] if k in VECTORS else v for k, v in full.items()}
    return family, full, own, amp[:n], phase[:n]


def _specs(name, n):
    """The n-dimensional closed form and each coordinate's one-dimensional one."""
    family, full, _, amp, phase = _coordinate(name, n, 0)
    spec = ExactSolutionSpec(family, parameter_set(full, n), tuple(amp), tuple(phase))
    own = []
    for i in range(n):
        _, _, p1, _, _ = _coordinate(name, n, i)
        own.append(ExactSolutionSpec(family, parameter_set(p1, 1), (amp[i],), (phase[i],)))
    return spec, own


def _close(a, b):
    return abs(a - b) <= 1e-14 * max(abs(a), abs(b))


def _coordinate_energy(system, x, v, i):
    """E_i = (1/2) m_i(x_i) v_i^2 + V_i(x_i) of a type1 system."""
    m = system.profiles[i].eval(float(x))[0]
    term = compile_expression(system.potential.exprs[i], order=1)
    return 0.5 * m * float(v) ** 2 + term(float(x), 1.0)[0]


closed_form_cases = pytest.mark.parametrize(
    "name,n", [(name, n) for name, n in NDIM_CASES if NDIM[name][4]])


@closed_form_cases
def test_coordinate_closed_form_is_its_own(name, n):
    spec, own = _specs(name, n)
    for t in NDIM_TIMES:
        state = exact_solution(spec, t)
        for i in range(n):
            alone = exact_solution(own[i], t)
            assert _close(state.x[i], alone.x[0]) and _close(state.v[i], alone.v[0]), (i, t)


@closed_form_cases
def test_coordinate_period_is_its_own(name, n):
    spec, own = _specs(name, n)
    periods = oscillation_period(spec)
    for i in range(n):
        assert _close(periods[i], oscillation_period(own[i])[0]), i


@closed_form_cases
def test_coordinate_energy_share_is_its_own(name, n):
    spec, own = _specs(name, n)
    term = spec.record.coordinate_energy
    if term is None:   # no printed formula: the energy of record along the solution
        system = build_system(spec.family, n, spec.params)
        state = exact_solution(spec, 0.0)
        shares = [_coordinate_energy(system, state.x[i], state.v[i], i) for i in range(n)]
    else:
        shares = [term(spec.params, spec.amplitude[i], i) for i in range(n)]
    for i in range(n):
        assert _close(shares[i], exact_energy(own[i])), i
    assert _close(math.fsum(shares), exact_energy(spec))


@pytest.mark.parametrize("name,n", [(name, n) for name, n in NDIM_CASES
                                    if FAMILIES[NDIM[name][0]].reference != NDIM[name][0]])
def test_coordinate_map_is_its_own(name, n):
    family, full, _, amp, _ = _coordinate(name, n, 0)
    nmap, _ = reference_map(build_system(family, n, full))
    for i in range(n):
        _, _, p1, _, _ = _coordinate(name, n, i)
        alone, _ = reference_map(build_system(family, 1, p1))
        # positions on the coordinate's own orbit, from half its largest
        # excursion out to the turning point
        a = amp[i] if family != "morse" else math.log(1.0 + amp[i]) / full["zeta"][i]
        for x in np.linspace(0.5 * a, a, 5):
            q, dq = q_map(nmap, i, x)
            q1, dq1 = q_map(alone, 0, x)
            assert _close(q, q1) and _close(dq, dq1), (i, x)
            assert _close(f_scale(nmap, i, x), f_scale(alone, 0, x)), (i, x)
