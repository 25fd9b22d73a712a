"""Family records: each catalog family against its custom-expression twin.

A twin writes the family's mass and potential as parsed expressions, so its
equations of motion and energy go through the expression compiler and share
no formula with the family record.
"""

import zlib

import numpy as np
import pytest

from pdmdyn.core import State, build_system, total_energy
from pdmdyn.eom import el1_acceleration
from pdmdyn.errors import MissingParameter
from pdmdyn.families import FAMILIES

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
