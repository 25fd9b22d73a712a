"""Property tests: any ``params`` mapping or ``integrator`` block through
``pdmdyn simulate`` ends cleanly.

The run must exit 0 (possibly with a truncation note) or exit 2 with a single
``error:`` line; any other exception escapes run_cli and fails the test.
"""

import io
import json
import math
import tempfile
from pathlib import Path

import pytest

from pdmdyn.cli import run_cli
from pdmdyn.core import ParameterSet
from pdmdyn.families import FAMILIES

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies

# in range for every parameter, so any family builds from it
BASE = {"omega": 1.0, "lambda": 0.5, "sign": "+", "alpha": 1.0, "upsilon": 1.5,
        "zeta": 0.5, "eta_const": 1.0, "eta_exp": 2.0, "beta": 1.0, "kappa": 1.0}
KEYS = sorted(ParameterSet.__dataclass_fields__) + ["lambda"]

_numbers = st.floats(allow_nan=True, allow_infinity=True)
_values = st.one_of(_numbers, st.sampled_from(["+", "-"]), st.lists(_numbers, max_size=4))


def simulate_ends_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(["simulate", "--config", str(path)], out, err)
    hypothesis.event(f"exit {code}" + (", note" if err.getvalue().startswith("note") else ""))
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert code == 0
        assert err.getvalue() == "" or err.getvalue().startswith("note: ")


@given(family=st.sampled_from(sorted(FAMILIES) + ["custom"]),
       n=st.integers(1, 3),
       override=st.dictionaries(st.sampled_from(KEYS), _values, max_size=4),
       drop=st.sets(st.sampled_from(sorted(BASE)), max_size=3),
       scheme=st.sampled_from(["adaptive45", "fixed_rk4"]))
@settings(max_examples=200, deadline=None)
def test_params_end_in_exit_0_or_an_error_line(family, n, override, drop, scheme):
    """Parameters every family accepts, some overridden or dropped, with
    scalars or lists of any length holding finite, zero, negative, NaN or
    infinite values."""
    params = {k: v for k, v in BASE.items() if k not in drop}
    params.update(override)
    simulate_ends_cleanly({
        "family": family, "n": n, "params": params,
        "custom": {"mass": ["1+x^2"] * n, "potential": ["0.5*x^2"] * n},
        "initial": {"x": [0.5] * n, "v": [0.1] * n},
        "integrator": {"scheme": scheme, "t_end": 0.01, "h_min": 1e-4}})


_BAD = [0.0, -0.0, -5e-324, -1e-3, -1e300, math.nan, math.inf, -math.inf]
_LARGEST = 1.7976931348623157e308
# a positive finite step size is never below 1e-5, t_end / 10^3 at the largest
# t_end, so no example takes more than about 10^3 steps; the plain values are
# there so that more of the drawn blocks are consistent and run
_steps = st.one_of(st.sampled_from([1e-4, 1e-3, 1e-2]), st.floats(1e-5, _LARGEST),
                   st.sampled_from(_BAD + [1e-5, _LARGEST]))
# finite tolerances below 1e-12 but above about 1e-70 would accept steps far
# shorter than 1e-5; 1e-300 and 5e-324 sit below that band and fail fast
_tols = st.one_of(st.sampled_from([1e-10, 1e-6]), st.floats(1e-12, _LARGEST),
                  st.sampled_from(_BAD + [5e-324, 1e-300, _LARGEST]))
_t_end = st.one_of(st.floats(0.0, 0.01), st.sampled_from([0.0, 0.01]),
                   st.sampled_from(_BAD))


@given(scheme=st.sampled_from(["adaptive45", "adaptive", "fixed_rk4", "fixed", "rk45"]),
       block=st.fixed_dictionaries({}, optional={
           "t_end": _t_end,
           "h": _steps, "h_init": _steps, "h_min": _steps, "h_max": _steps,
           "rel_tol": _tols, "abs_tol": _tols}))
@settings(max_examples=200, deadline=None)
def test_integrator_block_ends_in_exit_0_or_an_error_line(scheme, block):
    """Schemes, known and unknown, with step sizes, tolerances and t_end drawn
    finite, zero, negative, NaN, infinite or extreme, or left out.

    t_end stays at most 0.01 and positive step sizes at least 1e-5 so each
    example is small; the max_steps budget, not this test, bounds longer runs.
    """
    simulate_ends_cleanly({
        "family": "ml1", "n": 1, "params": {"omega": [1.0], "lambda": 0.5, "sign": "+"},
        "initial": {"x": [0.5], "v": [0.1]},
        "integrator": dict(block, scheme=scheme)})
