"""Property test: any ``params`` mapping through ``pdmdyn simulate`` ends cleanly.

Each drawn config starts from parameters every family accepts and overrides
or drops some of them with scalars or lists of any length, holding finite,
zero, negative, NaN or infinite values.  The run must exit 0 (possibly with
a truncation note) or exit 2 with a single ``error:`` line; any other
exception escapes run_cli and fails the test.
"""

import io
import json
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


@given(family=st.sampled_from(sorted(FAMILIES) + ["custom"]),
       n=st.integers(1, 3),
       override=st.dictionaries(st.sampled_from(KEYS), _values, max_size=4),
       drop=st.sets(st.sampled_from(sorted(BASE)), max_size=3),
       scheme=st.sampled_from(["adaptive45", "fixed_rk4"]))
@settings(max_examples=200, deadline=None)
def test_params_end_in_exit_0_or_an_error_line(family, n, override, drop, scheme):
    params = {k: v for k, v in BASE.items() if k not in drop}
    params.update(override)
    cfg = {"family": family, "n": n, "params": params,
           "custom": {"mass": ["1+x^2"] * n, "potential": ["0.5*x^2"] * n},
           "initial": {"x": [0.5] * n, "v": [0.1] * n},
           "integrator": {"scheme": scheme, "t_end": 0.01, "h_min": 1e-4}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        code = run_cli(["simulate", "--config", str(path)], out, err)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    else:
        assert code == 0
        assert err.getvalue() == "" or err.getvalue().startswith("note: ")
