"""Property tests: any ``params`` mapping, ``integrator``, ``initial`` or
``output`` block through ``pdmdyn simulate``, and any ``solution`` or
``grid`` block through ``pdmdyn exact``, ends cleanly.

The run must exit 0 (possibly with a truncation note, or with the closed-form
energy line of ``exact``) or exit 2 with a single ``error:`` line; any other
exception escapes run_cli and fails the test, and so does any warning.
"""

import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import pytest

from pdmdyn.cli import run_cli
from pdmdyn.core import ParameterSet
from pdmdyn.families import FAMILIES

hypothesis = pytest.importorskip("hypothesis")
given, settings, st = hypothesis.given, hypothesis.settings, hypothesis.strategies
example = hypothesis.example

# in range for every parameter, so any family builds from it
BASE = {"omega": 1.0, "lambda": 0.5, "sign": "+", "alpha": 1.0, "upsilon": 1.5,
        "zeta": 0.5, "eta_const": 1.0, "eta_exp": 2.0, "beta": 1.0, "kappa": 1.0}
KEYS = sorted(ParameterSet.__dataclass_fields__) + ["lambda"]

_numbers = st.floats(allow_nan=True, allow_infinity=True)
_values = st.one_of(_numbers, st.sampled_from(["+", "-"]), st.lists(_numbers, max_size=4))


def ends_cleanly(cfg, io_error=False, command="simulate"):
    """Run command on cfg; io_error allows an ``i/o error:`` line for an
    unwritable output path where an ``error:`` line is allowed."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(cfg))
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([command, "--config", str(path)], out, err)
    hypothesis.event(f"exit {code}" + (", note" if err.getvalue().startswith("note") else ""))
    if code == 2:
        assert out.getvalue() == ""
        lead = ("error:", "i/o error:") if io_error else "error:"
        assert err.getvalue().startswith(lead) and err.getvalue().count("\n") == 1
    elif command == "exact":
        assert code == 0
        assert err.getvalue().startswith("closed-form energy: ")
        assert err.getvalue().count("\n") == 1
    else:
        assert code == 0
        assert err.getvalue() == "" or err.getvalue().startswith("note: ")
    return code, out.getvalue()


@given(family=st.sampled_from(sorted(FAMILIES) + ["custom"]),
       n=st.integers(1, 3),
       override=st.dictionaries(st.sampled_from(KEYS), _values, max_size=4),
       drop=st.sets(st.sampled_from(sorted(BASE)), max_size=3),
       scheme=st.sampled_from(["dop853", "fixed_rk4"]))
@settings(max_examples=200, deadline=None)
def test_params_end_in_exit_0_or_an_error_line(family, n, override, drop, scheme):
    """Parameters every family accepts, some overridden or dropped, with
    scalars or lists of any length holding finite, zero, negative, NaN or
    infinite values."""
    params = {k: v for k, v in BASE.items() if k not in drop}
    params.update(override)
    ends_cleanly({
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


# "rk45" and "adaptive45" name no scheme
@given(scheme=st.sampled_from(["adaptive45", "adaptive", "dop853", "fixed_rk4", "fixed",
                               "rk45", None]),
       block=st.fixed_dictionaries({}, optional={
           "t_end": _t_end,
           "h": _steps, "h_init": _steps, "h_min": _steps, "h_max": _steps,
           "rel_tol": _tols, "abs_tol": _tols}))
@settings(max_examples=200, deadline=None)
def test_integrator_block_ends_in_exit_0_or_an_error_line(scheme, block):
    """Schemes, known, unknown or left out, with step sizes, tolerances and
    t_end drawn finite, zero, negative, NaN, infinite or extreme, or left out.

    t_end stays at most 0.01 and positive step sizes at least 1e-5 so each
    example is small; the MAX_STEPS budget, not this test, bounds longer runs.
    """
    ends_cleanly({
        "family": "ml1", "n": 1, "params": {"omega": [1.0], "lambda": 0.5, "sign": "+"},
        "initial": {"x": [0.5], "v": [0.1]},
        "integrator": block if scheme is None else dict(block, scheme=scheme)})


_EXTREME = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e300, -1e300, _LARGEST, -_LARGEST,
            math.nan, math.inf, -math.inf]
_coordinate = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(_EXTREME),
                        st.floats(allow_nan=True, allow_infinity=True))
_vector = st.one_of(st.lists(_coordinate, max_size=4), _coordinate, st.none(),
                    st.sampled_from(["", "x", [None], [[0.5]]]))
# finite start times are -0.01 or later, so no example integrates over a long
# span, or far enough back (-1e300) that a step cannot advance t; later,
# non-finite or misspelt ones are errors
_t0 = st.one_of(st.sampled_from([0.0, -0.01, 0.005, 0.02, 1e300, _LARGEST, None, "0"]),
                st.sampled_from(_EXTREME[5:]), st.floats(-0.01, 0.01))
_from_exact = st.fixed_dictionaries({"amplitude": _vector}, optional={
    "t0": _t0, "phase": _vector, "variant": st.sampled_from(["published", "amended", "x"])})


@given(family=st.sampled_from(sorted(FAMILIES) + ["custom"]),
       n=st.integers(1, 3),
       initial=st.one_of(
           st.fixed_dictionaries({}, optional={"x": _vector, "v": _vector, "t0": _t0}),
           st.fixed_dictionaries({"from_exact": _from_exact})),
       scheme=st.sampled_from(["dop853", "fixed_rk4"]))
# closed forms that overflowed (A^4) or divided by zero, with a traceback
@example(family="sw2", n=1, initial={"from_exact": {"amplitude": [1e300]}},
         scheme="dop853")
@example(family="isotonic", n=2, initial={"from_exact": {"amplitude": [5e-324, 1.0]}},
         scheme="fixed_rk4")
# the cosine of an infinite phase: a ValueError traceback
@example(family="harmonic", n=1, initial={"from_exact": {"amplitude": [0.0], "t0": math.inf}},
         scheme="dop853")
# t + h == t from here: the run stood still until MAX_STEPS
@example(family="ml1", n=1, initial={"x": [0.5], "v": [0.1], "t0": -1e300},
         scheme="dop853")
@settings(max_examples=200, deadline=None)
def test_initial_block_ends_in_exit_0_or_an_error_line(family, n, initial, scheme):
    """Positions and velocities of any length holding finite, zero, tiny,
    huge, NaN or infinite values, or not lists at all; start times; and
    closed-form starts with any amplitudes."""
    ends_cleanly({
        "family": family, "n": n, "params": BASE,
        "custom": {"mass": ["1+x^2"] * n, "potential": ["0.5*x^2"] * n},
        "initial": initial,
        "integrator": {"scheme": scheme, "t_end": 0.01, "h_min": 1e-4}})


# file names under the example's directory, the directory itself, a missing
# directory, and values that are no path at all
_NAMES = ["out.csv", "out.json", "", ".", "missing/out.csv"]


@given(output=st.fixed_dictionaries({}, optional={
           "format": st.one_of(st.sampled_from(["csv", "json", "CSV", "", "tsv"]),
                               st.none(), st.integers(), st.lists(st.text(max_size=2))),
           "stride": st.one_of(st.integers(-3, 5), st.sampled_from(_EXTREME + [10**30]),
                               st.none(), st.sampled_from(["2", "x", [1], 1.5, True])),
           "path": st.one_of(st.sampled_from(_NAMES), st.none(), st.integers(),
                             st.sampled_from([[], ["out.csv"], {}, True, 1.5]))}))
@example(output={"path": 0})  # a traceback from Path(0)
@example(output={"path": "missing/out.csv", "format": "json", "stride": 3})
@settings(max_examples=200, deadline=None)
def test_output_block_ends_in_exit_0_or_an_error_line(output):
    """Formats, strides and paths drawn valid, misspelt, out of range or of
    the wrong type; a run that exits 0 writes its table where asked.  A path
    that names a directory or lies in a missing one is an ``i/o error:``."""
    with tempfile.TemporaryDirectory() as tmp:
        if isinstance(output.get("path"), str):
            output = dict(output, path=str(Path(tmp) / output["path"]))
        code, out = ends_cleanly({
            "family": "ml1", "n": 1, "params": {"omega": [1.0], "lambda": 0.5, "sign": "+"},
            "initial": {"x": [0.5], "v": [0.1]},
            "integrator": {"t_end": 0.01}, "output": output}, io_error=True)
        if code == 0:
            path = output.get("path")
            table = Path(path).read_text() if path is not None else out
            assert table.startswith('t,x_1,v_1,E\n' if output.get("format", "csv") == "csv"
                                    else '{\n "columns"')
            assert out == ("" if path is not None else table)


# grid times drawn extreme or non-finite, spans that overflow included
_times = st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_EXTREME), st.none(),
                   st.sampled_from(["0", [1.0]]))
# sample counts below 1, so large that no array can hold them (numpy refuses
# them, or the allocation fails at once), not integers, or no count at all
_samples = st.one_of(st.integers(-2, 0),
                     st.sampled_from([2**50, 2**62, 10**30, 1e300, 2.5, math.nan,
                                      math.inf, None, "many", True]))
_SOLUTION_KEYS = ("amplitude", "phase", "variant")


def _mostly(plain, wild):
    """plain three times in four, so that many drawn blocks run to exit 0."""
    return st.integers(0, 3).flatmap(lambda k: plain if k < 3 else wild)


def _exact_block(n):
    """solution and grid keys for n coordinates; plain amplitudes and phases
    suit every family but ml2."""
    plain = st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n)
    return st.fixed_dictionaries({
        "n": st.just(n),
        "amplitude": _mostly(plain, _vector), "phase": _mostly(plain, _vector),
        "variant": _mostly(st.sampled_from(["published", "amended"]),
                           st.sampled_from(["x", None, 1])),
        "t0": _mostly(st.floats(-1.0, 1.0), _times),
        "t1": _mostly(st.floats(-10.0, 10.0), _times),
        "periods": _mostly(st.floats(-3.0, 3.0), _times),
        "samples": _mostly(st.integers(1, 40), _samples)})


@given(family=st.sampled_from(sorted(FAMILIES)),
       block=st.integers(1, 2).flatmap(_exact_block),
       drop=st.sets(st.sampled_from(["amplitude", "phase", "variant", "t0", "t1",
                                     "periods", "samples"]), max_size=2))
# the relation overflowed here: numpy warnings, then the error line
@example(family="ml1", block={"n": 1, "amplitude": [1e300], "periods": 1}, drop=set())
# an infinite phase, a span that overflows, and a count no array can hold
@example(family="harmonic", block={"n": 1, "amplitude": [1.0], "phase": [math.inf], "t1": 1.0},
         drop=set())
@example(family="harmonic", drop=set(),
         block={"n": 1, "amplitude": [1.0], "t0": -_LARGEST, "t1": _LARGEST, "samples": 3})
@example(family="harmonic", block={"n": 1, "amplitude": [1.0], "t1": 1.0, "samples": 10**30},
         drop=set())
# grids that run backward: tabulated, exit 0, before they were rejected
@example(family="morse", block={"n": 1, "amplitude": [0.5], "periods": -1, "samples": 3},
         drop=set())
@example(family="morse", block={"n": 1, "amplitude": [0.5], "t0": 1, "t1": 0, "samples": 3},
         drop=set())
@settings(max_examples=200, deadline=None)
def test_exact_blocks_end_in_exit_0_or_an_error_line(family, block, drop):
    """Amplitudes, phases and variants, and grid times, period counts and
    sample counts, drawn finite, zero, negative, NaN, infinite, extreme or
    left out, for every catalog family; spans run forward or backward, and a
    table that is written runs forward in time."""
    block = {k: v for k, v in block.items() if k not in drop}
    code, out = ends_cleanly({
        "family": family, "n": block.pop("n"), "params": BASE,
        "solution": {k: v for k, v in block.items() if k in _SOLUTION_KEYS},
        "grid": {k: v for k, v in block.items() if k not in _SOLUTION_KEYS}},
        command="exact")
    if code == 0:
        times = [float(row.partition(",")[0]) for row in out.splitlines()[1:]]
        assert times == sorted(times)
