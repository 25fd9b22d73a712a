"""The generated kernels and closures against the code paths they replaced.

A NonlocalMap's batch kernels, a PotentialSpec's energy kernel and
exact_trajectory's grid must return exactly what the layered evaluations
returned (the map as Python q and f callables, the energy as a loop over the
compiled terms, the grid sample by sample), and raise where those raised;
the compiled inverse-square closed form must agree with the numpy
evaluation of its hand-derived shape to rounding.
"""

import dataclasses
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pdmdyn import exprparse, transform
from pdmdyn.core import (TYPE2, VECTORS, State, _substitute, build_system, parameter_set,
                         potential_energy, potential_gradient, total_energy)
from pdmdyn.eom import el1_rhs, el2_rhs
from pdmdyn.errors import (DomainViolation, ExprDomainError, InvalidSpec, PdmError,
                           SingularCoefficient, SingularPoint)
from pdmdyn.profiles import CoupledProfile, CustomProfile
from pdmdyn.exact import ExactSolutionSpec, exact_trajectory, kinematics
from pdmdyn.exprparse import MAP_COLUMNS
from pdmdyn.families import FAMILIES, _inverse_square_form
from pdmdyn.transform import (NonlocalMap, f_scale, potential_match_residual, q_map,
                              reference_map)
from pdmdyn.verify import run_check

# family, parameters at n = 3 (n < 3 takes the leading entries), a box inside
# every coordinate's domain, and a point outside it (None: the real line)
MAPPED = {
    "ml1+": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "+"},
             (-3.0, 3.0), None),
    "ml1-": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "-"},
             (-1.25, 1.25), 1.3),
    "ml2": ("ml2", {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "-",
                    "eta_const": [1.5, -2.5, 3.0]}, (-1.9, 1.9), -2.0),
    "powerlaw": ("powerlaw", {"omega": [1.0, 1.7, 0.6], "alpha": 1.2, "upsilon": 1.5},
                 (0.05, 2.5), 0.0),
    "morse": ("morse", {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
              (-1.5, 1.5), None),
    "sw1+": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.5, "sign": "+",
                     "kappa": [0.3, 0.8, 0.5]}, (0.1, 2.5), None),
    "sw1-": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.3, "sign": "-",
                     "kappa": [0.3, 0.8, 0.5]}, (0.1, 1.8), -1.9),
    "sw2": ("sw2", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3], "beta": 1.3,
                    "eta_exp": -1.0}, (0.1, 2.5), -0.5),
}
CASES = [(name, n) for name in MAPPED for n in (1, 2, 3)]


def _system(name, n):
    family, params, _, _ = MAPPED[name]
    return build_system(family, n, {k: v[:n] if k in VECTORS else v
                                    for k, v in params.items()})


#: each family's q_i and f_i as Python callables, (p, i, x, sqrt(m_i)) -> q_i
#: and (p, i, x, m_i'/(2 m_i)) -> f_i, as the records held them before they
#: became templates: the reference the compiled map kernel is held to
ORACLE_QF = {
    "default": (lambda p, i, x, root: x * root,
                lambda p, i, x, half: 1.0 + half * x),
    "ml2": (lambda p, i, x, root: p.eta_const[i] * root,
            lambda p, i, x, half: p.eta_const[i] * half),
    "morse": (lambda p, i, x, root: root * (1.0 - math.exp(-p.zeta[i] * x)),
              lambda p, i, x, half: half + (p.zeta[i] - half) * math.exp(-p.zeta[i] * x)),
}


def _oracle_qf(nmap):
    return ORACLE_QF.get(nmap.record.name, ORACLE_QF["default"])


def oracle_point(nmap, i):
    """The point map as it was before its kernel: the profile's checked
    order-1 mass, sqrt(m), q, m'/(2m) and f, in that order."""
    (q, f), p, mass = _oracle_qf(nmap), nmap.params, nmap.profiles[i].eval

    def point(x):
        m, m1 = mass(x, 1)
        root = math.sqrt(m)
        qi, fi = q(p, i, x, root), f(p, i, x, m1 / (2.0 * m))
        return qi, fi * root, fi, m
    return point


def oracle_q(nmap, i):
    """q_i as the map's q column alone computes it: the profile's checked
    order-0 mass, sqrt(m) and q, and no m'/(2m)."""
    (q, _), p, mass = _oracle_qf(nmap), nmap.params, nmap.profiles[i].eval
    return lambda x: q(p, i, x, math.sqrt(mass(x, 0)))


def _layered(nmap, i, x):
    """(q, dq/dx, f, m) as q_map and f_scale computed them, one mass
    evaluation each."""
    p, (q, f) = nmap.params, _oracle_qf(nmap)
    m, m1, _ = nmap.profiles[i].eval(x)
    root = math.sqrt(m)
    fi = f(p, i, x, m1 / (2.0 * m))
    return q(p, i, x, root), fi * root, fi, m


def test_every_mapped_family_is_covered():
    assert {family for family, *_ in MAPPED.values()} == {
        name for name, record in FAMILIES.items() if record.reference != name}


@pytest.mark.parametrize("name,n", CASES)
def test_map_closure_equals_the_layered_map(name, n):
    system = _system(name, n)
    nmap, _ = reference_map(system)
    lo, hi = MAPPED[name][2]
    xs = np.linspace(lo, hi, 41).tolist()
    for i, batch in enumerate(nmap.batches):
        for x, *got in zip(xs, *batch(xs)):
            assert tuple(got) == _layered(nmap, i, x), (i, x)
            assert tuple(got[:2]) == q_map(nmap, i, x) and got[2] == f_scale(nmap, i, x)
            assert got[3] == system.profiles[i].eval(x)[0]


@pytest.mark.parametrize("name,n", CASES)
def test_map_closure_raises_the_profile_error(name, n):
    nmap, _ = reference_map(_system(name, n))
    (lo, _), outside = MAPPED[name][2:]
    for i, batch in enumerate(nmap.batches):
        for x in [math.nan] + ([] if outside is None else [outside]):
            with pytest.raises(DomainViolation) as want:
                nmap.profiles[i].eval(x)
            for fn in (lambda x: batch([lo, x]),
                       lambda x: q_map(nmap, i, x), lambda x: f_scale(nmap, i, x)):
                with pytest.raises(DomainViolation) as got:
                    fn(x)
                assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name,n", CASES)
def test_energy_closure_sums_the_compiled_terms(name, n):
    system = _system(name, n)
    lo, hi = MAPPED[name][2]
    rng = np.random.default_rng(n)
    terms = [exprparse.compile_expression(e, order=1) for e in system.potential.exprs]
    for x in rng.uniform(lo, hi, (50, n)).tolist():
        total = 0.0
        for term, xi in zip(terms, x):
            total += term(xi, 1.0)[0]
        assert system.potential.energies([x]) == [total]
        assert potential_energy(system, np.array(x)) == total


class TestEnergyClosureChecks:
    def test_isotonic_pole_is_a_singular_point(self):
        system = build_system("isotonic", 2, {"omega": [1.0, 2.0], "kappa": [1.0, 0.5]})
        with pytest.raises(SingularPoint) as err:
            potential_energy(system, [0.7, 0.0])
        assert err.value.coordinate == 1

    @pytest.mark.parametrize("name,x,coordinate", [("ml1-", [0.2, 1.3], 1),
                                                   ("powerlaw", [-0.5, 1.0], 0),
                                                   ("sw2", [1.0, math.nan], 1)])
    def test_outside_the_domain_is_a_domain_violation(self, name, x, coordinate):
        with pytest.raises(DomainViolation) as err:
            potential_energy(_system(name, 2), x)
        assert err.value.coordinate == coordinate

    def test_overflowing_potential_is_a_domain_violation(self):
        system = build_system("harmonic", 2, {"omega": [1.0, 2.0]})
        with pytest.raises(DomainViolation, match="not finite"):
            potential_energy(system, [1.0, 1e200])


# --- the batch forms against the per-point closures --------------------------------


def _bits(fn, *args):
    """The bytes of every float fn returns (lists of floats or of tuples, in
    order), or the type, message and coordinate (None for none) of the
    exception it raises."""
    try:
        out = fn(*args)
    except Exception as err:
        return type(err), str(err), getattr(err, "coordinate", None)
    flat = []
    for item in out:
        for entry in item if isinstance(item, (list, tuple)) else [item]:
            flat.extend(entry if isinstance(entry, tuple) else [entry])
    return struct.pack(f"<{len(flat)}d", *flat)


def _columns(rows, n):
    """Per-point results (tuples of n) as n lists, the batch layout."""
    return tuple([row[k] for row in rows] for k in range(n))


# points inside and outside every case's box, the poles, overflowing and
# non-finite values; lists put good points before and between bad ones
_xs = st.one_of(st.floats(min_value=-3.0, max_value=3.0),
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.3, -2.0, 5e-324, -800.0, 1e200]))


def _one_at_a_time(batch, xs):
    """The batch map run on one x at a time, its results as the batch's columns."""
    return _columns([[column[0] for column in batch([x])] for x in xs], 4)


@pytest.mark.parametrize("name,n", CASES)
@given(xs=st.lists(_xs, max_size=6))
@settings(max_examples=25, deadline=None)
def test_batch_map_is_the_point_map_at_each_x(name, n, xs):
    nmap, _ = reference_map(_system(name, n))
    lo, hi = MAPPED[name][2]
    inside = np.linspace(lo, hi, 7).tolist()
    for i, batch in enumerate(nmap.batches):
        for points in (xs, inside + xs, xs + inside):
            assert (_bits(batch, points)
                    == _bits(_one_at_a_time, batch, points)), (i, points)


def assert_oracle_outcome(got, want):
    """The kernel's outcome is the oracle's, bits or exception type and
    message, except that an OverflowError of math.exp in the oracle's q or f
    is the kernel's typed float overflow, a PdmError."""
    if isinstance(want, tuple) and want[0] is OverflowError:
        assert got[0] is ExprDomainError and issubclass(got[0], PdmError), got
        assert got[1].startswith("float overflow in 'exp("), got
    else:
        assert got == want


@pytest.mark.parametrize("name,n", CASES)
@given(xs=st.lists(_xs, max_size=6))
@example(xs=[0.5, -400.0, 1.0])    # morse: m underflows to 0, then m'/(2m) divides by it
@example(xs=[0.5, 5e-324])         # powerlaw: m underflows to 0 at the smallest x
@settings(max_examples=25, deadline=None)
def test_map_kernels_are_the_oracle_map(name, n, xs):
    nmap, _ = reference_map(_system(name, n))
    lo, hi = MAPPED[name][2]
    inside = np.linspace(lo, hi, 7).tolist()
    for i, batch in enumerate(nmap.batches):
        oracle = oracle_point(nmap, i)
        for points in (xs, inside + xs):
            want = _bits(lambda: _columns([oracle(x) for x in points], 4))
            assert_oracle_outcome(_bits(batch, points), want)


def _custom_map(text):
    """A one-coordinate map with the default q and f over a custom mass."""
    return NonlocalMap(FAMILIES["ml1"], (CustomProfile.from_text(text),), parameter_set({}, 1))


class TestMapKernelFailures:
    """At the first failing point, the batch kernel raises what the oracle
    raises there, good points before it or not."""

    CASES = {   # the map, good points, the bad point, what it raises there
        "outside the domain": (lambda: reference_map(_system("ml1-", 1))[0], (0.5, 0.75), 1.3,
                               DomainViolation, "x=1.3 outside the domain"),
        "m < 0": (lambda: _custom_map("x-1"), (1.5, 2.0), 0.5,
                  DomainViolation, "profile 'x-1' is -0.5 < 0 at x=0.5"),
        "m = 0": (lambda: reference_map(_system("morse", 1))[0], (1.5, 2.0), -400.0,
                  ZeroDivisionError, "float division by zero"),
        "mass expression": (lambda: _custom_map("1/x"), (1.5, 2.0), 0.0,
                            ExprDomainError, "division by zero in '1.0/x'"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_first_failure_is_the_oracles(self, case):
        make, (a, b), bad, error, message = self.CASES[case]
        nmap = make()
        oracle = oracle_point(nmap, 0)
        for xs in ([bad], [a, bad, b], [a, b, bad, bad]):
            want = _bits(lambda: _columns([oracle(x) for x in xs], 4))
            assert want[0] is error and want[1].startswith(message)
            assert _bits(nmap.batches[0], xs) == want

    def test_morse_q_overflow_is_a_typed_domain_error(self):
        # math.exp(800) in the q lambda raised a bare OverflowError; the
        # compiled q reports it as the expression's float overflow
        nmap, _ = reference_map(_system("morse", 1))
        with pytest.raises(OverflowError):
            oracle_point(nmap, 0)(-800.0)
        for fn in (lambda x: q_map(nmap, 0, x), lambda x: nmap.batches[0]([0.5, x])):
            with pytest.raises(ExprDomainError) as err:
                fn(-800.0)
            assert isinstance(err.value, PdmError)
            assert str(err.value) == "float overflow in 'exp(-1.0*x)'"


class TestMapKernelCompiles:
    # parameters no other test uses, so every expression is parsed afresh
    PARAMS = {"omega": [1.0, 2.0], "zeta": [1.375, 0.625]}

    def test_compiled_on_first_use_once_per_mass_q_and_f(self, monkeypatch):
        compiles = []
        real = exprparse._compile_map
        monkeypatch.setattr(exprparse, "_compile_map",
                            lambda *args: compiles.append(args) or real(*args))
        system = build_system("morse", 2, self.PARAMS)
        nmap, _ = reference_map(system)
        assert compiles == []
        for _ in range(2):
            q_map(nmap, 0, 0.25)
            nmap.batches[0]([0.25, 0.5])
        # one kernel for the point and batch calls alike
        assert len(compiles) == 1 and compiles[0][0] is system.profiles[0].expr
        # a rebuilt system and map reuse it
        again, _ = reference_map(build_system("morse", 2, self.PARAMS))
        assert again.batches[0]([0.25]) == nmap.batches[0]([0.25])
        assert len(compiles) == 1
        # the other coordinate has its own zeta, so its own mass, q and f
        f_scale(nmap, 1, 0.25)
        assert len(compiles) == 2 and compiles[1][0] is system.profiles[1].expr

    def test_one_kernel_per_mass_q_f_and_columns(self, monkeypatch):
        compiles = []
        real = exprparse._compile_map
        monkeypatch.setattr(exprparse, "_compile_map",
                            lambda *args: compiles.append(args) or real(*args))
        params = {"omega": [1.0], "zeta": [1.4375]}   # parsed afresh: no other test's zeta
        system = build_system("morse", 1, params)
        nmap, _ = reference_map(system)
        for _ in range(2):
            for columns in (MAP_COLUMNS, *COLUMN_SETS):
                nmap.batches[0]([0.25, 0.5], columns)
        assert [args[3] for args in compiles] == [MAP_COLUMNS, *COLUMN_SETS]
        assert all(args[0] is system.profiles[0].expr for args in compiles)
        # a rebuilt system and map reuse every one
        again, _ = reference_map(build_system("morse", 1, params))
        for columns in (MAP_COLUMNS, *COLUMN_SETS):
            assert again.batches[0]([0.25], columns) == nmap.batches[0]([0.25], columns)
        assert len(compiles) == 1 + len(COLUMN_SETS)

    def test_nothing_is_compiled_at_import(self):
        # every compiled form is kept on its expression: count them all
        code = ("import gc, pdmdyn, pdmdyn.cli, pdmdyn.verify\n"
                "from pdmdyn.exprparse import BinOp, Call, Neg, Num, Var\n"
                "nodes = [o for o in gc.get_objects() if type(o) in (BinOp, Call, Neg, Num, Var)]\n"
                "print(sum(len(vars(e).get('_compiled', {})) for e in nodes))")
        src = str(Path(exprparse.__file__).resolve().parents[1])
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src}, check=True)
        assert out.stdout.strip() == "0"


# --- the map's column sets against its full set -------------------------------------


#: the column sets the package's callers read, besides the full set MAP_COLUMNS
COLUMN_SETS = [("q",), ("q", "f", "m"), ("f",), ("dq", "f", "m"), ("q", "f")]


def test_the_column_sets_are_the_ones_the_callers_read(monkeypatch):
    read = set()
    real = transform.compile_map
    monkeypatch.setattr(transform, "compile_map",
                        lambda *args: read.add(args[3]) or real(*args))
    for name in ("potential-match:ml1+", "g-identity:ml1+", "mapped-exactness:ml1+",
                 "tau-closed-form:ml1", "invariance:ml1+"):
        assert run_check(name, seed=1).passed, name
    nmap, _ = reference_map(_system("ml1+", 1))
    q_map(nmap, 0, 0.5)
    f_scale(nmap, 0, 0.5)
    assert read == {MAP_COLUMNS, *COLUMN_SETS}


@pytest.mark.parametrize("name,n", CASES)
@given(xs=st.lists(_xs, max_size=6))
@example(xs=[0.5, -400.0, 1.0])    # morse: m underflows to 0
@example(xs=[0.5, 1.3408e154])     # ml1+: x^2 overflows, so m = 1/x^2 is 0
@example(xs=[0.5, 5e-324])         # powerlaw: m underflows to 0 at the smallest x
@example(xs=[0.5, -800.0])         # morse: q overflows where f would too
@settings(max_examples=25, deadline=None)
def test_column_sets_are_the_full_sets_columns(name, n, xs):
    # where the full set returns, each set returns its columns bit for bit;
    # where it raises, each set raises the same, except that q alone needs
    # no m'/(2m) and returns q where m is 0, nor m', and returns q where a
    # factor of m' overflows
    nmap, _ = reference_map(_system(name, n))
    lo, hi = MAPPED[name][2]
    inside = np.linspace(lo, hi, 7).tolist()
    for i, batch in enumerate(nmap.batches):
        for points in (xs, inside + xs):
            full = _bits(batch, points)
            for columns in COLUMN_SETS:
                got = _bits(batch, points, columns)
                if isinstance(full, bytes):
                    out = batch(points)
                    assert got == _bits(lambda: [out[MAP_COLUMNS.index(c)] for c in columns])
                elif columns == ("q",) and (full[0] is ZeroDivisionError or (
                        full[0] is ExprDomainError and full[1].startswith("float overflow"))):
                    first = next(x for x in points if not isinstance(_bits(batch, [x]), bytes))
                    if full[0] is ZeroDivisionError:
                        assert nmap.profiles[i].eval(first, 0) == 0.0
                    q = oracle_q(nmap, i)
                    assert_oracle_outcome(got, _bits(lambda: [[q(x) for x in points]]))
                else:
                    assert got == full, (i, points, columns)


def test_q_alone_returns_q_where_the_slope_of_m_overflows():
    # m = alpha^2 x^(2 upsilon) is finite at 1e-200, but the factor
    # 2 upsilon x^(2 upsilon - 1) of m' overflows; q reads no m'
    system = build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.2, "upsilon": -0.4})
    nmap, _ = reference_map(system)
    with pytest.raises(ExprDomainError, match="^float overflow in "):
        q_map(nmap, 0, 1e-200)
    (q,) = nmap.batches[0]([1e-200], ("q",))
    assert q == [oracle_q(nmap, 0)(1e-200)] and math.isfinite(q[0])


@pytest.mark.parametrize("name,x", [("morse", -400.0), ("ml1+", 1.3408e154),
                                    ("powerlaw", 5e-324)])
def test_q_alone_returns_q_where_m_is_zero(name, x):
    system = _system(name, 1)
    nmap, ref = reference_map(system)
    assert system.profiles[0].eval(x, 0) == 0.0
    with pytest.raises(ZeroDivisionError):
        q_map(nmap, 0, x)
    (q,) = nmap.batches[0]([0.5, x], ("q",))
    assert q[1] == oracle_q(nmap, 0)(x)
    # potential-match reads q alone: a residual or a typed error, not the
    # division by m = 0
    try:
        potential_match_residual(nmap, system, ref, [[x]])
    except Exception as err:
        assert isinstance(err, PdmError), err


def test_a_q_that_names_half_runs_half_first():
    # half then runs before q in every set, and the mass at order 1
    record = dataclasses.replace(FAMILIES["ml1"], q="root*(x+half)")
    profile = CustomProfile.from_text("1+x^2")
    nmap = NonlocalMap(record, (profile,), parameter_set({}, 1))
    xs = [-1.5, 0.25, 2.0]
    want = []
    for x in xs:
        m, m1 = profile.eval(x, 1)
        root, half = math.sqrt(m), m1 / (2.0 * m)
        want.append((root * (x + half), (1.0 + half * x) * root, 1.0 + half * x, m))
    full = _columns(want, 4)
    assert nmap.batches[0](xs) == full
    for columns in COLUMN_SETS:
        assert nmap.batches[0](xs, columns) == tuple(full[MAP_COLUMNS.index(c)]
                                                     for c in columns)


class TestClosedFormKernelCompiles:
    # values no other test uses, so every closed-form text is parsed afresh
    PARAMS = {"omega": [1.0625, 2.0625], "zeta": [0.8125, 0.4375]}
    FIRST = {"kinematics": lambda spec: kinematics(spec, 0.25),
             "exact_trajectory": lambda spec: exact_trajectory(spec, 0.0, 1.0, 5)}

    @staticmethod
    def _count(monkeypatch) -> list:
        """The closed-form grid kernels compiled from now on, each as its
        tuple of closed forms in t, one per coordinate."""
        compiles = []
        real = exprparse._compile_grid
        monkeypatch.setattr(exprparse, "_compile_grid", lambda exprs, *rest: (
            compiles.append(exprs)) or real(exprs, *rest))
        return compiles

    @pytest.mark.parametrize("first,amplitude", [("kinematics", (0.3125, -0.1875)),
                                                 ("exact_trajectory", (0.28125, -0.15625))])
    def test_compiled_on_first_use_once_per_template_text(self, first, amplitude,
                                                          monkeypatch):
        compiles = self._count(monkeypatch)
        build_system("morse", 2, self.PARAMS)

        def spec():
            return ExactSolutionSpec("morse", parameter_set(self.PARAMS, 2), amplitude,
                                     (0.0625, -0.125))
        spec_a = spec()
        assert compiles == []
        self.FIRST[first](spec_a)
        assert len(compiles) == 1 and len(compiles[0]) == 2
        assert compiles[0][0] is not compiles[0][1]
        for fn in self.FIRST.values():
            fn(spec_a)
            fn(spec())          # a repeated spec compiles nothing
        assert len(compiles) == 1

    def test_equal_coordinates_share_one_kernel(self, monkeypatch):
        compiles = self._count(monkeypatch)
        spec = ExactSolutionSpec("harmonic", parameter_set({"omega": 1.15625}, 2),
                                 (0.40625, 0.40625), (0.5, 0.5))
        x, _, _ = kinematics(spec, 0.75)
        assert len(compiles) == 1 and compiles[0][0] is compiles[0][1] and x[0] == x[1]


@pytest.mark.parametrize("text,domain", [
    ("1/(1+x^2)", (-math.inf, math.inf)),
    ("1/(1-0.5*x^2)", (-1.2, 1.2)),
    ("x-1", (-math.inf, math.inf)),            # m < 0 below x = 1
    ("exp(x)*ln(x)", (-math.inf, 700.0)),      # m < 0 below 1, ln domain, overflow
    ("1/x+sin(x*1e300*1e300)", (-math.inf, math.inf)),  # division by zero, sin(inf)
])
@given(xs=st.lists(_xs, max_size=6))
@example(xs=[2.0, 0.5, math.nan])
@example(xs=[2.0, 0.0, -1.0])
@example(xs=[1.5, 1e200, 0.5])
# the domain check inside the batch loop: a boundary, +-inf and NaN
@example(xs=[0.5, 1.2, math.nan])
@example(xs=[-1.2, 0.5])
@example(xs=[0.5, math.inf, -1.0])
@example(xs=[0.5, -math.inf])
@settings(max_examples=60, deadline=None)
def test_batch_mass_is_eval_at_each_x(text, domain, xs):
    profile = CustomProfile.from_text(text, domain)
    for order in (0, 1):
        assert (_bits(profile.eval_many, xs, order)
                == _bits(lambda: [profile.eval(x, order) for x in xs])), order


def oracle_energy(pot):
    """V(x) as the potential energy was computed before its generated kernel:
    for each coordinate in turn the domain and pole checks and the term's
    value-only kernel, summed from 0.0; a DomainViolation unless finite."""
    terms = tuple(exprparse.compile_expression(e, order=0) for e in pot.exprs)
    (lo, hi), pole = pot.domain, pot.pole

    def energy(x):
        total = 0.0
        for i, (term, xi) in enumerate(zip(terms, x)):
            if not lo < xi < hi:
                raise DomainViolation(f"x_{i + 1}={xi!r} outside the domain ({lo}, {hi})",
                                      coordinate=i)
            if xi == pole:
                raise SingularPoint(f"potential singular at x_{i + 1} = {xi!r}", i)
            total += term(xi, 1.0)
        if not math.isfinite(total):
            raise DomainViolation(f"potential energy V={total!r} is not finite at x={x}")
        return total
    return energy


_ENERGIES = {
    "ml1-": ("ml1", 2, {"omega": [1.0, 2.0], "lambda": 0.6, "sign": "-"}),   # domain
    "isotonic": ("isotonic", 2, {"omega": [1.0, 2.0], "kappa": [1.0, 0.5]}),  # pole
    "harmonic": ("harmonic", 3, {"omega": [1.0, 2.0, 0.5]}),                # overflow
}


@pytest.mark.parametrize("name", sorted(_ENERGIES) + ["custom"])
@given(points=st.lists(st.lists(_xs, min_size=3, max_size=3), max_size=5))
@example(points=[[1.0, 1.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, -1.0]])
@example(points=[[1.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.5, 1e200, 1.0]])
# the domain and pole checks: -0.0 against the pole 0.0, the '-' branch's
# boundary, +-inf and NaN, in a later column first
@example(points=[[1.0, 1.0, 1.0], [1.0, -0.0, 1.0], [-0.0, 1.0, 1.0]])
@example(points=[[1.0, 1.0, 1.0], [0.5, 1 / math.sqrt(0.6), 1.0], [math.nan, 0.5, 1.0]])
@example(points=[[1.0, math.inf, 1.0], [-math.inf, 1.0, 1.0]])
@example(points=[[0.5, 0.5, math.nan], [0.5, 0.5, 0.5]])
# a sum that is not finite; a guard error in coordinate 0 (custom: 1/0)
# ahead of a failed check in coordinate 1
@example(points=[[0.5, 0.5, 0.5], [1e200, 1e200, 1e200]])
@example(points=[[0.5, 0.5, 0.5], [0.0, math.nan, 0.5]])
@settings(max_examples=60, deadline=None)
def test_batch_energy_is_energy_at_each_point(name, points):
    if name == "custom":   # division by zero, sin(inf), a ln domain error
        system = build_system("custom", 3, mass_exprs=["1"] * 3,
                              potential_exprs=["1/x", "sin(x*1e300*1e300)", "ln(x)"])
    else:
        family, n, params = _ENERGIES[name]
        system = build_system(family, n, params)
    rows = [row[:system.n] for row in points]
    pot, oracle = system.potential, oracle_energy(system.potential)
    want = _bits(lambda: [oracle(x) for x in rows])
    assert _bits(lambda: [pot.energies((x,))[0] for x in rows]) == want
    assert _bits(lambda: [potential_energy(system, x) for x in rows]) == want
    assert _bits(pot.energies, rows) == want
    assert _bits(pot.energies, zip(*zip(*rows))) == want   # tuples, as potential-match passes


class TestPotentialKernelCompiles:
    # parameters no other test uses, so every expression is parsed afresh
    PARAMS = {"omega": [1.1875, 2.375], "kappa": [0.8125, 0.4375]}

    def test_one_per_key_and_none_for_a_rebuilt_system(self, monkeypatch):
        compiles = []
        real = exprparse._compile_potential
        monkeypatch.setattr(exprparse, "_compile_potential",
                            lambda *key: compiles.append(key) or real(*key))
        system = build_system("isotonic", 2, self.PARAMS)
        pot = system.potential
        assert compiles == []
        state = State.of(0.0, [0.5, 0.75], [0.25, -0.5])
        for _ in range(2):
            potential_energy(system, [0.5, 0.75])
            pot.energies([(0.5, 0.75), (1.0, 1.5)])
            total_energy(system, state)
        assert compiles == [(pot.exprs, pot.domain, pot.pole, 0)]
        for _ in range(2):
            potential_gradient(system, [0.5, 0.75])
            pot.gradients([(0.5, 0.75), (1.0, 1.5)])
        assert compiles == [(pot.exprs, pot.domain, pot.pole, order) for order in (0, 1)]
        # a rebuilt system shares the parsed terms and so the kernels
        again = build_system("isotonic", 2, self.PARAMS)
        assert again.potential.exprs[0] is pot.exprs[0]
        assert potential_energy(again, [0.5, 0.75]) == potential_energy(system, [0.5, 0.75])
        assert (potential_gradient(again, [0.5, 0.75]).tolist()
                == potential_gradient(system, [0.5, 0.75]).tolist())
        assert len(compiles) == 2
        # every key part counts
        first = exprparse.compile_potential(*compiles[0])
        for changed in ((pot.exprs[:1], pot.domain, pot.pole, 0),
                        (pot.exprs, (-1.0, 1.0), pot.pole, 0), (pot.exprs, pot.domain, None, 0)):
            assert exprparse.compile_potential(*changed) is not first
        assert exprparse.compile_potential(*compiles[1]) is not first
        assert len(compiles) == 5


def oracle_gradient(system):
    """dV/dx as potential_gradient computed it before its generated kernel:
    every coordinate's domain and pole check first, raising what the energy
    raises at the first failing point, then each term's order-1 kernel."""
    pot = system.potential
    (lo, hi), pole = pot.domain, pot.pole
    terms = tuple(exprparse.compile_expression(e, order=1) for e in pot.exprs)
    energy = oracle_energy(pot)

    def gradient(x):
        xs = [float(xi) for xi in x]
        if not all(lo < xi < hi and xi != pole for xi in xs):
            energy(xs)  # raises the first coordinate's error
        return [term(xi, 1.0)[1] for term, xi in zip(terms, xs)]
    return gradient


#: division by zero, sin(inf) and a ln domain error, one per coordinate
_CUSTOM_POTENTIAL = ["1/x", "sin(x*1e300*1e300)", "ln(x)"]


@pytest.mark.parametrize("name,n", CASES + [("custom", n) for n in (1, 2, 3)])
@given(points=st.lists(st.lists(_xs, min_size=3, max_size=3), min_size=1, max_size=5))
@example(points=[[0.5, 0.5, 0.5], [0.0, 0.5, 0.5], [0.5, 1.3, -0.0], [math.nan, 0.0, 1e200]])
@settings(max_examples=25, deadline=None)
def test_potential_gradient_is_the_checked_per_term_gradient(name, n, points):
    if name == "custom":
        system = build_system("custom", n, mass_exprs=["1"] * n,
                              potential_exprs=_CUSTOM_POTENTIAL[:n])
    else:
        system = _system(name, n)
    oracle = oracle_gradient(system)
    for row in points:
        x = row[:n]
        assert (_bits(lambda: [potential_gradient(system, x).tolist()])
                == _bits(lambda: [oracle(x)]))


def _no_replay(*args, **kwargs):
    raise AssertionError("a failed check re-ran an evaluation to learn its error")


def _rhs_at(system):
    """The system's potential and x -> its right-hand side at x."""
    rhs = (el2_rhs if system.kind == TYPE2 else el1_rhs)(system)
    return system.potential, lambda x: rhs(0.0, x, [0.1, 0.2])


def _gradient_at(system):
    return system.potential, lambda x: potential_gradient(system, x)


def _energy_at(system):
    return system.potential, lambda x: total_energy(system, State.of(0.0, x, [0.1, 0.2]))


_ML1_DOMAIN = "(-1.2909944487358056, 1.2909944487358056)"
_ML1M = {"omega": [1.0, 2.0], "lambda": 0.6, "sign": "-"}
_ISOTONIC = {"omega": [1.0, 2.0], "kappa": [1.0, 0.5]}


class TestOneFailurePath:
    """Each failed check's fail raises from the value the check saw: with the
    profile's eval and value and the potential's energies replaced once the
    kernels are built, every failure still raises its own error."""

    CASES = {   # (potential, call), a good x, a bad x, what the call raises there
        "type1 singular coefficient": (
            lambda: _rhs_at(build_system("powerlaw", 2, {"omega": [1.0, 1.7], "alpha": 1.2,
                                                         "upsilon": 1.5})),
            [0.5, 0.5], [0.5, 0.0],
            SingularCoefficient, "m'/m and 1/m diverge at x_2 = 0.0", 1),
        "type1 outside the domain": (
            lambda: _rhs_at(build_system("ml1", 2, _ML1M)), [0.2, 0.3], [0.2, 1.3],
            DomainViolation, f"x_2=1.3 outside the domain {_ML1_DOMAIN}", 1),
        "type1 at the pole": (
            lambda: _rhs_at(build_system("isotonic", 2, _ISOTONIC)), [0.7, 0.5], [0.7, 0.0],
            SingularPoint, "potential singular at x_2 = 0.0", 1),
        "type1 m < 0": (
            lambda: _rhs_at(build_system("custom", 2, mass_exprs=["1", "1-x^2"],
                                         potential_exprs=["0.5*x^2"] * 2)),
            [0.5, 0.5], [0.5, 2.0],
            DomainViolation, "profile '1-x^2' is -3.0 < 0 at x=2.0", None),
        "type2 m <= 0": (
            lambda: _rhs_at(build_system("custom", 2, mass_exprs=["x1+x2"],
                                         potential_exprs=["0.5*x^2"] * 2, kind=TYPE2)),
            [1.0, 0.5], [-1.0, 0.5],
            DomainViolation, "coupled profile 'x1+x2' is -0.5 <= 0 at [-1.0, 0.5]", None),
        "type2 outside the domain": (
            lambda: _rhs_at(build_system("custom", 2, mass_exprs=["x1+x2"],
                                         potential_exprs=["0.5*x^2"] * 2, kind=TYPE2)),
            [1.0, 0.5], [1.0, math.nan],
            DomainViolation, "x_2=nan outside the domain (-inf, inf)", 1),
        "map outside the domain": (
            lambda: (None, reference_map(_system("ml1-", 1))[0].batches[0]), [0.5], [0.5, 1.3],
            DomainViolation, f"x=1.3 outside the domain {_ML1_DOMAIN} "
                             f"of profile '1/(1+(-1.0)*0.6*x^2)'", None),
        "map m < 0": (
            lambda: (None, _custom_map("x-1").batches[0]), [1.5], [1.5, 0.5],
            DomainViolation, "profile 'x-1' is -0.5 < 0 at x=0.5", None),
        "gradient outside the domain": (
            lambda: _gradient_at(build_system("ml1", 2, _ML1M)), [0.2, 0.3], [0.2, 1.3],
            DomainViolation, f"x_2=1.3 outside the domain {_ML1_DOMAIN}", 1),
        "gradient at the pole": (
            lambda: _gradient_at(build_system("isotonic", 2, _ISOTONIC)), [0.7, 0.5],
            [0.7, 0.0], SingularPoint, "potential singular at x_2 = 0.0", 1),
        "energy outside the mass's domain": (
            lambda: _energy_at(build_system("ml1", 2, _ML1M)), [0.2, 0.3], [0.2, 1.3],
            DomainViolation, f"x=1.3 outside the domain {_ML1_DOMAIN} "
                             f"of profile '1/(1+(-1.0)*0.6*x^2)'", None),
        "energy at the pole": (
            lambda: _energy_at(build_system("isotonic", 2, _ISOTONIC)), [0.7, 0.5],
            [0.7, 0.0], SingularPoint, "potential singular at x_2 = 0.0", 1),
        "energy type1 m < 0": (
            lambda: _energy_at(build_system("custom", 2, mass_exprs=["1", "1-x^2"],
                                            potential_exprs=["0.5*x^2"] * 2)),
            [0.5, 0.5], [0.5, 2.0],
            DomainViolation, "profile '1-x^2' is -3.0 < 0 at x=2.0", None),
        "energy type2 m <= 0": (
            lambda: _energy_at(build_system("custom", 2, mass_exprs=["x1+x2"],
                                            potential_exprs=["0.5*x^2"] * 2, kind=TYPE2)),
            [1.0, 0.5], [-1.0, 0.5],
            DomainViolation, "coupled profile 'x1+x2' is -0.5 <= 0 at [-1.0, 0.5]", None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_fail_reruns_an_evaluation(self, case, monkeypatch):
        make, good, bad, error, message, coordinate = self.CASES[case]
        pot, call = make()
        call(good)   # builds the kernels
        monkeypatch.setattr(CustomProfile, "eval", _no_replay)
        monkeypatch.setattr(CoupledProfile, "value", _no_replay)
        if pot is not None:
            monkeypatch.setitem(vars(pot), "energies", _no_replay)
        with pytest.raises(error) as err:
            call(bad)
        assert (str(err.value), getattr(err.value, "coordinate", None)) == (message, coordinate)


@pytest.mark.parametrize("name,n", CASES)
@given(points=st.lists(st.lists(_xs, min_size=3, max_size=3), min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_potential_match_residual_is_the_point_residual_at_each_x(name, n, points):
    system = _system(name, n)
    nmap, ref = reference_map(system)
    rows = [row[:n] for row in points]
    q_of = [oracle_q(nmap, i) for i in range(n)]

    def residual(x):
        q = [q_of[i](xi) for i, xi in enumerate(x)]
        return abs(potential_energy(system, x) - potential_energy(ref, q))

    def batch_by_batch():
        """Each batch point by point: the map coordinate by coordinate, then
        V, then V_ref, so the first failing batch raises at its first
        failing point."""
        qs = [[q_of[i](x[i]) for x in rows] for i in range(n)]
        energies = [potential_energy(system, x) for x in rows]
        ref_energies = [potential_energy(ref, q) for q in zip(*qs)]
        return [abs(v - v_ref) for v, v_ref in zip(energies, ref_energies)]
    assert_oracle_outcome(_bits(potential_match_residual, nmap, system, ref, rows),
                          _bits(batch_by_batch))
    # the rows that pass alone give their point-by-point residual
    good = [x for x in rows if isinstance(_bits(lambda: [residual(x)]), bytes)]
    if good:
        assert (_bits(potential_match_residual, nmap, system, ref, good)
                == _bits(lambda: [residual(x) for x in good]))


# --- the closed-form grid against the per-sample loop -----------------------------


def trajectory_by_sample(spec, t0, t1, samples):
    """exact_trajectory's (t, x, v, a) as it was built before its column loop:
    one kinematics call per sample, assigned row by row."""
    ts = np.linspace(t0, t1, samples)
    xs, vs, accs = np.empty((3, samples, spec.n))
    for k, t in enumerate(map(float, ts)):
        xs[k], vs[k], accs[k] = kinematics(spec, t)
    return ts, xs, vs, accs


def _grid_outcome(fn):
    """Each array's shape, strides and bytes, or the exception's type and message."""
    try:
        out = fn()
    except Exception as err:
        return type(err), str(err)
    return [(a.shape, a.strides, a.tobytes()) for a in out]


# family, parameters at n = 3 (n < 3 takes the leading entries), amplitudes and
# variant; the power-law orbit leaves its branch within a quarter period, the
# huge frequency overflows the acceleration, and the tiny inverse-square
# amplitude leaves a closed form that is not finite
GRIDS = {
    "ml1+": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "+"},
             (1.0, 0.5, 2.0), "published"),
    "ml1-": ("ml1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "-"},
             (0.5, 1.0, 0.25), "published"),
    "ml2": ("ml2", {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "-",
                    "eta_const": [2.0, -2.0, 2.0]}, (1.0, 0.5, 1.5), "published"),
    "powerlaw": ("powerlaw", {"omega": [1.0, 1.7, 0.6], "alpha": 1.2, "upsilon": 1.5},
                 (1.0, 0.5, 2.0), "published"),
    "morse": ("morse", {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
              (0.5, -0.3, 0.9), "published"),
    "sw1": ("sw1", {"omega": [1.0, 2.0, 0.7], "lambda": 0.5, "sign": "+",
                    "kappa": [0.3, 0.8, 0.5]}, (1.0, 0.7, 1.5), "published"),
    "sw2": ("sw2", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3], "beta": 1.3,
                    "eta_exp": 2.0}, (1.0, 0.7, 1.5), "amended"),
    "isotonic": ("isotonic", {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3]},
                 (1.0, 0.7, 1e-160), "published"),
    "harmonic": ("harmonic", {"omega": [1.0, 2.0, 1e200]}, (1.0, 0.5, 2.0), "published"),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("n", [1, 2, 3])
@given(t0=st.floats(-30.0, 30.0), span=st.one_of(st.floats(0.0, 30.0), st.just(1.7e308)),
       samples=st.integers(1, 40))
@example(t0=-0.1, span=0.2, samples=11)     # inside the power-law branch
@settings(max_examples=25, deadline=None)
def test_exact_trajectory_is_the_per_sample_grid(name, n, t0, span, samples):
    family, params, amplitude, variant = GRIDS[name]
    spec = ExactSolutionSpec(family, parameter_set({k: v[:n] if k in VECTORS else v
                                                    for k, v in params.items()}, n),
                             amplitude[:n], variant=variant)
    t1 = t0 + span
    want = _grid_outcome(lambda: trajectory_by_sample(spec, t0, t1, samples))

    def grid():
        traj = exact_trajectory(spec, t0, t1, samples)
        return traj.t, traj.x, traj.v, traj.a
    assert _grid_outcome(grid) == want


# --- the inverse-square closed form against numpy ---------------------------------


def _sqrt_shape_numpy(theta_dot, num_s, num_c, denom, rho, t, phase):
    """x = u^rho with u = (num_s sin^2 + num_c cos^2)/denom, theta = theta_dot t
    + phase, and its hand-derived first two derivatives in t, on one-element
    numpy arrays; numpy's power rounds differently from libm's."""
    th = theta_dot * np.array([t]) + phase
    s2 = np.sin(th) ** 2
    u = (num_c + (num_s - num_c) * s2) / denom
    ud = (num_s - num_c) * np.sin(2.0 * th) * theta_dot / denom
    udd = (num_s - num_c) * 2.0 * np.cos(2.0 * th) * theta_dot ** 2 / denom
    x = u ** rho
    xd = rho * u ** (rho - 1.0) * ud
    xdd = rho * (rho - 1.0) * u ** (rho - 2.0) * ud * ud + rho * u ** (rho - 1.0) * udd
    return x[0], xd[0], xdd[0]


@pytest.mark.parametrize("rho", [0.5, 0.25, -0.5, -0.25])
def test_sqrt_shape_matches_the_numpy_evaluation(rho):
    # the shape template with one coordinate's values substituted and compiled
    # in t, as ExactSolutionSpec.forms does; num_s = rate^2 A^4
    theta_dot, num_c, denom, A, rate, phase = 1.3, 0.7, 1.7, 1.1, 1.05, 0.4
    text = _substitute(_inverse_square_form("kappa", repr(theta_dot), repr(denom), repr(rho)),
                       parameter_set({"omega": 1.0, "kappa": num_c}, 1), 0,
                       A=A, rate=rate, phase=phase)
    kernel = exprparse.compile_expression(exprparse.parse_cached(text, ("t",)), ("t",))
    rng = np.random.default_rng(7)
    ts = rng.uniform(-20.0, 20.0, 2000).tolist()
    got = np.array([kernel(t, 1.0) for t in ts])
    want = np.array([_sqrt_shape_numpy(theta_dot, rate * rate * A ** 4, num_c, denom, rho,
                                       t, phase) for t in ts])
    # a few ulps of each column's scale: xddot sums two terms that cancel
    # near its zeros, where the last bits move but not the scale
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


# --- closed forms that are not finite ---------------------------------------------


TINY = [("isotonic", {"omega": [1.0], "kappa": [1.0]}, "published")] + [
    ("sw2", {"omega": [1.0], "kappa": [1.0], "beta": 1.0, "eta_exp": eta}, variant)
    for eta in (2.0, -1.0) for variant in ("published", "amended")]


@pytest.mark.parametrize("family,params,variant", TINY)
@pytest.mark.parametrize("t", [0.0, 0.3, 1e10])
def test_non_finite_closed_form_is_an_invalid_spec(family, params, variant, t):
    spec = ExactSolutionSpec(family, parameter_set(params, 1), (1e-160,), variant=variant)
    with pytest.raises(InvalidSpec):
        kinematics(spec, t)


@pytest.mark.parametrize("variant", ["published", "amended"])
@pytest.mark.parametrize("t", [0.0, 0.3])
def test_overflow_hidden_by_a_negative_exponent_is_an_invalid_spec(variant, t):
    # u overflows, x = u^(-1/2) reads 0 and the velocity and acceleration stay
    # finite: every returned value is finite, and none of it is the orbit
    params = {"omega": [0.01], "kappa": [1.0], "beta": 1.0, "eta_exp": -1.0}
    spec = ExactSolutionSpec("sw2", parameter_set(params, 1), (1e-153,), variant=variant)
    with pytest.raises(InvalidSpec, match="not finite"):
        kinematics(spec, t)


def test_overflowing_acceleration_is_an_invalid_spec():
    # x and xdot are finite at t = 0; xddot = -A omega^2 overflows to -inf
    spec = ExactSolutionSpec("harmonic", parameter_set({"omega": [1e200]}, 1), (1.0,))
    with pytest.raises(InvalidSpec, match="not finite"):
        kinematics(spec, 0.0)
