"""Parser and dual-number differentiation tests."""

import contextlib
import math
import re
import struct
import sys
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmdyn.core import (TYPE1, TYPE2, VECTORS, State, build_system, potential_energy,
                         potential_gradient, total_energy)
from pdmdyn.eom import el1_rhs, el2_rhs
from pdmdyn.errors import (ExprDomainError, ExprSyntaxError, InvalidParameter, PdmError,
                           UnknownIdentifier)
from pdmdyn.exact import kinematics
from pdmdyn.exprparse import (FUNCTIONS, MAP_COLUMNS, MAX_DEPTH, BinOp, Call, Expr, Neg,
                              Num, Var, compile_expression, eval_dual, eval_gradient,
                              parse_expression, to_source)
from pdmdyn.families import FAMILIES
from pdmdyn.transform import reference_map
from pdmdyn.verify import CASES


# --- reference oracle ---------------------------------------------------------
# The tree walker the compiled code replaced, kept as the reference: the
# compiled code must give the same floats, or raise the same exception with
# the same message.  Deliberate changes, made in both: a float overflow in exp
# or in a power, sin or cos of an infinite value, and a second-derivative
# factor of ln or sqrt whose divisor underflows to 0, are ExprDomainErrors
# here too, where the walker let OverflowError, ValueError and
# ZeroDivisionError out; an integer power beyond 16 squares and multiplies
# instead of multiplying k times; every operation and call on folded
# constants that raises nothing (unary -, +, -, *, / by a non-zero constant,
# sin, cos, exp, ln and sqrt of a value > 0 or NaN, an integer power, a real
# power of a base > 0 or NaN that does not overflow) is folded on their
# values alone, so a folded constant's derivatives are +0.0 whatever its
# value, and an exponent that reads no variable is a folded constant or
# raises.
#
# Known zeros, as the compiled code knows them: a folded constant's
# derivatives and a variable's second derivative are structural zeros
# (None here), and every derivative is a sum of products in which a product
# with a structural zero factor is left out; a sum left empty is a
# structural zero, which reads +0.0.  A derivative above the order
# evaluated is a structural zero too, and a factor f'(u) or f''(u) is
# computed only where a product that is kept reads it, so its error (an
# overflow, say) is raised only there.

@dataclass(frozen=True)
class Dual2:
    """Value with first and second derivative with respect to one seed; a
    derivative None is a structural zero."""

    val: float
    d1: float | None = None
    d2: float | None = None
    known: bool = False  # a folded constant

    @staticmethod
    def seed(x: float, s: float = 1.0) -> "Dual2":
        """A variable at x, seeded by s: its second derivative is a structural zero."""
        return Dual2(float(x), float(s), None)

    @staticmethod
    def folded(c: float) -> "Dual2":
        return Dual2(float(c), None, None, True)


def _total(order: int, k: int, *terms) -> float | None:
    """Derivative k at this order: the sum of the products (sign, factors..)
    left to right, those with a structural zero factor left out; None where
    every product is left out or k is above the order."""
    out = None
    for sign, *factors in terms if k <= order else ():
        if any(f is None for f in factors):
            continue
        prod = factors[0]
        for f in factors[1:]:
            prod = prod * f
        out = (-prod if sign < 0 else prod) if out is None else (
            out - prod if sign < 0 else out + prod)
    return out


def _add(a: Dual2, b: Dual2, order: int, sign: int = 1) -> Dual2:
    if a.known and b.known:
        return Dual2.folded(a.val + b.val if sign > 0 else a.val - b.val)
    return Dual2(a.val + b.val if sign > 0 else a.val - b.val,
                 _total(order, 1, (1, a.d1), (sign, b.d1)),
                 _total(order, 2, (1, a.d2), (sign, b.d2)))


def _mul(a: Dual2, b: Dual2, order: int) -> Dual2:
    if a.known and b.known:
        return Dual2.folded(a.val * b.val)
    return Dual2(a.val * b.val,
                 _total(order, 1, (1, a.d1, b.val), (1, a.val, b.d1)),
                 _total(order, 2, (1, a.d2, b.val), (1, 2.0, a.d1, b.d1), (1, a.val, b.d2)))


def _over(num: float | None, den: float) -> float | None:
    return None if num is None else num / den


def _div(a: Dual2, b: Dual2, where: Expr, order: int) -> Dual2:
    if a.known and b.known and b.val != 0.0:
        return Dual2.folded(a.val / b.val)
    if b.val == 0.0:
        raise ExprDomainError("division by zero", to_source(where))
    q = a.val / b.val
    q1 = _over(_total(order, 1, (1, a.d1), (-1, q, b.d1)), b.val)
    q2 = _over(_total(order, 2, (1, a.d2), (-1, 2.0, q1, b.d1), (-1, q, b.d2)), b.val)
    return Dual2(q, q1, q2)


def _curvature(num: float, den: float, where: Expr) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        raise ExprDomainError("float overflow", to_source(where)) from None


def _chain(u: Dual2, f: float, fp, fpp, order: int) -> Dual2:
    """f(u) given f and the callables fp() = f'(u), fpp() = f''(u), each
    called only where a product that is kept reads it."""
    d1 = order >= 1 and u.d1 is not None
    a = fp() if d1 or order >= 2 and u.d2 is not None else None
    b = fpp() if d1 and order >= 2 else None
    return Dual2(f, _total(order, 1, (1, a, u.d1)),
                 _total(order, 2, (1, b, u.d1, u.d1), (1, a, u.d2)))


def _int_pow(u: Dual2, k: int, where: Expr, order: int) -> Dual2:
    """u^k for an integer k fixed when the kernel is generated: up to 16
    factors one at a time, beyond that by square-and-multiply."""
    if k == 0:
        return Dual2.folded(1.0)
    n = abs(k)
    if n <= 16:
        out = u
        for _ in range(n - 1):
            out = _mul(out, u, order)
    else:
        out = None
        while n:
            if n & 1:
                out = u if out is None else _mul(out, u, order)
            u, n = _mul(u, u, order), n >> 1
    return _div(Dual2.folded(1.0), out, where, order) if k < 0 else out


def _reads_variable(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, BinOp):
        return _reads_variable(e.left) or _reads_variable(e.right)
    return isinstance(e, (Neg, Call)) and _reads_variable(e.arg)


def _overflow_guarded(fn, where: Expr):
    """fn() with a float overflow as the kernel's typed domain error."""
    def guarded():
        try:
            return fn()
        except OverflowError:
            raise ExprDomainError("float overflow", to_source(where)) from None
    return guarded


def _pow(a: Dual2, b: Dual2, where: BinOp, order: int) -> Dual2:
    # the rule follows the exponent's tree, never its derivatives
    if _reads_variable(where.right):
        if a.val <= 0.0:
            raise ExprDomainError("varying power of a non-positive base", to_source(where))
        ln_a = _chain(a, math.log(a.val), lambda: 1.0 / a.val,
                      lambda: _curvature(-1.0, a.val * a.val, where), order)
        return _exp(_mul(b, ln_a, order), where, order)
    # an exponent that reads no variable folded: its evaluation raised otherwise
    assert b.known
    if float(b.val).is_integer():
        # repeated multiplication keeps negative bases exact and real
        return _int_pow(a, int(b.val), where, order)
    if a.known and not a.val <= 0.0:
        with contextlib.suppress(OverflowError):
            return Dual2.folded(a.val ** b.val)
    if a.val <= 0.0:
        raise ExprDomainError(
            "non-integer power of a non-positive base", to_source(where))
    p = b.val
    return _chain(a, _overflow_guarded(lambda: a.val ** p, where)(),
                  _overflow_guarded(lambda: p * a.val ** (p - 1.0), where),
                  _overflow_guarded(lambda: p * (p - 1.0) * a.val ** (p - 2.0), where), order)


def _exp(u: Dual2, where: Expr, order: int) -> Dual2:
    try:
        e = math.exp(u.val)
    except OverflowError:
        raise ExprDomainError("float overflow", to_source(where)) from None
    return _chain(u, e, lambda: e, lambda: e, order)


def _eval(e: Expr, env: dict[str, Dual2], order: int = 2) -> Dual2:
    if isinstance(e, Num):
        return Dual2.folded(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        u = _eval(e.arg, env, order)
        return Dual2.folded(-u.val) if u.known else Dual2(
            -u.val, _total(order, 1, (-1, u.d1)), _total(order, 2, (-1, u.d2)))
    if isinstance(e, Call):
        u = _eval(e.arg, env, order)
        if u.known and not (e.fn in ("ln", "sqrt") and u.val <= 0.0):
            fn = math.log if e.fn == "ln" else getattr(math, e.fn)
            with contextlib.suppress(OverflowError, ValueError):
                return Dual2.folded(fn(u.val))
        if e.fn in ("sin", "cos"):
            try:
                s = math.sin(u.val)
            except ValueError:
                raise ExprDomainError(f"{e.fn} of an infinite value",
                                      to_source(e)) from None
            if e.fn == "sin":
                return _chain(u, s, lambda: math.cos(u.val), lambda: -s, order)
            c = math.cos(u.val)
            return _chain(u, c, lambda: -s, lambda: -c, order)
        if e.fn == "exp":
            return _exp(u, e, order)
        if e.fn == "ln":
            if u.val <= 0.0:
                raise ExprDomainError("ln of a non-positive value", to_source(e))
            return _chain(u, math.log(u.val), lambda: 1.0 / u.val,
                          lambda: _curvature(-1.0, u.val * u.val, e), order)
        if e.fn == "sqrt":
            if u.val <= 0.0:
                raise ExprDomainError("sqrt of a non-positive value", to_source(e))
            r = math.sqrt(u.val)
            return _chain(u, r, lambda: 0.5 / r, lambda: _curvature(-0.25, u.val * r, e), order)
        raise AssertionError(f"unreachable function {e.fn}")
    assert isinstance(e, BinOp)
    # a power whose exponent folds to 0 is the constant 1: no line reads its base
    a = (_checks(e.left, env) if e.op == "^" and _folded(e.right) == 0.0
         else _eval(e.left, env, order))
    b = _eval(e.right, env, order)
    if e.op in "+-":
        return _add(a, b, order, 1 if e.op == "+" else -1)
    if e.op == "*":
        return _mul(a, b, order)
    if e.op == "/":
        return _div(a, b, e, order)
    return _pow(a, b, e, order)


def _folded(e: Expr) -> float | None:
    """The value e folds to when its kernel is generated, if it does."""
    if _reads_variable(e):
        return None
    try:
        u = _eval(e, {}, 0)
    except ExprDomainError:
        return None
    return u.val if u.known else None


def _checks(e: Expr, env: dict[str, Dual2]) -> Dual2:
    """The checks of e, whose value no line reads (the kernel drops its
    lines): each on the value it reads, at order 0; a nan stands for e."""
    value = lambda u: _eval(u, env, 0)  # noqa: E731 - a value a check reads
    if isinstance(e, (Num, Var)):
        return _eval(e, env)
    if isinstance(e, Call) and e.fn in ("ln", "sqrt"):
        if value(e.arg).val <= 0.0:
            raise ExprDomainError(f"{e.fn} of a non-positive value", to_source(e))
    elif isinstance(e, (Neg, Call)):
        _checks(e.arg, env)
    elif e.op in "+-*":
        _checks(e.left, env)
        _checks(e.right, env)
    elif e.op == "/":
        _checks(e.left, env)
        if value(e.right).val == 0.0:
            raise ExprDomainError("division by zero", to_source(e))
    elif _reads_variable(e.right):
        a = value(e.left)
        _checks(e.right, env)
        if a.val <= 0.0:
            raise ExprDomainError("varying power of a non-positive base", to_source(e))
    elif (k := _folded(e.right)) is not None and k.is_integer():
        if -16 <= k < 0:        # 1 / a^|k|, whose division checks its divisor
            _int_pow(value(e.left), int(k), e, 0)
        else:
            _checks(e.left, env)
    else:                       # a real power: its check reads both operands
        a, _ = value(e.left), value(e.right)
        if a.val <= 0.0:
            raise ExprDomainError("non-integer power of a non-positive base", to_source(e))
    return Dual2(math.nan)


def _floats(u: Dual2, order: int = 2) -> tuple[float, ...]:
    """The value and derivatives up to the order, a structural zero as +0.0."""
    return (u.val, *(0.0 if d is None else d for d in (u.d1, u.d2)[:order]))


def reference_dual(expr: Expr, x: float, order: int = 2, seed: float = 1.0):
    out = _floats(_eval(expr, {"x": Dual2.seed(x, seed)}, order), order)
    return out if order else out[:1]


def reference_gradient(expr: Expr, names, values) -> tuple[float, list[float]]:
    # the kernel holds each direction's seeds: 1 for x_j, a known zero for the rest
    base = {n: Dual2(float(v)) for n, v in zip(names, values)}
    if not names:
        return _eval(expr, base, 0).val, []
    grad = []
    for n, v in zip(names, values):
        env = dict(base)
        env[n] = Dual2.seed(v)
        out = _eval(expr, env, 1)
        val = val if grad else out.val
        grad.append(_floats(out, 1)[1])
    return val, grad


def outcome(fn, *args):
    """Flat tuple of the floats fn returns, or the exception it raises."""
    try:
        out = fn(*args)
    except Exception as err:  # the oracle and the compiled code must agree
        return type(err), str(err)
    flat = []
    for item in out:
        flat.extend(item if isinstance(item, list) else [item])
    # bit patterns: equal floats, signed zeros told apart, every NaN alike
    return tuple("nan" if math.isnan(f) else (f, math.copysign(1.0, f)) for f in flat)


def gradient_with_unseeded_value(expr, names, values):
    """eval_gradient in n + 1 calls: the value from a call with every seed 0,
    then one call per coordinate for its partial derivative."""
    fn = compile_expression(expr, names, 1)
    n = len(names)
    args = [*values, *[0.0] * n]
    val = fn(*args)[0]
    grad = []
    for i in range(n, 2 * n):
        args[i] = 1.0
        grad.append(fn(*args)[1])
        args[i] = 0.0
    return val, grad


def bit_outcome(fn, *args):
    """The bytes of the (value, gradient) fn returns, or the exception it raises."""
    try:
        val, grad = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return struct.pack(f"<{1 + len(grad)}d", val, *grad)


class TestParsing:
    def test_well_formed(self):
        expr = parse_expression("1/(1+x^2)")
        assert eval_dual(expr, 0.0)[0] == 1.0

    def test_unclosed_paren_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression("2*sin(x")
        assert err.value.position == 8  # 1-based column just past the input

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expression("exp(2*z)", ["x"])
        assert err.value.name == "z"

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier) as err:
            parse_expression("tan(x)")
        assert err.value.name == "tan"

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expression("1+2 3")

    @pytest.mark.parametrize("text", [
        "1+", "((x)", "x@2", "sin()", "", "x^", ")x(", "1..2", "* x", "x x",
    ])
    def test_malformed_inputs_yield_positioned_errors(self, text):
        with pytest.raises((ExprSyntaxError, UnknownIdentifier)) as err:
            parse_expression(text)
        assert getattr(err.value, "position", None) is not None

    def test_precedence_unary_minus_vs_power(self):
        # -x^2 parses as -(x^2)
        assert eval_dual(parse_expression("-x^2"), 3.0)[0] == -9.0

    def test_power_right_associative(self):
        assert eval_dual(parse_expression("2^3^2"), 0.0)[0] == 512.0

    def test_negative_exponent(self):
        assert eval_dual(parse_expression("2^-2"), 0.0)[0] == 0.25

    def test_scientific_notation(self):
        assert eval_dual(parse_expression("1.5e2+2E-1"), 0.0)[0] == pytest.approx(150.2)

    def test_multivariate_identifiers(self):
        expr = parse_expression("x1^2+x2^2", ["x1", "x2"])
        val, grad = eval_gradient(expr, ["x1", "x2"], [1.0, 2.0])
        assert val == 5.0
        assert grad == [2.0, 4.0]


class TestDualEvaluation:
    def test_square(self):
        assert eval_dual(parse_expression("x^2"), 3.0) == (9.0, 6.0, 2.0)

    def test_rational(self):
        v, d1, d2 = eval_dual(parse_expression("1/(1+x^2)"), 1.0)
        assert (v, d1, d2) == pytest.approx((0.5, -0.5, 0.5), abs=1e-15)

    def test_sine_at_zero(self):
        assert eval_dual(parse_expression("sin(x)"), 0.0) == (0.0, 1.0, 0.0)

    def test_exp_chain(self):
        v, d1, d2 = eval_dual(parse_expression("exp(2*x)"), 0.0)
        assert (v, d1, d2) == pytest.approx((1.0, 2.0, 4.0))

    def test_sqrt_and_ln(self):
        v, d1, d2 = eval_dual(parse_expression("ln(sqrt(x))"), 4.0)
        assert v == pytest.approx(math.log(2.0))
        assert d1 == pytest.approx(1 / 8)
        assert d2 == pytest.approx(-1 / 32)

    def test_negative_base_integer_power(self):
        v, d1, _ = eval_dual(parse_expression("x^3"), -2.0)
        assert (v, d1) == (-8.0, 12.0)

    def test_negative_base_fractional_power_rejected(self):
        with pytest.raises(ExprDomainError):
            eval_dual(parse_expression("x^0.5"), -2.0)

    def test_division_by_zero_names_subexpression(self):
        with pytest.raises(ExprDomainError) as err:
            eval_dual(parse_expression("1/(x-1)"), 1.0)
        assert "x-1" in str(err.value)

    def test_ln_of_negative(self):
        with pytest.raises(ExprDomainError):
            eval_dual(parse_expression("ln(x)"), -1.0)

    def test_sqrt_of_negative(self):
        with pytest.raises(ExprDomainError):
            eval_dual(parse_expression("sqrt(x)"), -1.0)

    def test_variable_power_of_variable(self):
        # x^x = exp(x ln x); d/dx = x^x (ln x + 1)
        v, d1, _ = eval_dual(parse_expression("x^x"), 2.0)
        assert v == pytest.approx(4.0)
        assert d1 == pytest.approx(4.0 * (math.log(2.0) + 1.0))

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("seed", [0.0, 1.0])
    def test_varying_exponent_needs_a_positive_base(self, order, seed):
        # the exponent reads x, so an integer value there is no integer power
        fn = compile_expression(parse_expression("x^x"), ("x",), order)
        with pytest.raises(ExprDomainError,
                           match="^varying power of a non-positive base in 'x\\^x'$"):
            fn(-2.0, seed)

    def test_exponents_that_read_no_variable_keep_their_rule(self):
        assert eval_dual(parse_expression("x^sqrt(4)"), -1.0) == (1.0, -2.0, 2.0)
        p = 2.0 ** 0.5   # 2^0.5 folds to this value by **: x^(2^0.5) is a real power
        assert eval_dual(parse_expression("x^(2^0.5)"), 2.0) == (
            2.0 ** p, p * 2.0 ** (p - 1.0), p * (p - 1.0) * 2.0 ** (p - 2.0))
        assert eval_dual(parse_expression("x^1e300"), 0.5) == (0.0, 0.0, 0.0)


# hypothesis strategy over the grammar's AST
def _exprs(names=("x",), full=False):
    """ASTs over ``names`` with + - * and sin cos exp; full=True adds / ^ ln sqrt."""
    numbers = st.floats(min_value=0.1, max_value=4.0,
                        allow_nan=False, allow_infinity=False)
    if full:
        numbers = numbers | st.sampled_from([0.0, 1.0, 2.0, 3.0])
    leaves = st.one_of(st.builds(Num, numbers), st.sampled_from([Var(n) for n in names]))
    ops = ["+", "-", "*", "/"] if full else ["+", "-", "*"]
    fns = FUNCTIONS if full else ["sin", "cos", "exp"]
    # an integer-valued exponent runs that many multiplications, so exponents
    # stay small: a leaf, a negated leaf or one operation on two leaves
    exponents = st.one_of(leaves, st.builds(Neg, leaves),
                          st.builds(lambda a, b, op: BinOp(op, a, b), leaves, leaves,
                                    st.sampled_from(["+", "-", "*"])))

    def extend(children):
        branches = [
            st.builds(Neg, children),
            st.builds(lambda a, b, op: BinOp(op, a, b), children, children,
                      st.sampled_from(ops)),
            st.builds(lambda a, fn: Call(fn, a), children, st.sampled_from(fns)),
        ]
        if full:
            branches.append(st.builds(lambda a, b: BinOp("^", a, b), children, exponents))
        return st.one_of(branches)

    return st.recursive(leaves, extend, max_leaves=12)


_points = st.one_of(st.floats(min_value=-3.0, max_value=3.0,
                              allow_nan=False, allow_infinity=False),
                    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5]))


class TestProperties:
    @given(_exprs())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip(self, expr):
        assert parse_expression(to_source(expr), ["x"]) == expr

    @given(_exprs(), st.floats(min_value=-1.2, max_value=1.2,
                               allow_nan=False, allow_infinity=False))
    @example(Call("sin", Call("exp", BinOp("*", Num(3.0), Var("x")))), 1.0)
    @settings(max_examples=150, deadline=None)
    def test_first_derivative_matches_differences(self, expr, x):
        try:
            val, d1, _ = eval_dual(expr, x)
        except ExprDomainError:
            return
        # the five-point stencil's own error is about h^4 |f^(5)| / 30: at
        # h = 1e-3 it reaches the 2e-5 tolerance for sin(exp(3x)) at x = 1
        h = 1e-4
        try:
            vals = [eval_dual(expr, x + k * h)[0] for k in (-2, -1, 1, 2)]
        except ExprDomainError:
            return
        if any(abs(v) > 1e4 for v in vals):
            return
        fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
        assert d1 == pytest.approx(fd, rel=1e-6, abs=1e-6 * max(1.0, abs(val)))

    @given(st.text(max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_parsing_is_total(self, text):
        try:
            parse_expression(text, ["x"])
        except (ExprSyntaxError, UnknownIdentifier):
            pass  # positioned failure is the contract


class TestDual2:
    def test_seed_and_const(self):
        assert Dual2.seed(2.0) == Dual2(2.0, 1.0, None)
        assert Dual2.seed(2.0, 0.0) == Dual2(2.0, 0.0, None)
        assert Dual2.folded(3.0) == Dual2(3.0, None, None, True)


class TestCompiledMatchesReference:
    @given(_exprs(full=True), _points)
    @settings(max_examples=400, deadline=None)
    def test_eval_dual(self, expr, x):
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)

    @given(_exprs(("x1", "x2", "x3"), full=True), st.lists(_points, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    # x2's derivative factor overflows, but only in x2's direction, after x1^1.5's check
    @example(parse_expression("-x1+(x2^(-0.75)+x1^1.5)", ["x1", "x2", "x3"]),
             [0.0, 3.151280749365539e-204, 0.0])
    def test_eval_gradient(self, expr, xs):
        names = ["x1", "x2", "x3"]
        assert (outcome(eval_gradient, expr, names, xs)
                == outcome(reference_gradient, expr, names, xs))
        # the value alone, with every seed 0
        assert (outcome(lambda: [compile_expression(expr, names)(*xs, 0.0, 0.0, 0.0)[0]])
                == outcome(lambda: [_eval(expr, {k: Dual2.seed(v, 0.0)
                                                 for k, v in zip(names, xs)}).val]))

    @given(st.sampled_from([st.tuples(_exprs(tuple(f"x{i + 1}" for i in range(n)), full=True),
                                      st.lists(_points, min_size=n, max_size=n))
                            for n in (1, 2, 3, 4)]).flatmap(lambda case: case))
    @example((parse_expression("ln(x1)*x2", ["x1", "x2"]), [-1.0, 2.0]))
    @example((parse_expression("x2/x1+sqrt(x3)", ["x1", "x2", "x3"]), [0.0, 1.0, 4.0]))
    @example((parse_expression("exp(x4*x1)^x2", ["x1", "x2", "x3", "x4"]), [3.0, 2.0, 1.0, 300.0]))
    @settings(max_examples=300, deadline=None)
    def test_eval_gradient_matches_the_unseeded_value_form(self, case):
        # the value comes from the first seeded call: bit for bit, errors too;
        # so does each partial derivative, but where the kernel's held seeds
        # fold a zero product that the seeded call computes: the sign of a
        # zero, or a number where the seeded call's inf * 0 is a NaN
        expr, xs = case
        names = [f"x{i + 1}" for i in range(len(xs))]
        got, want = (bit_outcome(fn, expr, names, xs)
                     for fn in (eval_gradient, gradient_with_unseeded_value))
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want
            return
        assert got[:8] == want[:8]
        for g, w in zip(struct.unpack(f"<{len(xs)}d", got[8:]),
                        struct.unpack(f"<{len(xs)}d", want[8:])):
            assert struct.pack("<d", g) == struct.pack("<d", w) or math.isnan(w) or g == w == 0.0

    @pytest.mark.parametrize("names,values,message", [
        (["x1", "x2"], [1.0], "values: expected 2 coordinates, got 1"),
        (["x1", "x2"], [1.0, 2.0, 3.0], "values: expected 2 coordinates, got 3"),
        (["x1", "x2"], [1.0, None], "values: expected numbers, got [1.0, None]"),
        (["x1", "x2"], ["a", 2.0], "values: expected numbers, got ['a', 2.0]"),
        (["x1", "x2"], [1.0, 1 + 1j], "values: expected numbers, got [1.0, (1+1j)]"),
        (["x1", "x2"], None, "values: expected numbers, got None"),
        (["x1"], [1.0], "names: 'x2' is not among the variables"),
    ])
    def test_eval_gradient_wrong_number_of_values(self, names, values, message):
        expr = parse_expression("x1*x2", ["x1", "x2"])
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            eval_gradient(expr, names, values)

    @pytest.mark.parametrize("call,x,message", [
        (lambda x: eval_dual(parse_expression("x^2"), x), "a", "x: expected a number, got 'a'"),
        (lambda x: eval_dual(parse_expression("x^2"), x), None, "x: expected a number, got None"),
        (lambda x: eval_dual(parse_expression("x^2"), x), 10 ** 400,
         f"x: expected a number, got {10 ** 400!r}"),
        (lambda x: eval_dual(x, 1), "x", "expr: expected an expression, got 'x'"),
        (lambda x: eval_gradient(x, [], []), "x", "expr: expected an expression, got 'x'"),
        (parse_expression, None, "text: expected a string, got None"),
        (parse_expression, b"x", "text: expected a string, got b'x'"),
        (lambda x: parse_expression("x", x), None, "variables: expected a list of names, got None"),
        (to_source, None, "expr: expected an expression, got None"),
        (to_source, BinOp("+", Var("x"), None), "expr: expected an expression, got None"),
    ])
    def test_eval_dual_needs_a_number(self, call, x, message):
        # and each export's other arguments their types
        with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
            call(x)

    def test_eval_gradient_of_no_variables(self):
        expr = parse_expression("2*3")
        assert eval_gradient(expr, [], []) == gradient_with_unseeded_value(expr, [], []) \
            == (6.0, [])

    @pytest.mark.parametrize("text,x", [
        ("1e999", 0.5),             # inf: a bound constant, never source text
        ("x*1e999", 0.5),
        ("x*1e999", 0.0),           # 0 * inf
        ("x+1e999*2", 1.0),         # a folded inf: its derivatives are 0, not NaN
        ("x*-1", 0.5),              # a folded negative constant: +0.0 derivatives
        ("(-1)^20*x", 0.5),         # an integer power of a folded base folds
        ("-1e999^x", 2.0),
        ("2^-2", 0.0),
        ("x^-2", 0.0),              # 1 / x^2 at x = 0
        ("x^x", 2.0),
        ("x^x", -2.0),              # a varying exponent: no integer power
        ("x^x", -1.5),
        ("x^x", 800.0),             # exp(x ln x) overflows
        ("x^0.5", -2.0),
        ("x^1.5", 1e300),           # ** overflows
        ("x^(-1.5)", 5e-324),
        ("x^20", 1.1),              # beyond the unrolled powers
        ("x^-20", 0.0),
        ("(x-x)^(x-1)", 0.5),
        ("1/(x-1)", 1.0),
        ("exp(x)", 720.0),
        ("-exp(x)", 709.0),
        ("sin(x*1e999)", 1.0),      # math.sin(inf): a domain error on both
        ("cos(-x*1e999)", 1.0),
        ("x^1e300", 0.5),           # square-and-multiply, about 2000 products
        ("x^(x^(x^x))", 3.0),
        ("x^17", -1.3),
        ("x^-33", 1.01),
        ("ln(x)+sqrt(x)", 0.0),
        ("x^0*ln(x)", -1.0),
        ("ln(x)", 5e-324),          # -1/x^2 overflows: x*x underflows to 0
        ("sqrt(x)", 5e-324),
        ("sqrt(x)", 1e-250),
        ("x^x", 5e-324),            # the same factor inside exp(x ln x)
        ("x^sqrt(4)", -1.0),        # exponents that fold when the kernel is generated
        ("x^(2^0.5)", -1.0),
        ("x^(2^2^2^2^2)", 0.5),     # 2^65536 overflows to inf: a real power
        ("x^ln(1e999-1e999)", -1.0),  # ln of NaN folds to NaN
        ("x^ln(0)", 1.0),           # exponents whose evaluation raises
        ("x^exp(1000)", 2.0),
        ("x^(0^-20)", 1.0),
        ("(x^-20)^0", 0.0),         # beyond 16, 1 / 0 raises where the power is read
        ("(x^-3)^0", 0.0),          # up to 16, its check runs
        ("exp(1000)^0*x", 1.0),
    ])
    def test_edge_cases(self, text, x):
        expr = parse_expression(text)
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)

    def test_a_folded_constant_is_a_value(self):
        # folding runs on values alone, so an infinite constant carries no NaN
        assert eval_dual(parse_expression("x+1e999*2"), 1.0) == (math.inf, 1.0, 0.0)
        assert eval_dual(parse_expression("x+1e999"), 1.0) == (math.inf, 1.0, 0.0)
        assert math.copysign(1.0, eval_dual(parse_expression("-1"), 1.0)[1]) == 1.0

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ExprDomainError, match="float overflow in 'exp"):
            eval_dual(parse_expression("exp(x)"), 720.0)
        with pytest.raises(ExprDomainError, match="float overflow in 'x\\^1.5'"):
            eval_dual(parse_expression("x^1.5"), 1e300)

    @pytest.mark.parametrize("text,x", [("x^1e300", 0.5), ("x^1e300", -1.0),
                                        ("x^(1e300*sqrt(1))", 0.5),
                                        ("x^(1e300*sqrt(1))", -1.0),
                                        ("x^-(1e300*sqrt(1))", -1.0)])
    def test_huge_integer_exponent_at_run_time_returns(self, text, x):
        # an exponent that reads no variable folds when the kernel is
        # generated: an integer there squares and multiplies, written out
        expr = parse_expression(text)
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)
        assert (outcome(lambda: [compile_expression(expr)(x, 0.0)[0]])
                == outcome(lambda: [_eval(expr, {"x": Dual2.seed(x, 0.0)}).val]))
        assert (outcome(eval_gradient, expr, ["x"], [x])
                == outcome(reference_gradient, expr, ["x"], [x]))

    @pytest.mark.parametrize("fn", ["sin", "cos"])
    def test_trig_of_infinity_is_a_domain_error(self, fn):
        with pytest.raises(ExprDomainError, match=f"{fn} of an infinite value"):
            eval_dual(parse_expression(f"{fn}(x*1e999)"), 0.5)

    def test_compiled_once_per_expression_and_variables(self, monkeypatch):
        from pdmdyn import exprparse
        compiles = []
        for name in ("_compile", "_compile_gradient"):
            real = getattr(exprparse, name)
            monkeypatch.setattr(exprparse, name, lambda *args, real=real:
                                compiles.append(args) or real(*args))
        expr = parse_expression("x^2+sin(x)")
        for x in (0.25, 0.5, 0.75):
            eval_dual(expr, x)
            eval_gradient(expr, ["x"], [x])
            compile_expression(expr, ["x"], 0)(x, 1.0)
        # one compile per (expression, variables, order): eval_dual reads
        # order 2, eval_gradient its gradient shape (expression, variables)
        assert compiles == [(expr, ("x",), 2), (expr, ("x",)), (expr, ("x",), 0)]
        assert all(args[0] is expr for args in compiles)
        assert exprparse.compile_gradient(expr, ["x"]) is exprparse.compile_gradient(expr, ("x",))
        assert compile_expression(expr) is compile_expression(expr)
        assert compile_expression(expr, ["x"], 1) is compile_expression(expr, ("x",), 1)

    def test_a_system_build_compiles_below_order_two(self, monkeypatch):
        from pdmdyn import exprparse
        compiles, functions = [], []
        real, function = exprparse._compile, exprparse._function
        monkeypatch.setattr(exprparse, "_compile",
                            lambda *args: compiles.append(args) or real(*args))
        # every generated kernel, of any shape, passes through _function
        monkeypatch.setattr(exprparse, "_function",
                            lambda *args: functions.append(args) or function(*args))
        # parameters no other test uses, so every expression is parsed afresh
        params = {"omega": [1.25, 2.5], "lambda": 0.3125, "sign": "+", "kappa": [0.375, 0.625]}
        system = build_system("sw1", 2, params)
        assert functions == []   # building a system compiles nothing
        el1_rhs(system)(0.0, [0.5, 0.75], [0.25, -0.5])
        total_energy(system, State.of(0.0, [0.5, 0.75], [0.25, -0.5]))
        # the right-hand side and the energy are one generated kernel each,
        # and neither compiles a single expression at any order
        assert len(functions) == 2 and compiles == []
        total_energy(system, State.of(0.0, [0.5, 0.75], [0.25, -0.5]))
        assert len(functions) == 2   # the energy kernel is kept on the system
        # both coordinates share one mass expression; its triple comes on request
        assert system.profiles[0].expr is system.profiles[1].expr
        for profile in system.profiles:
            profile.eval(0.5)
        mass = system.profiles[0].expr
        assert [args for args in compiles if args[2] == 2] == [(mass, ("x",), 2)]


def _parity(expr, names, xs, seeds):
    """Whether orders 0 and 1 return what order 2 returns, cut to their
    length, or raise what it raises, with the same message.  A kernel
    computes a derivative factor only at the orders that read it, so where
    order 2 raises a float overflow inside a factor above the lower order
    alone, the lower order goes on: there it gives what the oracle computes
    at that order, a value or the next error along the lines."""
    args = [*xs, *seeds]
    full = outcome(compile_expression(expr, names, 2), *args)
    env = {name: Dual2.seed(x, s) for name, x, s in zip(names, xs, seeds)}
    for order in (0, 1):
        fn = compile_expression(expr, names, order)
        got = outcome(lambda: [fn(*args)] if order == 0 else fn(*args))
        want = full[:order + 1]
        if isinstance(full[0], type):
            want = outcome(lambda: _floats(_eval(expr, env, order), order))
            if want != full:
                assert full[1].startswith("float overflow in "), (full, want)
        assert got == want, (to_source(expr), order, xs, seeds)


#: parameters at n = 3 for every catalog record (n < 3 takes the leading entries)
_CATALOG = {
    "ml1": {"omega": [1.0, 2.0, 0.7], "lambda": 0.6, "sign": "-"},
    "ml2": {"omega": [1.0, 2.0, 0.7], "lambda": 0.25, "sign": "+",
            "eta_const": [1.5, -2.5, 3.0]},
    "powerlaw": {"omega": [1.0, 1.7, 0.6], "alpha": 1.2, "upsilon": -0.4},
    "morse": {"omega": [1.0, 2.0, 0.7], "zeta": [1.0, 2.0, 0.5]},
    "sw1": {"omega": [1.0, 2.0, 0.7], "lambda": 0.5, "sign": "+", "kappa": [0.3, 0.8, 0.5]},
    "sw2": {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3], "beta": 1.3, "eta_exp": 1.5},
    "harmonic": {"omega": [1.0, 2.0, 0.7]},
    "isotonic": {"omega": [1.0, 2.0, 0.7], "kappa": [0.9, 0.4, 1.3]},
}

_anywhere = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.floats(min_value=-4.0, max_value=4.0),
                      st.sampled_from([0.0, -0.0, 5e-324, 1e-250, -1.0, 1.0]))
_seeds = st.sampled_from([0.0, 1.0, -0.5])


class TestOrderParity:
    """A kernel of order 0 or 1 is the order-2 kernel with the higher lines cut."""

    def test_catalog_covers_every_record(self):
        assert set(_CATALOG) == set(FAMILIES)

    @given(_exprs(full=True), _anywhere, _seeds)
    @settings(max_examples=300, deadline=None)
    @example(parse_expression("ln(x)+sqrt(x)"), 5e-324, 1.0)
    @example(parse_expression("x^x"), 5e-324, 1.0)
    @example(parse_expression("(x+1)^20-(2*x)^-17"), 0.75, 1.0)
    @example(parse_expression("x^(x-x)"), -2.0, 0.0)
    @example(parse_expression("ln(x+ln(x))"), 5e-324, 0.0)   # the next error along
    def test_one_variable(self, expr, x, seed):
        _parity(expr, ("x",), [x], [seed])

    @given(_exprs(("x1", "x2", "x3"), full=True),
           st.lists(_points, min_size=3, max_size=3), st.lists(_seeds, min_size=3, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_three_variables(self, expr, xs, seeds):
        _parity(expr, ("x1", "x2", "x3"), xs, seeds)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_CATALOG))
    @given(x=_anywhere, seed=_seeds)
    @settings(max_examples=40, deadline=None)
    def test_catalog_templates(self, family, n, x, seed):
        params = {k: v[:n] if k in VECTORS else v for k, v in _CATALOG[family].items()}
        system = build_system(family, n, params)
        for expr in (*(p.expr for p in system.profiles), *system.potential.exprs):
            _parity(expr, ("x",), [x], [seed])


@pytest.mark.parametrize("system,x,v,value", [
    # m = 1.44 x^-0.8 is finite at 1e-200; the factor of m' overflows
    (lambda: build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.2, "upsilon": -0.4}),
     1e-200, 0.5, 0.5 * 1.2 ** 2 * 1e-200 ** -0.8 * 0.5 ** 2),
    # V = x^0.5: the factor of V'' overflows at 1e-300
    (lambda: build_system("custom", 1, mass_exprs=["1"], potential_exprs=["x^0.5"]),
     1e-300, None, 1e-150),
    # m = 1 + sqrt(x): x * sqrt(x), the divisor of m'', underflows at 1e-320
    (lambda: build_system("custom", 1, mass_exprs=["1+sqrt(x)"], potential_exprs=["0.5*x^2"]),
     1e-320, 0.5, 0.5 * (1.0 + math.sqrt(1e-320)) * 0.5 ** 2 + 0.5 * 1e-320 ** 2),
])
def test_an_energy_computes_no_derivative_factor(system, x, v, value):
    # the energies run value kernels, which no longer raise for an overflow
    # in a derivative factor they never read; order 2 still raises there
    system = system()
    got = (potential_energy(system, [x]) if v is None
           else total_energy(system, State.of(0.0, [x], [v])))
    assert got == pytest.approx(value, rel=1e-14, abs=0.0)
    exprs = [*(p.expr for p in system.profiles), *system.potential.exprs]
    failed = [outcome(compile_expression(expr, ("x",), 2), x, 1.0) for expr in exprs]
    assert any(isinstance(f[0], type) and f[0] is ExprDomainError
               and f[1].startswith("float overflow") for f in failed)


def test_a_kernel_runs_every_check_and_only_the_lines_a_root_reads():
    # V' of ln(x) reads 1/x alone, yet the check on x runs: no -1 at x = -1
    system = build_system("custom", 1, mass_exprs=["1"], potential_exprs=["ln(x)"])
    with pytest.raises(ExprDomainError, match="^ln of a non-positive value in 'ln\\(x\\)'$"):
        potential_gradient(system, [-1.0])
    # V = x^2.5 overflows at 1e200 where V' does not, and the gradient reads no V
    system = build_system("custom", 1, mass_exprs=["1"], potential_exprs=["x^2.5"])
    with pytest.raises(ExprDomainError, match="^float overflow in 'x\\^2.5'$"):
        potential_energy(system, [1e200])
    assert math.isfinite(potential_gradient(system, [1e200])[0])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_type2_energy_and_right_hand_side_sum_the_same_square(monkeypatch, n):
    # one |v|^2 rule: a running sum from 0.0 in coordinate order, written as
    # one line in the energy kernel and one in the right-hand side
    from pdmdyn import exprparse
    seen, function = [], exprparse._function
    exprparse.parse_cached.cache_clear()
    monkeypatch.setattr(exprparse, "_function", lambda gen, head, tail: seen.append(
        (head[0], exprparse._source(gen.body))) or function(gen, head, tail))
    mass = "+".join(["2", *(f"x{i + 1}^2" for i in range(n))])
    system = build_system("custom", n, mass_exprs=[mass], kind=TYPE2)
    x, v = [0.5] * n, [0.25] * n
    el2_rhs(system)(0.0, x, v)
    total_energy(system, State.of(0.0, x, v))
    squares = {}
    for head, lines in seen:
        for line in lines:
            found = re.fullmatch(r"\w+ = (0\.0 \+ u0 \* u0.*)", line.strip())
            if found:
                squares.setdefault(head, []).append(found[1])
    want = ["0.0" + "".join(f" + u{i} * u{i}" for i in range(n))]
    assert squares == {"def compiled(fail):": want,
                       "def compiled(mass, fail, energy):": want}


def _value_outcome(expr, names, xs, seeds, order):
    """The value the order's kernel returns at xs under the seeds, or the
    exception it raises."""
    fn = compile_expression(expr, names, order)
    return outcome(lambda: [fn(*xs, *seeds)] if order == 0 else fn(*xs, *seeds)[:1])


class TestSeedFreeValues:
    """No value reads the seeds: a power's rule is fixed by its exponent's
    tree when the kernel is generated, so every seed vector gives the same
    value, or the same error, at every order."""

    @given(_exprs(full=True), _anywhere, st.lists(_seeds, min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    @example(parse_expression("x^(x-x)"), 0.0, [0.0, 1.0])
    @example(parse_expression("x^x"), -2.0, [0.0, 1.0])
    def test_one_variable(self, expr, x, seeds):
        for order in (0, 1, 2):
            assert (_value_outcome(expr, ("x",), [x], seeds[:1], order)
                    == _value_outcome(expr, ("x",), [x], seeds[1:], order))

    @given(_exprs(("x1", "x2", "x3"), full=True), st.lists(_points, min_size=3, max_size=3),
           st.lists(_seeds, min_size=6, max_size=6))
    @settings(max_examples=200, deadline=None)
    @example(parse_expression("x1^x2", ["x1", "x2", "x3"]), [-2.0, 2.0, 1.0],
             [0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    def test_three_variables(self, expr, xs, seeds):
        names = ("x1", "x2", "x3")
        for order in (0, 1, 2):
            assert (_value_outcome(expr, names, xs, seeds[:3], order)
                    == _value_outcome(expr, names, xs, seeds[3:], order))


def batch_outcome(fn, *args):
    """The bytes of every entry of the list fn returns, or the exception it
    raises."""
    try:
        out = fn(*args)
    except Exception as err:
        return type(err), str(err)
    return [struct.pack(f"<{len(o)}d", *o) if isinstance(o, tuple) else struct.pack("<d", o)
            for o in out]


class _Failed(Exception):
    """Raised by _fail: the point at which a batch failed a check."""


def _fail(x, m=None):
    raise _Failed(x, m)


def _per_point_checked(fn, xs, seed, lo, hi, order):
    """The one-variable per-point kernel at each x in turn, as a list; _fail
    at the first x outside (lo, hi), or where the value m is < 0 with m."""
    out = []
    for x in xs:
        if not lo < x < hi:
            _fail(x)
        out.append(fn(x, seed))
        m = out[-1][0] if order else out[-1]
        if m < 0.0:
            _fail(x, m)
    return out


#: (lo, hi) of a one-variable batch: the whole line and bounds
_domains = st.sampled_from([(-math.inf, math.inf), (-1.0, 1.0), (0.0, math.inf),
                            (-1.0, 2.0)])
_checked_xs = st.one_of(_anywhere, st.sampled_from([math.nan, math.inf, -math.inf, 2.0]))


class TestBatchParity:
    """A batch kernel returns, bit for bit, the list of per-point results, and
    raises at the first failing point what the per-point kernel raises there."""

    @given(_exprs(full=True), st.lists(_checked_xs, max_size=8), _seeds,
           st.sampled_from([0, 1, 2]), _domains)
    @settings(max_examples=300, deadline=None)
    @example(parse_expression("1/(x-1)"), [0.5, 1.0, 2.0], 1.0, 1,       # division by zero
             (-math.inf, math.inf))
    @example(parse_expression("exp(x)+ln(x)"), [1.0, 800.0, -1.0], 1.0, 0,  # overflow first
             (-math.inf, math.inf))
    @example(parse_expression("ln(x)+exp(x)"), [1.0, -1.0, 800.0], 1.0, 2,  # domain first
             (-math.inf, math.inf))
    @example(parse_expression("sin(x*1e999)"), [0.0, 1.0], 1.0, 0,      # sin(inf)
             (-math.inf, math.inf))
    @example(parse_expression("x^x"), [2.0, -2.0, -1.5], 0.0, 2,        # varying exponent
             (-math.inf, math.inf))
    @example(parse_expression("x^-20"), [1.0, 0.0], 1.0, 1, (-math.inf, math.inf))
    # the failed check comes before a later point's guard error, not after an earlier one's
    @example(parse_expression("ln(x)"), [1.0, math.nan, -1.0], 1.0, 1, (-math.inf, math.inf))
    @example(parse_expression("ln(x)"), [1.0, -1.0, math.nan], 1.0, 1, (-math.inf, math.inf))
    @example(parse_expression("1/x"), [0.5, math.inf], 1.0, 0, (-math.inf, math.inf))
    @example(parse_expression("1/x"), [0.5, -math.inf], 1.0, 0, (-math.inf, math.inf))
    @example(parse_expression("x"), [0.5, 1.0], 1.0, 0, (-1.0, 1.0))     # a boundary
    # a value < 0 before a later point's guard error, and after an earlier one's
    @example(parse_expression("ln(x)"), [2.0, 0.5, -1.0], 1.0, 0, (-math.inf, math.inf))
    @example(parse_expression("ln(x)"), [2.0, -1.0, 0.5], 1.0, 2, (-math.inf, math.inf))
    @example(parse_expression("x-1"), [1.5, 0.5, 2.0], 1.0, 1, (-1.0, 2.0))
    @example(parse_expression("x"), [0.5, -0.0, -0.5], 1.0, 0, (-1.0, 1.0))  # -0.0 is not < 0
    def test_one_variable(self, expr, xs, seed, order, domain):
        batch = compile_expression(expr, ("x",), order, batch=True)
        fn = compile_expression(expr, ("x",), order)
        assert (batch_outcome(batch, xs, seed, *domain, _fail)
                == batch_outcome(_per_point_checked, fn, xs, seed, *domain, order))

    def test_cached_apart_from_the_per_point_form(self):
        expr = parse_expression("x^2+1")
        batch = compile_expression(expr, ("x",), 0, batch=True)
        assert batch is compile_expression(expr, ["x"], 0, batch=True)
        assert batch is not compile_expression(expr, ("x",), 0)
        assert batch([], 1.0, -math.inf, math.inf, _fail) == []


class TestNestingLimit:
    @pytest.mark.parametrize("text", [
        "(" * 5000 + "x" + ")" * 5000,
        "-" * 5000 + "x",
        "x" + "^x" * 5000,
        "sin(" * 5000 + "x" + ")" * 5000,
        "+".join(["x"] * 5000),
        "*".join(["x"] * 5000),
    ])
    def test_deep_input_is_a_positioned_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expression(text)
        assert 1 <= err.value.position <= len(text)
        assert f"at most {MAX_DEPTH} levels" in str(err.value)

    @staticmethod
    def _shapes(levels):
        return [
            "(" * (levels - 1) + "x" + ")" * (levels - 1),
            "-" * (levels - 1) + "x",
            "x" + "^x" * (levels - 1),
            "sin(" * (levels - 1) + "x" + ")" * (levels - 1),
            "+".join(["x"] * levels),
            "-(" * ((levels - 1) // 2) + "x" + ")" * ((levels - 1) // 2),
        ]

    @pytest.mark.parametrize("shape", range(6))
    def test_limit_is_exact(self, shape):
        parse_expression(self._shapes(MAX_DEPTH)[shape])
        with pytest.raises(ExprSyntaxError):
            parse_expression(self._shapes(MAX_DEPTH + 1)[shape])

    @pytest.mark.parametrize("shape", range(6))
    def test_deepest_accepted_expressions_compile_without_recursion(self, shape):
        expr = parse_expression(self._shapes(MAX_DEPTH)[shape])
        frames, f = 0, sys._getframe()
        while f is not None:
            frames, f = frames + 1, f.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(frames + 40)   # far less than the tree's depth
        try:
            fn = compile_expression(expr, ["x"])
        finally:
            sys.setrecursionlimit(limit)
        assert outcome(fn, 0.5, 1.0) == outcome(reference_dual, expr, 0.5)
        assert parse_expression(to_source(expr)) == expr


#: an arithmetic operand that is the bound zero k0, a derivative's product
#: with the bound 1.0 k1, and a seed stored in a local
_ZERO_OPERAND = re.compile(r"(?:[-+*/]\s*k0\b)|(?:\bk0\s*[-+*/])")
_UNIT_FACTOR = re.compile(r"^[pq]\d+ = .*(?:(?:\*\s*k1\b)|(?:\bk1\s*\*))")
_SEED_STORE = re.compile(r"^s\d+ = ")
#: an assignment whose operands are bound constants alone (a literal such as
#: a running sum's leading 0.0 is not one), and a line of a power decided at
#: run time
_CONSTANT_ONLY = re.compile(r"^\w+ = (?:[-+*/()\s]|\bk\d+\b|\b(?:sin|cos|exp|log|sqrt)\b)+$")
_RUN_TIME = re.compile(r"\bint_pow\(|^else:")
#: an assignment (its names, its right-hand side) and a check (its condition)
_ASSIGNMENT = re.compile(r"^(\w+(?:, \w+)*) = (.+)$")
_CHECK = re.compile(r"^if (.+):$")


def _unread(lines: list[str]) -> list[str]:
    """The assignments none of whose names a later line reads; an argument's
    conversion to a float is a check."""
    unread = []
    for k, line in enumerate(lines):
        match = _ASSIGNMENT.match(line) if " = float(" not in line else None
        names = match and re.compile(rf"\b(?:{'|'.join(match[1].split(', '))})\b")
        if match and not any(names.search(later) for later in lines[k + 1:]):
            unread.append(line)
    return unread


def _repeated(lines: list[str]) -> list[str]:
    """The assignments and checks with the right-hand side or the condition
    of an earlier one."""
    seen, repeated = set(), []
    for line in lines:
        match = _ASSIGNMENT.match(line) or _CHECK.match(line)
        if match and match[match.lastindex] in seen:
            repeated.append(line)
        elif match:
            seen.add(match[match.lastindex])
    return repeated


#: the type1 and type2 systems of the benchmark's expression workload
_EXPR_SYSTEMS = [
    (1, TYPE1, ["1/(1+x^2)"], ["0.5*x^2/(1+x^2)"]),
    (2, TYPE1, ["1+0.5*sin(x)^2", "exp(-0.25*x^2)+0.5"],
     ["sqrt(1+x^2)-1", "0.5*x^2+0.1*ln(1+x^2)"]),
    (2, TYPE2, ["1+x1^2+x2^2"], None),
    (3, TYPE2, ["2+sin(x1*x2)+0.5*x3^2"], ["0.5*x^2"] * 3),
]


class TestKnownZerosFold:
    """Every generated line is needed once: across every kernel shape of
    every catalog family at n = 1-3, of every verify case's closed form and
    of the expression systems, no arithmetic operand is the bound zero k0,
    no derivative product has the factor k1 (the bound 1.0), no seed is
    stored, no assignment computes with bound constants alone, no power is
    decided at run time, no assignment is left unread, and no assignment or
    check repeats an earlier one's right-hand side or condition."""

    @staticmethod
    def _kernels(monkeypatch) -> list:
        from pdmdyn import exprparse
        gens, function = [], exprparse._function
        # a fresh parse of every text, so every kernel is generated here
        exprparse.parse_cached.cache_clear()
        monkeypatch.setattr(exprparse, "_function",
                            lambda gen, *rest: gens.append(gen) or function(gen, *rest))
        return gens

    @staticmethod
    def _run(system, n):
        x, v = [0.5, 0.75, 0.25][:n], [0.25, -0.5, 0.5][:n]
        rhs = el2_rhs if system.kind == TYPE2 else el1_rhs
        calls = [lambda: rhs(system)(0.0, x, v),
                 lambda: total_energy(system, State.of(0.0, x, v)),
                 lambda: potential_energy(system, x), lambda: potential_gradient(system, x)]
        if system.kind == TYPE2:
            profile = system.coupled_profile
            calls.append(lambda: eval_gradient(profile.expr, profile.names, x))
        else:
            for profile in system.profiles:
                calls += [lambda p=profile, k=k: p.eval(0.5, k) for k in (0, 1, 2)]
                calls += [lambda p=profile, k=k: p.eval_many([0.5], k) for k in (0, 1, 2)]
        record = system.potential.record
        if record is not None and record.reference != record.name:
            for batch in reference_map(system)[0].batches:
                calls += [lambda b=batch, c=columns: b([0.5], c) for columns in
                          [MAP_COLUMNS, ("q",), ("q", "f", "m"), ("f",), ("dq", "f", "m"),
                           ("q", "f")]]
        for call in calls:
            with contextlib.suppress(PdmError):
                call()

    @staticmethod
    def _assert_folded(gens):
        from pdmdyn import exprparse
        assert gens
        for gen in gens:
            lines = [line.strip() for line in exprparse._source(gen.body)]
            for pattern in (_ZERO_OPERAND, _UNIT_FACTOR, _SEED_STORE, _CONSTANT_ONLY, _RUN_TIME):
                found = [line for line in lines if pattern.search(line)]
                assert not found, found
            assert not _unread(lines), _unread(lines)
            assert not _repeated(lines), _repeated(lines)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_CATALOG))
    def test_catalog_systems(self, monkeypatch, family, n):
        gens = self._kernels(monkeypatch)
        params = {k: v[:n] if k in VECTORS else v for k, v in _CATALOG[family].items()}
        self._run(build_system(family, n, params), n)
        self._assert_folded(gens)

    def test_a_mapped_mass_that_folds_to_a_constant(self, monkeypatch):
        # powerlaw at upsilon = 0: m = alpha^2, whose m'/(2m) is the constant 0
        gens = self._kernels(monkeypatch)
        self._run(build_system("powerlaw", 1, {"omega": [1.0], "alpha": 1.2, "upsilon": 0.0}), 1)
        self._assert_folded(gens)

    def test_closed_forms(self, monkeypatch):
        gens = self._kernels(monkeypatch)
        for case in CASES.values():
            with contextlib.suppress(PdmError):
                kinematics(case.spec(), 0.1)
        assert len(gens) == len(CASES)
        self._assert_folded(gens)

    @pytest.mark.parametrize("n,kind,masses,potentials", _EXPR_SYSTEMS)
    def test_expression_systems(self, monkeypatch, n, kind, masses, potentials):
        gens = self._kernels(monkeypatch)
        self._run(build_system("custom", n, mass_exprs=masses, potential_exprs=potentials,
                               kind=kind), n)
        self._assert_folded(gens)

    def test_a_power_beyond_the_unrolled_in_a_type2_mass(self, monkeypatch):
        # x1^20 squares and multiplies once, and d/dx2 reads none of it
        from pdmdyn import exprparse
        gens = self._kernels(monkeypatch)
        self._run(build_system("custom", 2, mass_exprs=["1+x1^20+x2^2"], kind=TYPE2), 2)
        self._assert_folded(gens)
        for gen in gens:
            lines = [line.strip() for line in exprparse._source(gen.body)]
            assert len([line for line in lines if line.endswith(" = x0 * x0")]) <= 1
            reads = {m[1]: set(re.findall(r"[A-Za-z_]\w*", m[2])) - {m[1]}
                     for m in map(_ASSIGNMENT.match, lines) if m}
            gradient = re.fullmatch(r"return \w+, \[(\w+), (\w+)\]", lines[-1])
            if gradient:
                seen, todo = set(), [gradient[2]]
                while todo:
                    name = todo.pop()
                    seen.add(name)
                    todo += reads.get(name, set()) - seen
                assert "x0" not in seen, lines
        assert any(re.fullmatch(r"return \w+, \[\w+, \w+\]", exprparse._source(gen.body)[-1])
                   for gen in gens)

    @pytest.mark.parametrize("text", ["sin(1)*x", "x^sqrt(4)", "x^(2^0.5)", "x^-33", "x^40"])
    def test_calls_and_powers_of_constants(self, monkeypatch, text):
        gens = self._kernels(monkeypatch)
        self._run(build_system("custom", 1, mass_exprs=[text], potential_exprs=[text]), 1)
        self._assert_folded(gens)

    @pytest.mark.parametrize("text", ["x^ln(0)", "x^-(0*ln(0))"])
    def test_an_exponent_that_fails_fails_at_every_point(self, text):
        expr = parse_expression(text)
        for order in (0, 1, 2):
            for x in (-2.0, -0.0, 0.0, 5e-324, 0.5, 3.0, math.inf, math.nan):
                with pytest.raises(ExprDomainError,
                                   match="^ln of a non-positive value in 'ln\\(0.0\\)'$"):
                    compile_expression(expr, ("x",), order)(x, 1.0)
        with pytest.raises(ExprDomainError, match="^ln of a non-positive value"):
            eval_gradient(expr, ["x"], [2.0])

    def test_the_checks_see_a_zero_operand_and_a_unit_factor(self):
        assert _ZERO_OPERAND.search("p3 = k0 * x0 + k2 * s0")
        assert _ZERO_OPERAND.search("q3 = (p7 - v8 * k0) / k65")
        assert not _ZERO_OPERAND.search("if x0 == k0:")
        assert not _ZERO_OPERAND.search("p3 = k01 * x0")
        assert _UNIT_FACTOR.search("p1 = k1 * x0 + x0 * k1")
        assert not _UNIT_FACTOR.search("v1 = k1 * x0 - k11 * x0")
        assert _SEED_STORE.search("s0 = 1.0")
        assert not _SEED_STORE.search("p1 = s0 * x0")
        assert _CONSTANT_ONLY.search("v3 = log(k5)")
        assert _CONSTANT_ONLY.search("v4 = k2 ** (k3 - k1)")
        assert not _CONSTANT_ONLY.search("v3 = k2 * x0")
        assert not _CONSTANT_ONLY.search("V5 = 0.0 + k3 + k3")
        assert not _CONSTANT_ONLY.search("v3 = sin(v2)")
        assert _RUN_TIME.search("v3, p3, q3 = int_pow(v2, s0, k0, k5, k6)")
        assert _RUN_TIME.search("else:")
        assert not _RUN_TIME.search("except OverflowError:")
        assert _unread(["x0 = float(x0)", "v1 = x0 * x0", "v2 = v1 + x0",
                        "return v1"]) == ["v2 = v1 + x0"]
        assert _unread(["v1 = x0 * x0", "v2 = v1 + x0", "return v2"]) == []
        assert _repeated(["v1 = x0 * x1", "if v1 <= 0.0:", "v2 = x0 * x1",
                          "if v1 <= 0.0:"]) == ["v2 = x0 * x1", "if v1 <= 0.0:"]
        assert _repeated(["v1 = x0 * x1", "v2 = x1 * x0", "if v1 <= 0.0:", "if v1 < 0.0:"]) == []


def _functions(source: str) -> dict[str, list[str]]:
    """The functions a generated source defines inside ``compiled``, by name:
    the text of the argument list, then the body's lines, stripped."""
    functions, body = {}, None
    for line in source.split("\n"):
        found = re.fullmatch(r" {8}def (\w+)\((.*)\):", line)
        if found:
            body = functions[found[1]] = [found[2]]
        elif body is not None and line.startswith(" " * 12):
            body.append(line.strip())
        else:
            body = None
    return functions


class TestOneBodyPerRightHandSide:
    """Each generated right-hand side is compiled from one body: the kernel
    ``scalar(t, x0, .., u0, ..)`` holds every statement once and no float()
    conversion, and the list form ``rhs(t, x, v)`` only unpacks its lists
    and calls the kernel with the entries of x as floats."""

    @staticmethod
    def _sources(monkeypatch) -> list[str]:
        from pdmdyn import exprparse
        sources = []
        # a fresh parse of every text, so every right-hand side is generated here
        exprparse.parse_cached.cache_clear()
        monkeypatch.setattr(exprparse, "compile", lambda source, *rest: sources.append(source)
                            or compile(source, *rest), raising=False)
        return sources

    @staticmethod
    def _one_body(sources) -> int:
        """How many right-hand sides the sources hold, each asserted to have one body."""
        kernels = [(source, _functions(source)) for source in sources if "def scalar(" in source]
        for source, functions in kernels:
            args, *body = functions["scalar"]
            names = args.split(", ")[1:]
            xs, us = names[:len(names) // 2], names[len(names) // 2:]
            assert not [line for line in body if "float(" in line], body
            lines = [line.strip() for line in source.split("\n")]
            statements = [line for line in body if _ASSIGNMENT.match(line) or _CHECK.match(line)]
            assert statements and all(lines.count(line) == 1 for line in statements), source
            floats = ", ".join([*(f"float({x})" for x in xs), *us])
            assert functions["rhs"] == ["t, x, v", f"{', '.join(xs)}, = x",
                                        f"{', '.join(us)}, = v",
                                        f"return [*scalar(t, {floats})]"], source
        return len(kernels)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(_CATALOG))
    def test_catalog_systems(self, monkeypatch, family, n):
        sources = self._sources(monkeypatch)
        params = {k: v[:n] if k in VECTORS else v for k, v in _CATALOG[family].items()}
        el1_rhs(build_system(family, n, params))
        assert self._one_body(sources) == 1

    def test_verify_cases(self, monkeypatch):
        sources = self._sources(monkeypatch)
        for case in CASES.values():
            el1_rhs(case.system())
        # cases that share masses and potentials share one right-hand side
        assert 0 < self._one_body(sources) <= len(CASES)

    @pytest.mark.parametrize("n,kind,masses,potentials", _EXPR_SYSTEMS)
    def test_expression_systems(self, monkeypatch, n, kind, masses, potentials):
        sources = self._sources(monkeypatch)
        system = build_system("custom", n, mass_exprs=masses, potential_exprs=potentials,
                              kind=kind)
        (el2_rhs if kind == TYPE2 else el1_rhs)(system)
        assert self._one_body(sources) == 1
