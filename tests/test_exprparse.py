"""Parser and dual-number differentiation tests."""

import math
import struct
import sys
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmdyn.core import VECTORS, State, build_system, total_energy
from pdmdyn.eom import el1_rhs
from pdmdyn.errors import ExprDomainError, ExprSyntaxError, InvalidParameter, UnknownIdentifier
from pdmdyn.exprparse import (FUNCTIONS, MAX_DEPTH, BinOp, Call, Expr, Neg, Num, Var,
                              compile_expression, eval_dual, eval_gradient,
                              parse_expression, to_source)
from pdmdyn.families import FAMILIES


# --- reference oracle ---------------------------------------------------------
# The tree walker the compiled code replaced, kept as the reference: the
# compiled code must give the same floats, or raise the same exception with
# the same message.  Deliberate changes, made in both: a float overflow in exp
# or in a power, sin or cos of an infinite value, and a second-derivative
# factor of ln or sqrt whose divisor underflows to 0, are ExprDomainErrors
# here too, where the walker let OverflowError, ValueError and
# ZeroDivisionError out; an integer power beyond 16 squares and multiplies
# instead of multiplying k times; an operation on two folded constants
# (unary -, +, -, *, / by a non-zero constant, an integer power up to 16 of
# a folded base by a folded exponent) is folded on their values alone, so a
# folded constant's derivatives are +0.0 whatever its value.

@dataclass(frozen=True)
class Dual2:
    """Value with first and second derivative with respect to one seed."""

    val: float
    d1: float = 0.0
    d2: float = 0.0
    known: bool = False  # a folded constant

    @staticmethod
    def seed(x: float) -> "Dual2":
        return Dual2(float(x), 1.0, 0.0)

    @staticmethod
    def const(c: float) -> "Dual2":
        return Dual2(float(c), 0.0, 0.0)

    @staticmethod
    def folded(c: float) -> "Dual2":
        return Dual2(float(c), 0.0, 0.0, True)


def _plain(u: Dual2) -> Dual2:
    """u as a value that is not folded: its derivatives take part in the arithmetic."""
    return Dual2(u.val, u.d1, u.d2)


def _add(a: Dual2, b: Dual2) -> Dual2:
    if a.known and b.known:
        return Dual2.folded(a.val + b.val)
    return Dual2(a.val + b.val, a.d1 + b.d1, a.d2 + b.d2)


def _sub(a: Dual2, b: Dual2) -> Dual2:
    if a.known and b.known:
        return Dual2.folded(a.val - b.val)
    return Dual2(a.val - b.val, a.d1 - b.d1, a.d2 - b.d2)


def _mul(a: Dual2, b: Dual2) -> Dual2:
    if a.known and b.known:
        return Dual2.folded(a.val * b.val)
    return Dual2(a.val * b.val,
                 a.d1 * b.val + a.val * b.d1,
                 a.d2 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d2)


def _div(a: Dual2, b: Dual2, where: Expr) -> Dual2:
    if a.known and b.known and b.val != 0.0:
        return Dual2.folded(a.val / b.val)
    if b.val == 0.0:
        raise ExprDomainError("division by zero", to_source(where))
    q = a.val / b.val
    q1 = (a.d1 - q * b.d1) / b.val
    q2 = (a.d2 - 2.0 * q1 * b.d1 - q * b.d2) / b.val
    return Dual2(q, q1, q2)


def _curvature(num: float, den: float, where: Expr) -> float:
    try:
        return num / den
    except ZeroDivisionError:
        raise ExprDomainError("float overflow", to_source(where)) from None


def _chain(u: Dual2, f: float, fp: float, fpp: float) -> Dual2:
    return Dual2(f, fp * u.d1, fpp * u.d1 * u.d1 + fp * u.d2)


def _int_pow(u: Dual2, k: int, where: Expr) -> Dual2:
    if k == 0:
        return Dual2.folded(1.0)
    if k < 0:
        return _div(Dual2.folded(1.0), _int_pow(u, -k, where), where)
    if k <= 16:
        out = u
        for _ in range(k - 1):
            out = _mul(out, u)
        return out
    u, out = _plain(u), Dual2.const(1.0)   # at run time: nothing folds
    while k:
        if k & 1:
            out = _mul(out, u)
        u = _mul(u, u)
        k >>= 1
    return out


def _reads_variable(e: Expr) -> bool:
    if isinstance(e, Var):
        return True
    if isinstance(e, BinOp):
        return _reads_variable(e.left) or _reads_variable(e.right)
    return isinstance(e, (Neg, Call)) and _reads_variable(e.arg)


def _pow(a: Dual2, b: Dual2, where: BinOp) -> Dual2:
    # the rule follows the exponent's tree, never its derivatives
    if _reads_variable(where.right):
        if a.val <= 0.0:
            raise ExprDomainError("varying power of a non-positive base", to_source(where))
        ln_a = _chain(a, math.log(a.val), 1.0 / a.val, _curvature(-1.0, a.val * a.val, where))
        return _exp(_mul(b, ln_a), where)
    if float(b.val).is_integer():
        # repeated multiplication keeps negative bases exact and real; an
        # exponent that did not fold is a power taken at run time: nothing folds
        if b.known:
            return _int_pow(a, int(b.val), where)
        return _plain(_int_pow(_plain(a), int(b.val), where))
    if a.val <= 0.0:
        raise ExprDomainError(
            "non-integer power of a non-positive base", to_source(where))
    p = b.val
    try:
        f = a.val ** p
        fp, fpp = p * a.val ** (p - 1.0), p * (p - 1.0) * a.val ** (p - 2.0)
    except OverflowError:
        raise ExprDomainError("float overflow", to_source(where)) from None
    return _chain(a, f, fp, fpp)


def _exp(u: Dual2, where: Expr) -> Dual2:
    try:
        e = math.exp(u.val)
    except OverflowError:
        raise ExprDomainError("float overflow", to_source(where)) from None
    return _chain(u, e, e, e)


def _eval(e: Expr, env: dict[str, Dual2]) -> Dual2:
    if isinstance(e, Num):
        return Dual2.folded(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        u = _eval(e.arg, env)
        return Dual2.folded(-u.val) if u.known else Dual2(-u.val, -u.d1, -u.d2)
    if isinstance(e, Call):
        u = _eval(e.arg, env)
        if e.fn in ("sin", "cos"):
            try:
                s, c = math.sin(u.val), math.cos(u.val)
            except ValueError:
                raise ExprDomainError(f"{e.fn} of an infinite value",
                                      to_source(e)) from None
            return _chain(u, s, c, -s) if e.fn == "sin" else _chain(u, c, -s, -c)
        if e.fn == "exp":
            return _exp(u, e)
        if e.fn == "ln":
            if u.val <= 0.0:
                raise ExprDomainError("ln of a non-positive value", to_source(e))
            return _chain(u, math.log(u.val), 1.0 / u.val,
                          _curvature(-1.0, u.val * u.val, e))
        if e.fn == "sqrt":
            if u.val <= 0.0:
                raise ExprDomainError("sqrt of a non-positive value", to_source(e))
            r = math.sqrt(u.val)
            return _chain(u, r, 0.5 / r, _curvature(-0.25, u.val * r, e))
        raise AssertionError(f"unreachable function {e.fn}")
    assert isinstance(e, BinOp)
    a = _eval(e.left, env)
    b = _eval(e.right, env)
    if e.op == "+":
        return _add(a, b)
    if e.op == "-":
        return _sub(a, b)
    if e.op == "*":
        return _mul(a, b)
    if e.op == "/":
        return _div(a, b, e)
    return _pow(a, b, e)


def reference_dual(expr: Expr, x: float) -> tuple[float, float, float]:
    out = _eval(expr, {"x": Dual2.seed(x)})
    return out.val, out.d1, out.d2


def reference_gradient(expr: Expr, names, values) -> tuple[float, list[float]]:
    base = {n: Dual2.const(v) for n, v in zip(names, values)}
    val = _eval(expr, base).val
    grad = []
    for n, v in zip(names, values):
        env = dict(base)
        env[n] = Dual2.seed(v)
        grad.append(_eval(expr, env).d1)
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
        p = 2.0 ** 0.5   # 2^0.5 is a power, which no constant folding carries out
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
        assert Dual2.seed(2.0) == Dual2(2.0, 1.0, 0.0)
        assert Dual2.const(3.0) == Dual2(3.0, 0.0, 0.0)


class TestCompiledMatchesReference:
    @given(_exprs(full=True), _points)
    @settings(max_examples=400, deadline=None)
    def test_eval_dual(self, expr, x):
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)

    @given(_exprs(("x1", "x2", "x3"), full=True), st.lists(_points, min_size=3, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_eval_gradient(self, expr, xs):
        names = ["x1", "x2", "x3"]
        assert (outcome(eval_gradient, expr, names, xs)
                == outcome(reference_gradient, expr, names, xs))
        # the value alone, with every seed 0
        assert (outcome(lambda: [compile_expression(expr, names)(*xs, 0.0, 0.0, 0.0)[0]])
                == outcome(lambda: [_eval(expr, {k: Dual2.const(v)
                                                 for k, v in zip(names, xs)}).val]))

    @given(st.sampled_from([st.tuples(_exprs(tuple(f"x{i + 1}" for i in range(n)), full=True),
                                      st.lists(_points, min_size=n, max_size=n))
                            for n in (1, 2, 3, 4)]).flatmap(lambda case: case))
    @example((parse_expression("ln(x1)*x2", ["x1", "x2"]), [-1.0, 2.0]))
    @example((parse_expression("x2/x1+sqrt(x3)", ["x1", "x2", "x3"]), [0.0, 1.0, 4.0]))
    @example((parse_expression("exp(x4*x1)^x2", ["x1", "x2", "x3", "x4"]), [3.0, 2.0, 1.0, 300.0]))
    @settings(max_examples=300, deadline=None)
    def test_eval_gradient_matches_the_unseeded_value_form(self, case):
        # the value comes from the first seeded call: bit for bit, errors too
        expr, xs = case
        names = [f"x{i + 1}" for i in range(len(xs))]
        assert (bit_outcome(eval_gradient, expr, names, xs)
                == bit_outcome(gradient_with_unseeded_value, expr, names, xs))

    @pytest.mark.parametrize("values", [[1.0], [1.0, 2.0, 3.0]])
    def test_eval_gradient_wrong_number_of_values(self, values):
        expr = parse_expression("x1*x2", ["x1", "x2"])
        with pytest.raises(InvalidParameter, match=f"^values: expected 2 coordinates, "
                                                   f"got {len(values)}$"):
            eval_gradient(expr, ["x1", "x2"], values)

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
        ("(-1)^20*x", 0.5),         # a run-time power of a folded base
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
        # an exponent that reads no variable and does not fold is decided by
        # its value at run time: an integer there squares and multiplies
        expr = parse_expression(text)
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)
        assert (outcome(lambda: [compile_expression(expr)(x, 0.0)[0]])
                == outcome(lambda: [_eval(expr, {"x": Dual2.const(x)}).val]))
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
    length, or raise what it raises, with the same message."""
    args = [*xs, *seeds]
    full = outcome(compile_expression(expr, names, 2), *args)
    for order in (0, 1):
        fn = compile_expression(expr, names, order)
        got = outcome(lambda: [fn(*args)] if order == 0 else fn(*args))
        want = full if isinstance(full[0], type) else full[:order + 1]
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
