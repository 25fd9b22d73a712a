"""Parser and dual-number differentiation tests."""

import math
import sys
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from pdmdyn.errors import ExprDomainError, ExprSyntaxError, UnknownIdentifier
from pdmdyn.exprparse import (FUNCTIONS, MAX_DEPTH, BinOp, Call, Expr, Neg, Num, Var,
                              compile_expression, eval_dual, eval_gradient,
                              eval_value, free_variables, parse_expression,
                              to_source)


# --- reference oracle ---------------------------------------------------------
# The tree walker the compiled code replaced, kept as the reference: the
# compiled code must give the same floats, or raise the same exception with
# the same message.  Deliberate changes, made in both: a float overflow in exp
# or in a power, and sin or cos of an infinite value, are ExprDomainErrors
# here too, where the walker let OverflowError and ValueError out; an integer
# power beyond 16 squares and multiplies instead of multiplying k times.

@dataclass(frozen=True)
class Dual2:
    """Value with first and second derivative with respect to one seed."""

    val: float
    d1: float = 0.0
    d2: float = 0.0

    @staticmethod
    def seed(x: float) -> "Dual2":
        return Dual2(float(x), 1.0, 0.0)

    @staticmethod
    def const(c: float) -> "Dual2":
        return Dual2(float(c), 0.0, 0.0)


def _add(a: Dual2, b: Dual2) -> Dual2:
    return Dual2(a.val + b.val, a.d1 + b.d1, a.d2 + b.d2)


def _sub(a: Dual2, b: Dual2) -> Dual2:
    return Dual2(a.val - b.val, a.d1 - b.d1, a.d2 - b.d2)


def _mul(a: Dual2, b: Dual2) -> Dual2:
    return Dual2(a.val * b.val,
                 a.d1 * b.val + a.val * b.d1,
                 a.d2 * b.val + 2.0 * a.d1 * b.d1 + a.val * b.d2)


def _div(a: Dual2, b: Dual2, where: Expr) -> Dual2:
    if b.val == 0.0:
        raise ExprDomainError("division by zero", to_source(where))
    q = a.val / b.val
    q1 = (a.d1 - q * b.d1) / b.val
    q2 = (a.d2 - 2.0 * q1 * b.d1 - q * b.d2) / b.val
    return Dual2(q, q1, q2)


def _chain(u: Dual2, f: float, fp: float, fpp: float) -> Dual2:
    return Dual2(f, fp * u.d1, fpp * u.d1 * u.d1 + fp * u.d2)


def _int_pow(u: Dual2, k: int, where: Expr) -> Dual2:
    if k == 0:
        return Dual2.const(1.0)
    if k < 0:
        return _div(Dual2.const(1.0), _int_pow(u, -k, where), where)
    if k <= 16:
        out = u
        for _ in range(k - 1):
            out = _mul(out, u)
        return out
    out = Dual2.const(1.0)
    while k:
        if k & 1:
            out = _mul(out, u)
        u = _mul(u, u)
        k >>= 1
    return out


def _pow(a: Dual2, b: Dual2, where: Expr) -> Dual2:
    exponent_constant = b.d1 == 0.0 and b.d2 == 0.0
    if exponent_constant and float(b.val).is_integer():
        # repeated multiplication keeps negative bases exact and real
        return _int_pow(a, int(b.val), where)
    if a.val <= 0.0:
        raise ExprDomainError(
            "non-integer power of a non-positive base", to_source(where))
    if exponent_constant:
        p = b.val
        try:
            f = a.val ** p
            fp, fpp = p * a.val ** (p - 1.0), p * (p - 1.0) * a.val ** (p - 2.0)
        except OverflowError:
            raise ExprDomainError("float overflow", to_source(where)) from None
        return _chain(a, f, fp, fpp)
    ln_a = _chain(a, math.log(a.val), 1.0 / a.val, -1.0 / (a.val * a.val))
    return _exp(_mul(b, ln_a), where)


def _exp(u: Dual2, where: Expr) -> Dual2:
    try:
        e = math.exp(u.val)
    except OverflowError:
        raise ExprDomainError("float overflow", to_source(where)) from None
    return _chain(u, e, e, e)


def _eval(e: Expr, env: dict[str, Dual2]) -> Dual2:
    if isinstance(e, Num):
        return Dual2.const(e.value)
    if isinstance(e, Var):
        return env[e.name]
    if isinstance(e, Neg):
        u = _eval(e.arg, env)
        return Dual2(-u.val, -u.d1, -u.d2)
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
            return _chain(u, math.log(u.val), 1.0 / u.val, -1.0 / (u.val * u.val))
        if e.fn == "sqrt":
            if u.val <= 0.0:
                raise ExprDomainError("sqrt of a non-positive value", to_source(e))
            r = math.sqrt(u.val)
            return _chain(u, r, 0.5 / r, -0.25 / (u.val * r))
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
    names = sorted(free_variables(expr))
    out = _eval(expr, {names[0] if names else "x": Dual2.seed(x)})
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
        assert eval_value(parse_expression("2^3^2"), {}) == 512.0

    def test_negative_exponent(self):
        assert eval_value(parse_expression("2^-2"), {}) == 0.25

    def test_scientific_notation(self):
        assert eval_value(parse_expression("1.5e2+2E-1"), {}) == pytest.approx(150.2)

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
        env = dict(zip(names, xs))
        assert (outcome(lambda: [eval_value(expr, env)])
                == outcome(lambda: [_eval(expr, {k: Dual2.const(v)
                                                 for k, v in env.items()}).val]))

    @pytest.mark.parametrize("text,x", [
        ("1e999", 0.5),             # inf: a bound constant, never source text
        ("x*1e999", 0.5),
        ("x*1e999", 0.0),           # 0 * inf
        ("-1e999^x", 2.0),
        ("2^-2", 0.0),
        ("x^-2", 0.0),              # 1 / x^2 at x = 0
        ("x^x", 2.0),
        ("x^x", -2.0),              # integer exponent at run time
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
    ])
    def test_edge_cases(self, text, x):
        expr = parse_expression(text)
        assert outcome(eval_dual, expr, x) == outcome(reference_dual, expr, x)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(ExprDomainError, match="float overflow in 'exp"):
            eval_dual(parse_expression("exp(x)"), 720.0)
        with pytest.raises(ExprDomainError, match="float overflow in 'x\\^1.5'"):
            eval_dual(parse_expression("x^1.5"), 1e300)

    @pytest.mark.parametrize("text,x", [("x^1e300", 0.5), ("x^1e300", -1.0),
                                        ("x^(x^(x^x))", 3.0), ("x^-(x^(x^x))", 3.0)])
    def test_huge_integer_exponent_at_run_time_returns(self, text, x):
        # zero seeds keep every exponent constant, so the integer power runs
        expr = parse_expression(text)
        assert (outcome(lambda: [eval_value(expr, {"x": x})])
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
        real = exprparse._compile
        monkeypatch.setattr(exprparse, "_compile",
                            lambda *args: compiles.append(args) or real(*args))
        expr = parse_expression("x^2+sin(x)")
        for x in (0.25, 0.5, 0.75):
            eval_dual(expr, x)
            eval_gradient(expr, ["x"], [x])
            eval_value(expr, {"x": x})
        assert len(compiles) == 2   # the lone variable, then the list ("x",)
        assert compile_expression(expr) is compile_expression(expr)


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
