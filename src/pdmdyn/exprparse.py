"""Recursive-descent parser and forward automatic differentiation to second order.

Expressions describe custom mass profiles m(x) and potentials V(x).  The
grammar is deliberately small:

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := '-' factor | power
    power  := atom ('^' factor)?          # right-associative
    atom   := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

with functions sin, cos, exp, ln, sqrt.  Each operator, function call and
pair of parentheses is one level of nesting; at most MAX_DEPTH levels are
accepted, so no expression the parser returns can exhaust the interpreter's
stack.

An evaluation carries value, first and second derivative up to the order its
caller reads: values for the energies, m, m' and V' for the equations of
motion and the map, (m, m', m'') on request.  An Expr is compiled once per
variable list and order into one generated straight-line Python function of
plain floats: each node becomes a few assignments to locals, with its domain
checks inline.  The lines compute with no known zero and no unit seed: a
product with a constant's derivative or a variable's second derivative is
left out of its sum, and so is a seed factor the kernel holds at 1.0 (see
the notes on compilation below).  The compiled function is kept on the
Expr object, so a repeated evaluation neither walks the tree nor compiles
again.  Constants enter the generated code as bound float objects and
variables as positional arguments; no text of the input reaches the
generated source.

A per-coordinate expression (a mass profile or a potential term) is written
in ``x``, the default variable list everywhere; a shared mass is written in
``x1..xn``, and a closed form x_i(t) in ``t``, so its velocity and
acceleration come from the same arithmetic as m' and V'.  ``eval_dual``
runs the order-2 function.  A shared mass's value and gradient come from
one more shape (``compile_gradient``, which ``eval_gradient`` runs): the
order-1 lines once per seed direction j, with the seed s_j = 1 and every
other seed 0 held in locals, so no seed is folded away and each partial
derivative has the bits of an order-1 call seeded along x_j.

The per-point lines and guards of a mass also come in a batch shape: one
generated ``for`` loop over a list of floats, returning the list of
per-point results.  Each entry is bit-identical to the per-point
function's.  Callers that evaluate many independent points (the map, the
potential energy and the mass over 10^4 samples or a trajectory's nodes)
pay one call instead of one per point.

A kernel that checks its points (the mass's batch, a nonlocal map, a
potential's energies and gradients and a type1 or type2 right-hand side)
has one failure path: a failed check (a domain, a pole, a singularity,
m < 0 or, for a shared mass, m <= 0, a non-finite energy) calls the
``fail`` its caller bound with the value it failed on (the point, and the
mass or the energy that failed), which raises what the caller owes there;
an error inside the lines is raised where it happens.  The loop runs the
points in order, so the first failing point raises its own error, and no
kernel is re-run to learn it.

A coordinate's nonlocal map is one more function from the same generator
(``compile_map``): a batch loop over its mass lines and the values of its q
and f, written in ``x``, ``root`` and ``half``.  It returns the columns its
caller reads, a subset of (q, dq/dx, f, m), and runs only their lines: the
checks and q always, the mass at order 1, half and f only where something
reads half.  A set without f and dq/dx therefore returns q where m
underflows to 0, where the full set divides by m in m'/(2m).  So are a
potential's energy and gradient (``compile_potential``): every
coordinate's checks and its value lines, summed, or its order-1 lines,
whose V_i' are the gradient, per point.  So is a type1 system's right-hand side
(``compile_rhs``): every coordinate's checks, its potential's and its
mass's lines at order 1 and its acceleration, one coordinate after another.
So is a type2 system's (``compile_rhs2``): the shared mass's gradient
lines, as ``compile_gradient`` runs them, and its m <= 0 check, then every
coordinate's checks, its potential's lines at order 1 and its acceleration
-(mdot/m) v_i + (1/2)(g_i/m)|v|^2 - V_i'/m, one coordinate after another.
So is a system's energy at one state (``compile_energy``): the kinetic
term, from each coordinate's checks and mass value lines (type1) or the
shared mass's (type2), then the potential's energy lines, and their sum.
So are n closed forms over a grid of times (``compile_grid``): at each t,
coordinate by coordinate, the branch check, the lines at order 2 in t and
the pole and finiteness checks; there an error inside the lines, too, calls
``fail``, with its time.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Union

from .errors import (ExprDomainError, ExprError, ExprSyntaxError, InvalidParameter,
                     UnknownIdentifier)

FUNCTIONS = ("sin", "cos", "exp", "ln", "sqrt")

#: deepest nesting parse_expression accepts (operators, calls, parentheses)
MAX_DEPTH = 100


# --- abstract syntax tree ---------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]


# --- tokenizer --------------------------------------------------------------

_OPS = set("+-*/^()")


@dataclass(frozen=True)
class _Token:
    kind: str   # NUMBER, IDENT, OP, EOF
    text: str
    column: int  # 1-based


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c in _OPS:
            tokens.append(_Token("OP", c, col))
            i += 1
        elif c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lexeme = text[i:j]
            try:
                float(lexeme)
            except ValueError:
                raise ExprSyntaxError(col, "a well-formed number") from None
            tokens.append(_Token("NUMBER", lexeme, col))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("IDENT", text[i:j], col))
            i = j
        else:
            raise ExprSyntaxError(col, f"a token (got {c!r})")
    tokens.append(_Token("EOF", "", n + 1))
    return tokens


# --- parser -----------------------------------------------------------------

class _Parser:
    """Each rule returns (node, depth): depth counts the levels of nesting."""

    def __init__(self, tokens: list[_Token], variables: Sequence[str]):
        self.tokens = tokens
        self.pos = 0
        self.variables = tuple(variables)
        self.level = 0  # factors entered and not yet left

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        tok = self.peek()
        if tok.kind != "OP" or tok.text != op:
            raise ExprSyntaxError(tok.column, f"'{op}'")
        self.advance()

    @staticmethod
    def nest(tok: _Token, node: Expr, depth: int) -> tuple[Expr, int]:
        """node one level above its deepest part; tok locates the error."""
        if depth >= MAX_DEPTH:
            raise ExprSyntaxError(tok.column, f"at most {MAX_DEPTH} levels of nesting")
        return node, depth + 1

    def parse(self) -> Expr:
        node, _ = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError(tok.column, "end of input")
        return node

    def expr(self) -> tuple[Expr, int]:
        node, depth = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            tok = self.advance()
            right, rdepth = self.term()
            node, depth = self.nest(tok, BinOp(tok.text, node, right), max(depth, rdepth))
        return node, depth

    def term(self) -> tuple[Expr, int]:
        node, depth = self.factor()
        while self.peek().kind == "OP" and self.peek().text in "*/":
            tok = self.advance()
            right, rdepth = self.factor()
            node, depth = self.nest(tok, BinOp(tok.text, node, right), max(depth, rdepth))
        return node, depth

    def factor(self) -> tuple[Expr, int]:
        # every recursive rule passes through here, so this bound also
        # bounds the parser's own recursion before any node is built
        tok = self.peek()
        self.level += 1
        if self.level > MAX_DEPTH:
            raise ExprSyntaxError(tok.column, f"at most {MAX_DEPTH} levels of nesting")
        if tok.kind == "OP" and tok.text == "-":
            self.advance()
            arg, depth = self.factor()
            out = self.nest(tok, Neg(arg), depth)
        else:
            out = self.power()
        self.level -= 1
        return out

    def power(self) -> tuple[Expr, int]:
        node, depth = self.atom()
        tok = self.peek()
        if tok.kind == "OP" and tok.text == "^":
            self.advance()
            # exponent may carry a unary minus; recursion keeps ^ right-associative
            right, rdepth = self.factor()
            node, depth = self.nest(tok, BinOp("^", node, right), max(depth, rdepth))
        return node, depth

    def atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "NUMBER":
            return Num(float(tok.text)), 1
        if tok.kind == "IDENT":
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.text == "(":
                if tok.text not in FUNCTIONS:
                    raise UnknownIdentifier(tok.text, tok.column)
                self.advance()
                arg, depth = self.expr()
                self.expect_op(")")
                return self.nest(tok, Call(tok.text, arg), depth)
            if tok.text not in self.variables:
                raise UnknownIdentifier(tok.text, tok.column)
            return Var(tok.text), 1
        if tok.kind == "OP" and tok.text == "(":
            node, depth = self.expr()
            self.expect_op(")")
            return self.nest(tok, node, depth)
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise ExprSyntaxError(tok.column, f"a number, variable or '(' (got {what})")


def parse_expression(text: str, variables: Sequence[str] = ("x",)) -> Expr:
    """Parse ``text`` into an Expr, resolving identifiers against ``variables``.

    Raises ExprSyntaxError (with a 1-based column) or UnknownIdentifier;
    never anything else, however malformed the input.
    """
    return _Parser(_tokenize(text), variables).parse()


@functools.lru_cache(maxsize=256)
def parse_cached(text: str, variables: tuple[str, ...] = ("x",)) -> Expr:
    """parse_expression, run once per (text, variables) among recent calls.

    Systems built from the same text share one Expr, and so the compiled
    forms kept on it: a rebuilt system neither parses nor compiles again.
    The cache is bounded, so building systems over a sweep of parameter
    values does not hold every expression for the life of the process.
    """
    return parse_expression(text, variables)


# --- pretty printer ---------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_source(expr: Expr) -> str:
    """Render an Expr to text that parses back to a structurally equal tree."""
    return _render(expr, 0)


def _render(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        s = repr(e.value)
        # a negative literal behaves like a unary minus precedence-wise
        return f"({s})" if s.startswith("-") and parent_prec > _PREC["neg"] else s
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Call):
        return f"{e.fn}({_render(e.arg, 0)})"
    if isinstance(e, Neg):
        inner = _render(e.arg, _PREC["neg"])
        s = f"-{inner}"
        return f"({s})" if parent_prec > _PREC["neg"] else s
    assert isinstance(e, BinOp)
    prec = _PREC[e.op]
    if e.op == "^":
        # right-associative; left operand must bind tighter than ^
        left = _render(e.left, prec + 1)
        right = _render(e.right, prec)
    else:
        left = _render(e.left, prec)
        right = _render(e.right, prec + 1)
    s = f"{left}{e.op}{right}"
    return f"({s})" if parent_prec > prec else s


# --- compilation to straight-line float code --------------------------------
#
# Each node's (value, d1, d2) triple lives in three locals of the generated
# function.  The arithmetic is that of second-order dual numbers:
#   u*w:   (uw, u'w + uw', u''w + 2u'w' + uw'')
#   u/w:   q = u/w, q' = (u' - qw')/w, q'' = (u'' - 2q'w' - qw'')/w
#   f(u):  (f, f'u', f''u'u' + f'u'')
# and an operation is written the same way, in the same order, wherever it
# appears, so every path gives bit-identical results.  A constant is a value
# whose derivatives are the one bound zero: an operation on two constants
# (unary -, +, -, *, and / by a non-zero constant) is carried out once, at
# compile time, on their values alone.
#
# Known zeros fold.  A derivative named by the bound zero is known to be zero:
# a constant's d1 and d2, a variable's d2, and every derivative above the
# kernel's order.  Each derivative line is a sum of products, and a product
# with a known-zero factor is left out; a derivative left with no product is
# the bound zero and gets no line, and one left with a single product that is
# a name alone is that name, with no copy.  Where a kernel sets its seed s0 to
# 1.0 before the lines that read it (the map, the potential, the right-hand
# sides, the closed-form grid), s0 is left out of every product, since
# x * 1.0 is x bit for bit; the gradient's seeds and compile_expression's
# seed arguments stay factors.  Against multiplying the zeros out, the sign
# of a zero derivative can differ, and a NaN from inf * 0 does not appear.
#
# A kernel of order k emits the value, d1 and d2 lines up to k and every domain
# check whole.  A function's derivative factors f'(u) and f''(u) are emitted
# only where a kept product reads them, so a lower order, or a node whose
# argument has known-zero derivatives, does not raise for an overflow in a
# factor it never reads; otherwise it raises where order 2 raises.  A power's
# rule is fixed when its lines are emitted, from the exponent's tree: one that
# reads a variable is exp(b ln a) on a positive base, any other an integer or a
# real power.  No value line reads a derivative, so no value depends on the
# seeds.

#: integer powers up to this are unrolled; larger ones loop at run time
_UNROLL = 16

_OVERFLOW = "float overflow"


#: a name or a number: the text of a sum that does no arithmetic
_ATOM = re.compile(r"[\w.]+")


class _Slot(NamedTuple):
    """Names holding a node's value and derivatives in the generated code."""

    val: str
    d1: str
    d2: str
    known: float | None = None  # the value, fixed before any input


def _dual_mul(a: tuple, b: tuple) -> tuple[float, float, float]:
    return (a[0] * b[0], a[1] * b[0] + a[0] * b[1],
            a[2] * b[0] + 2.0 * a[1] * b[1] + a[0] * b[2])


def _int_pow(v: float, d1: float, d2: float, k: int,
             where: Expr) -> tuple[float, float, float]:
    """(v, d1, d2) to the integer power k; negative bases stay exact and real.

    Up to _UNROLL factors one at a time, as the unrolled code does; beyond,
    square-and-multiply, about 2 log2(k) products, so even k = 1e300 returns.
    """
    if k == 0:
        return 1.0, 0.0, 0.0
    if k < 0:
        t, t1, t2 = _int_pow(v, d1, d2, -k, where)
        if t == 0.0:
            raise ExprDomainError("division by zero", to_source(where))
        q = 1.0 / t
        q1 = (0.0 - q * t1) / t
        return q, q1, (0.0 - 2.0 * q1 * t1 - q * t2) / t
    base = out = (v, d1, d2)
    if k <= _UNROLL:
        for _ in range(k - 1):
            out = _dual_mul(out, base)
        return out
    out = (1.0, 0.0, 0.0)
    while k:
        if k & 1:
            out = _dual_mul(out, base)
        base = _dual_mul(base, base)
        k >>= 1
    return out


# the only names the generated code reads besides its arguments and bindings
_NAMESPACE = {
    "__builtins__": {"float": float, "int": int, "OverflowError": OverflowError,
                     "ValueError": ValueError, "ZeroDivisionError": ZeroDivisionError},
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "isfinite": math.isfinite, "int_pow": _int_pow,
    "ExprDomainError": ExprDomainError, "to_source": to_source,
}


class _Codegen:
    """Emits the body of one compiled function, node by node: one expression,
    a map's mass, q and f, a potential's terms, or a right-hand side's masses
    and potentials; for a batch, the body of its loop over the points."""

    def __init__(self, names: tuple[str, ...], indent: int = 2):
        self.order = 2                  # of the expression being walked: set by walk
        self.lines: list[str] = []
        self.bound: list[object] = []   # read by the code as k0, k1, ...
        self.count = 0
        self.indent = indent            # 2 inside bind() and compiled(), more in a loop
        self.zero = self.bind(0.0)
        #: the seed that holds 1.0 in the lines that follow, if any: the
        #: kernels that set s0 = 1.0 before they walk name it here
        self.unit: str | None = None
        #: each variable's slot: its value x_i and seed s_i
        self.slots = {name: _Slot(f"x{i}", f"s{i}", self.zero) for i, name in enumerate(names)}
        self.emit(*(f"x{i} = float(x{i})" for i in range(len(names))))

    def bind(self, obj: object) -> str:
        self.bound.append(obj)
        return f"k{len(self.bound) - 1}"

    def fresh(self, *prefixes: str) -> list[str]:
        self.count += 1
        return [f"{p}{self.count}" for p in prefixes]

    def emit(self, *lines: str) -> None:
        self.lines.extend("    " * self.indent + line for line in lines)

    def block(self, head: str, body: Callable[[], None]) -> None:
        self.emit(head)
        self.indent += 1
        body()
        self.indent -= 1

    def check(self, failed: str, args: str, fail: str = "fail") -> None:
        """Call the bound ``fail(args)`` where the condition ``failed`` holds."""
        self.block(f"if {failed}:", lambda: self.emit(f"{fail}({args})"))

    def coordinate(self, i: int, domain: tuple[float, float], pole: float | None,
                   singular: float | None = None, floated: bool = False,
                   fail: str = "fail") -> None:
        """x_i of the point x as a float (unless ``floated`` already), then its
        singularity check and its domain and pole check, each failing as
        fail(i, x); the expressions walked next read x_i as ``x``, seeded by the
        unit seed s0 = 1.0, which the kernel sets before its lines."""
        x = f"x{i}"
        if not floated:
            self.emit(f"{x} = float({x})")
        if singular is not None:
            self.check(f"{x} == {self.bind(singular)}", f"{i}, x", fail)
        lo, hi = map(self.bind, domain)
        outside = f"not {lo} < {x} < {hi}"
        if pole is not None:
            outside += f" or {x} == {self.bind(pole)}"
        self.check(outside, f"{i}, x", fail)
        self.slots = {"x": _Slot(x, "s0", self.zero)}
        self.unit = "s0"

    def raise_domain(self, message: str, where: Expr) -> str:
        return f"raise ExprDomainError({message!r}, to_source({self.bind(where)}))"

    def guarded(self, where: Expr, *lines: str, error: str = "OverflowError",
                message: str = _OVERFLOW) -> None:
        """lines, with a float overflow (or the given error) reported as a domain error."""
        self.block("try:", lambda: self.emit(*lines))
        self.block(f"except {error}:",
                   lambda: self.emit(self.raise_domain(message, where) + " from None"))

    def constant(self, value: float) -> _Slot:
        return _Slot(self.bind(value), self.zero, self.zero, value)

    def walk(self, root: Expr, order: int) -> _Slot:
        """The lines of root at the given order, in post-order over the tree
        without recursion; returns the root's slot."""
        self.order = order
        todo: list[tuple[Expr, bool]] = [(root, False)]
        done: list[_Slot] = []
        while todo:
            node, ready = todo.pop()
            if isinstance(node, Num):
                done.append(self.constant(float(node.value)))
            elif isinstance(node, Var):
                done.append(self.slots[node.name])
            elif not ready:
                todo.append((node, True))
                if isinstance(node, BinOp):
                    todo += [(node.right, False), (node.left, False)]
                elif isinstance(node, (Neg, Call)):
                    todo.append((node.arg, False))
                else:
                    raise TypeError(f"not an expression node: {node!r}")
            elif isinstance(node, BinOp):
                b = done.pop()
                done.append(self.binop(node, done.pop(), b))
            elif isinstance(node, Neg):
                done.append(self.neg(done.pop()))
            else:
                done.append(self.call(node, done.pop()))
        return done.pop()

    def product(self, factors: Sequence[str]) -> str | None:
        """The text of one product of factors: None where a factor is the
        bound zero; a factor that is the unit seed is left out, since x * 1.0
        is x bit for bit, unless it is the only one."""
        if self.zero in factors:
            return None
        return " * ".join([f for f in factors if f != self.unit] or [self.unit])

    def total(self, terms: Sequence[tuple[str, ...]]) -> str | None:
        """The text of a sum of products, left to right, each a tuple of
        factors led by an optional sign "+" or "-"; the products that drop
        (see ``product``) are left out, and None stands for an empty sum."""
        text = ""
        for term in terms:
            sign, factors = (term[0], term[1:]) if term[0] in ("+", "-") else ("+", term)
            product = self.product(factors)
            if product is not None:
                text += (f" {sign} " if text else sign.strip("+")) + product
        return text or None

    def ratio(self, num: str, den: str) -> str:
        """num / den as one factor: the bound zero where num is."""
        return self.zero if num == self.zero else f"({num} / {den})"

    def derivative(self, name: str, order: int, terms: Sequence[tuple[str, ...]],
                   over: str | None = None, force: bool = False) -> str:
        """The name that holds a derivative of the given order, the sum of
        terms (divided by over): the bound zero above this kernel's order or
        where every term drops; a single term that is a name alone, that
        name; otherwise ``name``, assigned here.  With ``force``, ``name``
        is assigned whatever the sum is, up to this kernel's order."""
        if self.order < order:
            return self.zero
        text = self.total(terms) or self.zero
        if not force and (text == self.zero or over is None and _ATOM.fullmatch(text)):
            return text
        if over is not None and text != self.zero:
            text = f"({text}) / {over}"
        self.emit(f"{name} = {text}")
        return name

    def reads(self, u: _Slot) -> tuple[bool, bool]:
        """Whether the chain rule on u reads f'(u) and f''(u) at this order."""
        d1 = self.order >= 1 and u.d1 != self.zero
        return d1 or self.order >= 2 and u.d2 != self.zero, d1 and self.order >= 2

    def neg(self, a: _Slot) -> _Slot:
        if a.known is not None:
            return self.constant(-a.known)
        v, p, q = self.fresh("v", "p", "q")
        self.emit(f"{v} = -{a.val}")
        return _Slot(v, self.derivative(p, 1, [("-", a.d1)]),
                     self.derivative(q, 2, [("-", a.d2)]))

    def binop(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        if node.op in ("+", "-"):
            if a.known is not None and b.known is not None:
                return self.constant(a.known + b.known if node.op == "+" else a.known - b.known)
            v, p, q = self.fresh("v", "p", "q")
            op = node.op
            self.emit(f"{v} = {a.val} {op} {b.val}")
            return _Slot(v, self.derivative(p, 1, [(a.d1,), (op, b.d1)]),
                         self.derivative(q, 2, [(a.d2,), (op, b.d2)]))
        if node.op == "*":
            return self.mul(a, b)
        if node.op == "/":
            return self.div(a, b, node)
        return self.power(node, a, b)

    def mul(self, a: _Slot, b: _Slot) -> _Slot:
        if a.known is not None and b.known is not None:
            return self.constant(a.known * b.known)
        v, p, q = self.fresh("v", "p", "q")
        self.emit(f"{v} = {a.val} * {b.val}")
        return _Slot(v, self.derivative(p, 1, [(a.d1, b.val), (a.val, b.d1)]),
                     self.derivative(q, 2, [(a.d2, b.val), ("2.0", a.d1, b.d1),
                                            (a.val, b.d2)]))

    def div(self, a: _Slot, b: _Slot, where: Expr) -> _Slot:
        if a.known is not None and b.known is not None and b.known != 0.0:
            return self.constant(a.known / b.known)
        v, p, q = self.fresh("v", "p", "q")
        self.block(f"if {b.val} == 0.0:",
                   lambda: self.emit(self.raise_domain("division by zero", where)))
        self.emit(f"{v} = {a.val} / {b.val}")
        p = self.derivative(p, 1, [(a.d1,), ("-", v, b.d1)], b.val)
        return _Slot(v, p, self.derivative(q, 2, [(a.d2,), ("-", "2.0", p, b.d1),
                                                  ("-", v, b.d2)], b.val))

    def chain(self, out: list[str], u: _Slot, fp: str, fpp: str,
              force: bool = False) -> _Slot:
        """f(u) given out[0] = f and the texts of f'(u), f''(u), whose lines
        are emitted where ``reads`` says they are read; with ``force`` its
        derivatives are assigned to out[1] and out[2]."""
        v, p, q = out
        return _Slot(v, self.derivative(p, 1, [(fp, u.d1)], force=force),
                     self.derivative(q, 2, [(fpp, u.d1, u.d1), (fp, u.d2)], force=force))

    def call(self, node: Call, u: _Slot) -> _Slot:
        out = self.fresh("v", "p", "q")
        v = out[0]
        c, c2 = self.fresh("c", "e")
        fp, fpp = self.reads(u)
        if node.fn in ("sin", "cos"):   # both raise ValueError at +-inf
            other = "cos" if node.fn == "sin" else "sin"
            self.guarded(node, f"{v} = {node.fn}({u.val})", *[f"{c} = {other}({u.val})"][:fp],
                         error="ValueError", message=f"{node.fn} of an infinite value")
            if node.fn == "sin":
                return self.chain(out, u, c, f"(-{v})")
            return self.chain(out, u, f"(-{c})", f"(-{v})")
        if node.fn == "exp":
            self.guarded(node, f"{v} = exp({u.val})")
            return self.chain(out, u, v, v)
        if node.fn in ("ln", "sqrt"):
            self.block(f"if {u.val} <= 0.0:", lambda: self.emit(
                self.raise_domain(f"{node.fn} of a non-positive value", node)))
            if node.fn == "ln":
                self.log_factors(node, u, v, c, c2)
            else:
                self.emit(f"{v} = sqrt({u.val})", *[f"{c} = 0.5 / {v}"][:fp])
                if fpp:
                    self.guarded(node, f"{c2} = -0.25 / ({u.val} * {v})",
                                 error="ZeroDivisionError")
            return self.chain(out, u, c, c2)
        raise AssertionError(f"unreachable function {node.fn}")

    def log_factors(self, node: Expr, u: _Slot, v: str, c: str, c2: str) -> None:
        """v = ln u, u > 0, with the derivatives c, c2 where they are read; c2
        overflows where its divisor underflows."""
        fp, fpp = self.reads(u)
        self.emit(f"{v} = log({u.val})", *[f"{c} = 1.0 / {u.val}"][:fp])
        if fpp:
            self.guarded(node, f"{c2} = -1.0 / ({u.val} * {u.val})", error="ZeroDivisionError")

    def power(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        """a^b by a rule fixed here, from the exponent's tree alone: an
        exponent that reads a variable is exp(b ln a) on a positive base;
        any other is an integer or a real power, decided now if it folded to
        a constant and by its value at run time if not."""
        if _reads_variable(node.right):
            return self.exp_log_power(node, a, b)
        if b.known is not None:
            p = b.known
            if p.is_integer():
                return self.int_power(node, a, int(p))
            self.block(f"if {a.val} <= 0.0:", lambda: self.emit(self.raise_domain(
                "non-integer power of a non-positive base", node)))
            return self.const_power(node, a, b.val, self.fresh("v", "p", "q"))
        out = self.fresh("v", "p", "q")
        self.block(f"if {b.val}.is_integer():",
                   lambda: self.int_pow(node, a, f"int({b.val})", out))
        self.block(f"elif {a.val} <= 0.0:", lambda: self.emit(self.raise_domain(
            "non-integer power of a non-positive base", node)))
        # both branches assign the names in out, which the lines after them read
        self.block("else:", lambda: self.const_power(node, a, b.val, out, force=True))
        return _Slot(*out)

    def int_pow(self, node: BinOp, a: _Slot, k: str, out: list[str]) -> None:
        """out = a^k by the run-time int_pow, k the text of an integer."""
        # derivatives a lower kernel lacks enter as 0; the orders it returns never read them
        d1, d2 = (d if self.order >= j else self.zero for j, d in ((1, a.d1), (2, a.d2)))
        self.emit(f"{', '.join(out)} = int_pow({a.val}, {d1}, {d2}, {k}, {self.bind(node)})")

    def int_power(self, node: BinOp, a: _Slot, k: int) -> _Slot:
        if k == 0:
            return self.constant(1.0)
        if abs(k) > _UNROLL:
            out = self.fresh("v", "p", "q")
            self.int_pow(node, a, self.bind(k), out)
            return _Slot(*out)
        out = a
        for _ in range(abs(k) - 1):
            out = self.mul(out, a)
        return self.div(self.constant(1.0), out, node) if k < 0 else out

    def const_power(self, node: BinOp, a: _Slot, p: str, out: list[str],
                    force: bool = False) -> _Slot:
        v, _, _ = out
        c, c2 = self.fresh("c", "e")
        fp, fpp = self.reads(a)
        self.guarded(node, f"{v} = {a.val} ** {p}",
                     *[f"{c} = {p} * {a.val} ** ({p} - 1.0)"][:fp],
                     *[f"{c2} = {p} * ({p} - 1.0) * {a.val} ** ({p} - 2.0)"][:fpp])
        return self.chain(out, a, c, c2, force)

    def exp_log_power(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        """a^b = exp(b ln a) for a varying exponent, on a positive base only."""
        out = self.fresh("v", "p", "q")
        self.block(f"if {a.val} <= 0.0:", lambda: self.emit(self.raise_domain(
            "varying power of a non-positive base", node)))
        lv, lp, lq, c, c2 = self.fresh("lv", "lp", "lq", "c", "e")
        self.log_factors(node, a, lv, c, c2)
        ln_a = self.chain([lv, lp, lq], a, c, c2)
        m = self.mul(b, ln_a)
        self.guarded(node, f"{out[0]} = exp({m.val})")
        return self.chain(out, m, out[0], out[0])


def _reads_variable(expr: Expr, name: str | None = None) -> bool:
    """Whether a variable (the variable ``name``, if given) occurs in expr;
    a walk without recursion."""
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Var) and name in (None, node.name):
            return True
        if isinstance(node, BinOp):
            todo += [node.left, node.right]
        elif isinstance(node, (Neg, Call)):
            todo.append(node.arg)
    return False


def _function(gen: _Codegen, head: list[str], tail: list[str]) -> Callable:
    """``compiled``: the head, gen's lines and the tail, with gen's constants bound."""
    source = "\n".join([
        f"def bind({', '.join(f'k{j}' for j in range(len(gen.bound)))}):",
        *("    " + line for line in head),
        *gen.lines,
        *("    " + line for line in tail),
        "    return compiled",
    ])
    namespace = dict(_NAMESPACE)
    exec(compile(source, "<expression>", "exec"), namespace)
    return namespace["bind"](*gen.bound)


def _compile(expr: Expr, names: tuple[str, ...], order: int,
             batch: bool = False) -> Callable:
    gen = _Codegen(names, 3 if batch else 2)
    if batch:
        gen.check("not lo < x0 < hi", "x0")
    slot = gen.walk(expr, order)
    result = ", ".join(slot[:order + 1])
    if batch:
        gen.check(f"{slot.val} < 0.0", f"x0, {slot.val}")
        gen.emit(f"append(({result}))" if order else f"append({result})")
        head = ["def compiled(xs, s0, lo, hi, fail):",
                "    out = []",
                "    append = out.append",
                "    for x0 in xs:"]
        return _function(gen, head, ["    return out"])
    args = [f"x{i}" for i in range(len(names))] + [f"s{i}" for i in range(len(names))]
    gen.emit(f"return {result}")
    return _function(gen, [f"def compiled({', '.join(args)}):"], [])


def _unpack(target: str, n: int, source: str) -> list[str]:
    """The line ``target0, .., target(n-1), = source``; none for n = 0."""
    return [f"{''.join(f'{target}{i}, ' for i in range(n))}= {source}"] if n else []


#: the variables of a map's q and f: the point, sqrt(m) and m'/(2m) there
MAP_NAMES = ("x", "root", "half")
#: the columns a map kernel can return: q, dq/dx, f and m
MAP_COLUMNS = ("q", "dq", "f", "m")


def _compile_map(mass: Expr, q: Expr, f: Expr, columns: tuple[str, ...]) -> Callable:
    reads_f = "f" in columns or "dq" in columns
    half_first = _reads_variable(q, "half")
    gen = _Codegen(("x",), 3)
    gen.unit = "s0"
    gen.check("not lo < x0 < hi", "x0")
    order = 1 if reads_f or half_first else 0
    m = gen.walk(mass, order)
    gen.check(f"{m.val} < 0.0", f"x0, {m.val}")
    gen.emit(f"root = sqrt({m.val})")
    # q and f are values: every variable's seed is 0
    gen.slots = {name: _Slot(local, gen.zero, gen.zero)
                 for name, local in zip(MAP_NAMES, ("x0", "root", "half"))}
    half = [f"half = {m.d1} / (2.0 * {m.val})"]
    if order and m.d1 == gen.zero:    # a constant mass: half is the constant 0.0, no line
        gen.slots["half"], half = gen.constant(0.0), []
    if half_first:
        gen.emit(*half)
    values = {"q": gen.walk(q, 0).val, "m": m.val}
    if reads_f:
        if not half_first:
            gen.emit(*half)
        values["f"] = gen.walk(f, 0).val
        values["dq"] = f"{values['f']} * root"
    gen.emit(*(f"append{k}({values[c]})" for k, c in enumerate(columns)))
    head = ["def compiled(xs, lo, hi, fail):",
            "    s0 = 1.0",
            f"    out = {', '.join(['[]'] * len(columns))}{',' * (len(columns) == 1)}",
            *(f"    append{k} = out[{k}].append" for k in range(len(columns))),
            "    for x0 in xs:"]
    return _function(gen, head, ["    return out"])


def _compile_potential(exprs: tuple, domain: tuple[float, float],
                       pole: float | None, order: int) -> Callable:
    gen = _Codegen((), 4)
    gen.emit(*_unpack("x", len(exprs), "x"))
    terms = []
    for i, expr in enumerate(exprs):
        gen.coordinate(i, domain, pole)
        terms.append(gen.walk(expr, order)[order])
    if order:
        gen.emit(f"append([{', '.join(terms)}])")
    else:
        gen.emit(f"total = {' + '.join(['0.0', *terms])}")
        gen.check("not isfinite(total)", "None, x, total")
        gen.emit("append(total)")
    head = ["def compiled(fail):",
            "    def energies(points):",
            "        s0 = 1.0",
            "        out = []",
            "        append = out.append",
            "        for x in points:"]
    return _function(gen, head, ["        return out", "    return energies"])


def _compile_rhs(masses: tuple, potentials: tuple, singularities: tuple,
                 domain: tuple[float, float], pole: float | None) -> Callable:
    n = len(masses)
    gen = _Codegen((), 3)
    # velocities are u_i: v<count> names the emitter's own locals
    gen.emit("s0 = 1.0", *_unpack("x", n, "x"), *_unpack("u", n, "v"))
    for i, (mass, potential, singular) in enumerate(zip(masses, potentials, singularities)):
        gen.coordinate(i, domain, pole, singular)
        dv = gen.walk(potential, 1).d1
        m = gen.walk(mass, 1)
        gen.check(f"{m.val} < 0.0", f"{i}, x, {m.val}")
        a = gen.total([("-", gen.ratio(m.d1, f"(2.0 * {m.val})"), f"u{i}", f"u{i}"),
                       ("-", gen.ratio(dv, m.val))])
        gen.emit(f"a{i} = {a or gen.zero}")
    gen.emit(f"return [{', '.join(f'a{i}' for i in range(n))}]")
    return _function(gen, ["def compiled(fail):", "    def rhs(t, x, v):"], ["    return rhs"])


def _gradient(gen: _Codegen, mass: Expr, n: int) -> None:
    """Lines that leave in m and g0..g(n-1) the value and the first partial
    derivatives of mass over gen's variables x0..x(n-1), bit for bit as
    calls of the order-1 kernel give them, one call per seed direction: the
    mass's lines once per direction j, with the seed s_j = 1.0 and every
    other seed 0.0.  The value is the first direction's (no value reads the
    seeds), or with no variables that of one pass of the value lines.  The
    seeds are locals set before each pass, so no zero is folded."""
    value = None if n else gen.walk(mass, 0).val
    seeds: list = [None] * n        # each seed as the lines so far leave it
    for j in range(n):
        want = [float(k == j) for k in range(n)]
        gen.emit(*(f"s{k} = {w}" for k, (w, was) in enumerate(zip(want, seeds)) if w != was))
        seeds = want
        slot = gen.walk(mass, 1)
        gen.emit(f"g{j} = {slot.d1}")   # a copy: d1 may be a seed, set again by the next pass
        value = value or slot.val
    gen.emit(f"m = {value}")


def _compile_gradient(expr: Expr, names: tuple[str, ...]) -> Callable:
    gen = _Codegen(names)
    _gradient(gen, expr, len(names))
    gen.emit(f"return m, [{', '.join(f'g{j}' for j in range(len(names)))}]")
    head = ["def compiled(x):", *("    " + line for line in _unpack("x", len(names), "x"))]
    return _function(gen, head, [])


def _compile_rhs2(mass: Expr, names: tuple[str, ...], potentials: tuple,
                  domain: tuple[float, float], pole: float | None) -> Callable:
    n = len(names)
    gen = _Codegen(names, 3)
    _gradient(gen, mass, n)
    gen.check("m <= 0.0", "None, x, m")
    # mdot and |v|^2 (vv: v<count> names the emitter's own locals) summed from
    # 0.0 in coordinate order, as a running sum adds them; the potential terms
    # are seeded by s0 = 1.0, as compile_rhs seeds them
    gen.emit(f"mdot = {' + '.join(['0.0', *(f'g{i} * u{i}' for i in range(n))])}",
             f"vv = {' + '.join(['0.0', *(f'u{i} * u{i}' for i in range(n))])}",
             "s0 = 1.0")
    for i, potential in enumerate(potentials):
        gen.coordinate(i, domain, pole, floated=True)
        dv = gen.walk(potential, 1).d1
        a = gen.total([("-", "(mdot / m)", f"u{i}"), ("0.5", f"(g{i} / m)", "vv"),
                       ("-", gen.ratio(dv, "m"))])
        gen.emit(f"a{i} = {a}")
    gen.emit(f"return [{', '.join(f'a{i}' for i in range(n))}]")
    head = ["def compiled(fail):", "    def rhs(t, x, v):",
            *("        " + line for line in _unpack("x", n, "x") + _unpack("u", n, "v"))]
    return _function(gen, head, ["    return rhs"])


def _compile_energy(masses: tuple, names: tuple[str, ...] | None, domains: tuple,
                    potentials: tuple, domain: tuple[float, float],
                    pole: float | None) -> Callable:
    n = len(masses) if names is None else len(names)
    gen = _Codegen(names or (), 3)
    # a type1 T reads the velocities u_i; a type2 T passes v to square whole
    unpacked = _unpack("x", n, "x") + (_unpack("u", n, "v") if names is None else [])
    head = ["def compiled(mass, fail, energy, square):", "    def kernel(t, x, v):",
            *("        " + line for line in unpacked)]

    def kinetic() -> None:
        if names is None:
            gen.emit("T = 0.0")
            for i, (expr, mass_domain) in enumerate(zip(masses, domains)):
                gen.coordinate(i, mass_domain, None, floated=True, fail="mass")
                m = gen.walk(expr, 0).val
                gen.check(f"{m} < 0.0", f"{i}, x, {m}", "mass")
                gen.emit(f"T += 0.5 * {m} * u{i} ** 2")
        else:
            m = gen.walk(masses[0], 0).val
            gen.check(f"{m} <= 0.0", f"None, x, {m}", "mass")
            gen.emit(f"T = 0.5 * {m} * square(v)")

    gen.block("try:", kinetic)
    gen.block("except OverflowError:", lambda: gen.emit("energy(t)"))
    gen.check("not isfinite(T)", "t, T", "energy")
    result = "T"
    if potentials:
        terms = []
        for i, expr in enumerate(potentials):
            gen.coordinate(i, domain, pole, floated=True)
            terms.append(gen.walk(expr, 0).val)
        gen.emit(f"V = {' + '.join(['0.0', *terms])}")
        gen.check("not isfinite(V)", "None, x, V")
        gen.emit("E = T + V")
        gen.check("not isfinite(E)", "t, T, V", "energy")
        result = "E"
    gen.emit(f"return {result}")
    return _function(gen, head, ["    return kernel"])


def _compile_grid(exprs: tuple, rates: tuple, phases: tuple, branch: bool,
                  pole: float | None) -> Callable:
    gen = _Codegen((), 5)
    gen.slots = {"t": _Slot("x0", "s0", gen.zero)}
    gen.unit = "s0"
    gen.emit("x0 = float(t)")
    for i, (expr, rate, phase) in enumerate(zip(exprs, rates, phases)):
        if branch:
            gen.check(f"cos({gen.bind(rate)} * x0 + {gen.bind(phase)}) <= 0.0", f"t, {i}")
        x, v, a = gen.walk(expr, 2)[:3]
        if pole is not None:
            gen.check(f"{x} == {gen.bind(pole)}", f"t, {i}, {x}")
        gen.check(f"not (isfinite({x}) and isfinite({v}) and isfinite({a}))",
                  f"t, {i}, {x}, {v}, {a}")
        gen.emit(f"append({x})", f"append({v})", f"append({a})")
    errors = gen.bind((ArithmeticError, ValueError, ExprError))
    head = ["def compiled(fail):",
            "    def grid(ts):",
            "        s0 = 1.0",
            "        out = []",
            "        append = out.append",
            "        for t in ts:",
            "            try:"]
    tail = [f"            except {errors} as err:",
            "                fail(t, None, err)",
            "        return out",
            "    return grid"]
    return _function(gen, head, tail)


def _cached(holder: Expr, key: tuple, build: Callable) -> Callable:
    """build(holder, *key), run once per key and kept on the holder expression.

    A hit builds no argument tuple: compile_expression runs this on every
    evaluation of a shared (type2) mass."""
    cache = vars(holder).setdefault("_compiled", {})
    fn = cache.get(key)
    if fn is None:
        fn = cache[key] = build(holder, *key)
    return fn


def compile_expression(expr: Expr, names: Sequence[str] = ("x",),
                       order: int = 2, batch: bool = False) -> Callable:
    """The compiled form of ``expr`` over the variables ``names``.

    The result ``f(x_1, .., x_n, s_1, .., s_n)`` returns the value for
    ``order`` 0, (value, d1) for 1 and (value, d1, d2) for 2, with x_i the
    value of variable i and s_i its seed: the derivatives are taken along
    the direction s.  Each order returns what order 2 returns, or raises
    what it raises, except for a float overflow in a derivative factor
    above the order, which it never computes (it goes on past it); and the
    value is the same under every seed: a power whose exponent reads a
    variable is exp(b ln a), and an ExprDomainError where a <= 0, whatever
    the seeds.

    With ``batch``, for one variable, a mass, the result
    ``f(xs, s, lo, hi, fail)`` takes an iterable of floats and returns the
    list of what the per-point form returns at each, in order: the same
    lines and guards run inside one loop, with the seed shared by every
    point, so each entry is bit-identical.  A point outside (lo, hi) fails
    before its lines run, as ``fail(x)``, and a point where the value m is
    < 0 after them, as ``fail(x, m)``; fail raises what the caller owes at
    x, and a guard's error is raised where it happens.

    Built once per Expr object, variable list, order and shape; later calls
    return the same function.  A variable missing from ``names`` raises
    KeyError.
    """
    key = (tuple(names), order, True) if batch else (tuple(names), order)
    return _cached(expr, key, _compile)


def compile_map(mass: Expr, q: Expr, f: Expr, columns: tuple[str, ...]) -> Callable:
    """One coordinate's nonlocal map as one compiled batch function.

    ``mass`` is m in ``x``; ``q`` and ``f`` are written in MAP_NAMES: ``x``,
    ``root`` = sqrt(m) and ``half`` = m'/(2m).  ``columns`` names the lists
    the kernel returns, in order, from MAP_COLUMNS: q, dq/dx = f * root, f
    and m.  The result ``kernel(xs, lo, hi, fail)`` returns one list per
    column over the floats xs.  At each x it runs, in this order, the domain
    check, the lines of the mass kernel, the m < 0 check, root, q, half and
    f.  The mass runs at order 1 (so m and m' are its bits) where something
    reads half: f or dq is a column, or q names half (then half runs before
    q); otherwise at order 0, which raises where order 1 raises.  half and
    f run only where f or dq is a column, and f * root only where dq is.  A
    failed check calls ``fail(x)`` for the domain and ``fail(x, m)`` for
    m < 0, which raises what the caller owes at x; an error inside the
    lines is raised where it happens.  So every column set returns the full
    set's columns and raises where it raises, except that a set without f
    and dq returns q where m underflows to 0 and half would divide by it,
    and where the order-1 mass's factor of m' overflows (a non-integer
    power near 0).

    Built once per (mass, q, f, columns), and kept on ``mass``.
    """
    return _cached(mass, (q, f, columns), _compile_map)


def compile_potential(exprs: Sequence[Expr], domain: tuple[float, float],
                      pole: float | None, order: int) -> Callable:
    """The potential energy (``order`` 0) or gradient (``order`` 1) of n
    coordinates as one compiled batch function.

    Coordinate i has the term ``exprs[i]`` in ``x``, inside ``domain`` and
    off ``pole``.  The result ``make(fail)`` returns a function of an
    iterable of points of n floats, which runs at each point each
    coordinate's domain and pole check and its lines of the given order in
    turn.  At order 0 it returns the list of the sums of the values, summed
    from 0.0 in coordinate order; at order 1 the list of [V_1', .., V_n'],
    each the bits of the term's order-1 kernel (the lines compile_rhs runs
    for V'), with no sum.  A failed check calls ``fail(i, x)``, a sum that
    is not finite ``fail(None, x, total)``; an error inside the lines is
    raised where it happens.

    Built once per (exprs, domain, pole, order), and kept on ``exprs[0]``.
    """
    key = (tuple(exprs), tuple(domain), pole, order)
    return _cached(key[0][0], key, lambda _, *key: _compile_potential(*key))


def compile_rhs(masses: Sequence[Expr], potentials: Sequence[Expr],
                singularities: Sequence[float | None], domain: tuple[float, float],
                pole: float | None) -> Callable:
    """The type1 right-hand side of n coordinates as one compiled function.

    Coordinate i has the mass ``masses[i]`` and the potential term
    ``potentials[i]``, both in ``x``; every coordinate lies in the open
    interval ``domain`` and off ``pole``, and off its own entry of
    ``singularities`` where that is not None.  The result ``make(fail)``
    returns ``rhs(t, x, v)``, which takes lists of n floats and returns the
    list of the n accelerations -(m'/2m) v^2 - V'/m.  For each coordinate in
    turn it runs the singularity check, the domain and pole check, the lines
    of the potential term's and of the mass's order-1 kernels (so V', m and
    m' are their bits), the m < 0 check and the acceleration line.  A failed
    check calls ``fail(i, x)``, and the m < 0 check ``fail(i, x, m)``, which
    raises what the caller owes for coordinate i; an error inside the lines
    (ExprDomainError, or ZeroDivisionError where m = 0) is raised where it
    happens, so the first error is that of the first failing coordinate.

    Built once per (masses, potentials, singularities, domain, pole), and
    kept on ``masses[0]``.
    """
    key = (tuple(masses), tuple(potentials), tuple(singularities), tuple(domain), pole)
    return _cached(key[0][0], key, lambda _, *key: _compile_rhs(*key))


def eval_dual(expr: Expr, x: float) -> tuple[float, float, float]:
    """Evaluate an expression in x: (value, d/dx, d2/dx2) at x.

    Derivatives are exact for the grammar's function set; nothing is
    finite-differenced internally.  An InvalidParameter unless x is a
    number.
    """
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter("x", f"expected a number, got {x!r}") from None
    return compile_expression(expr)(x, 1.0)


def compile_gradient(expr: Expr, names: Sequence[str]) -> Callable:
    """The value and first partial derivatives of ``expr`` over the variables
    ``names`` as one compiled function.

    The result ``gradient(x)`` takes a sequence of len(names) numbers and
    returns (value, [d/dx_1, .., d/dx_n]).  It runs the lines of the order-1
    kernel once per seed direction j, with s_j = 1 and every other seed 0,
    one direction after another, so each derivative holds the bits of that
    kernel's call with those seeds.  The value is the first direction's,
    which no seed changes.  An error inside the lines is raised where it
    happens, so the first error is that of the first pass that raises.

    Built once per (expr, names), and kept on ``expr``.
    """
    return _cached(expr, (tuple(names),), _compile_gradient)


def compile_rhs2(mass: Expr, names: Sequence[str], potentials: Sequence[Expr],
                 domain: tuple[float, float], pole: float | None) -> Callable:
    """The type2 right-hand side of n coordinates as one compiled function.

    ``mass`` is the shared mass m over the variables ``names`` (x1..xn);
    coordinate i has the potential term ``potentials[i]`` in ``x``, and every
    coordinate lies in the open interval ``domain`` and off ``pole``.  The
    result ``make(fail)`` returns ``rhs(t, x, v)``, which takes lists of n
    floats and returns the list of the n accelerations

        -(mdot/m) v_i + (1/2)(g_i/m) |v|^2 - V_i'/m,  g = grad m, mdot = g.v.

    It runs, in this order: each x_i as a float; m's gradient lines, as
    compile_gradient runs them, so m and g are its bits; the m <= 0 check,
    failing as fail(None, x, m); mdot and |v|^2, each summed from 0.0 in
    coordinate order; then for each coordinate in turn the domain and pole
    check, failing as fail(i, x), the lines of the potential term's order-1
    kernel (so V_i' is its bits) and the acceleration line.  fail raises
    what the caller owes there; an error inside the lines is raised where it
    happens, so the first error is that of the first failing pass or
    coordinate.

    Built once per (mass, names, potentials, domain, pole), and kept on
    ``mass``.
    """
    return _cached(mass, (tuple(names), tuple(potentials), tuple(domain), pole), _compile_rhs2)


def compile_energy(masses: Sequence[Expr], names: Sequence[str] | None,
                   domains: Sequence[tuple[float, float]], potentials: Sequence[Expr],
                   domain: tuple[float, float], pole: float | None) -> Callable:
    """The energy T + V of n coordinates (or T alone, with no ``potentials``)
    as one compiled function.

    With ``names`` None (type1), coordinate i has the mass ``masses[i]`` in
    ``x`` on the open interval ``domains[i]``, and T = 0.0 + (1/2) m_1 v_1**2
    + .., a running sum in coordinate order.  With ``names`` (type2),
    ``masses[0]`` is the shared mass over them and T = (1/2) m |v|^2, with
    |v|^2 from the bound ``square``.  Coordinate i has the potential term
    ``potentials[i]`` in ``x``, inside ``domain`` and off ``pole``.  The
    result ``make(mass, fail, energy, square)`` returns ``kernel(t, x, v)``,
    which takes lists of n floats and runs, in this order: for type1, each
    coordinate's domain check, its mass's value lines and its m < 0 check,
    failing as mass(i, x) and mass(i, x, m), and its term; for type2, the
    shared mass's value lines and its m <= 0 check, failing as
    mass(None, x, m), and T.  A float overflow in these (in ``v_i ** 2``,
    or an OverflowError from ``square``) calls energy(t), a T that is not
    finite energy(t, T).  Then, as compile_potential's energies at order 0,
    each coordinate's domain and pole check, failing as fail(i, x), and its
    term's value lines; their sum V from 0.0, failing as fail(None, x, V)
    unless finite; and E = T + V, failing as energy(t, T, V) unless finite.
    fail, mass and energy raise what the caller owes there; an error inside
    the lines is raised where it happens.

    Built once per (masses, names, domains, potentials, domain, pole), and
    kept on ``masses[0]``.
    """
    key = (tuple(masses), None if names is None else tuple(names), tuple(domains),
           tuple(potentials), tuple(domain), pole)
    return _cached(key[0][0], key, lambda _, *key: _compile_energy(*key))


def compile_grid(exprs: Sequence[Expr], rates: Sequence[float], phases: Sequence[float],
                 branch: bool, pole: float | None) -> Callable:
    """The closed forms x_i(t) of n coordinates over a grid of times as one
    compiled function.

    ``exprs[i]`` is coordinate i's closed form in ``t``, with the rate
    ``rates[i]`` and phase ``phases[i]``.  The result ``make(fail)`` returns
    ``grid(ts)``: the flat list of (x_i, xdot_i, xddot_i) at each time in
    turn, coordinate by coordinate, each triple the bits of the order-2
    kernel at the seed 1.  At each t, after float(t), each coordinate runs
    the check cos(rate_i t + phase_i) <= 0 (with ``branch``), failing as
    fail(t, i); its lines; the check x_i == ``pole`` (unless None), failing
    as fail(t, i, x_i); and the finiteness check, failing as fail(t, i, x_i,
    xdot_i, xddot_i).  An ArithmeticError, ValueError or ExprError in the
    lines calls fail(t, None, err).  fail raises what the caller owes at t.

    Built once per (exprs, rates, phases, branch, pole), and kept on ``exprs[0]``.
    """
    key = (tuple(exprs), tuple(rates), tuple(phases), branch, pole)
    return _cached(key[0][0], key, lambda _, *key: _compile_grid(*key))


def eval_gradient(expr: Expr, names: Sequence[str],
                  values: Sequence[float]) -> tuple[float, list[float]]:
    """Value and first partial derivatives of a multivariate expression at
    ``values``: one call of its compile_gradient function; an
    InvalidParameter unless there is one value per name."""
    if len(values) != len(names):
        raise InvalidParameter("values", f"expected {len(names)} coordinates, got {len(values)}")
    return compile_gradient(expr, names)(values)
