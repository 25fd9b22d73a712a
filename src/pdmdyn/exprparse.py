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
checks inline, and no line computes with a known zero or a unit seed (see
the notes on compilation below).  The compiled function is kept on the Expr
object, so a repeated evaluation neither walks the tree nor compiles again.
Constants enter the generated code as bound float objects and variables as
positional arguments; no text of the input reaches the generated source.
Every operation and call on constants folds when the kernel is generated,
and a power's rule and integer factors are fixed there too: no kernel
decides anything about its arithmetic at run time.

The one contract of every kernel: **a kernel runs every check of every
node it walks; an assignment runs only where a root reads it.**  A root is
a check (a domain, a pole, a singularity, m < 0, a non-finite energy, a
node's own: a division by zero, ln or sqrt of a non-positive value, a power
of a non-positive base; and an argument's conversion to a float, which
checks a number), an append or a return.  So an error inside an assignment
that nothing reads (an overflow in a derivative factor above the order, or
in the value of a term whose derivative alone is returned) is not raised,
and a check is: ln(x) read only through its derivative 1/x still fails at
x <= 0.  A line that repeats an earlier one's work runs once.

A per-coordinate expression (a mass profile or a potential term) is written
in ``x``, the default variable list everywhere; a shared mass is written in
``x1..xn``, and a closed form x_i(t) in ``t``, so its velocity and
acceleration come from the same arithmetic as m' and V'.  ``eval_dual``
runs the order-2 function, ``eval_gradient`` the gradient shape
(``compile_gradient``): the order-1 lines once per seed direction j, with
the seed of x_j held at 1 and every other seed at 0.

The per-point lines and guards of a mass also come in a batch shape: one
generated ``for`` loop over a list of floats, returning the list of
per-point results, each bit-identical to the per-point function's.  A
kernel that checks its points (the mass's batch, a nonlocal map, a
potential's energies and gradients, a right-hand side, an energy, a
closed-form grid) has one failure path: a failed check calls the ``fail``
its caller bound with the value it failed on, which raises what the caller
owes there; an error inside the lines is raised where it happens (the
grid's calls fail too).  The loop runs the points in order, so the first
failing point raises its own error.

The same generator writes the other kernels, each described where it is
compiled: a coordinate's nonlocal map (``compile_map``), a potential's
energy and gradient (``compile_potential``), a type1 and a type2 right-hand
side (``compile_rhs``, ``compile_rhs2``), a system's energy at one state
(``compile_energy``) and n closed forms over a grid of times
(``compile_grid``).
"""

from __future__ import annotations

import functools
import math
import re
import struct
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
    never anything else, however malformed the input.  An InvalidParameter
    unless text is a string and variables a list or tuple of strings.
    """
    if not isinstance(text, str):
        raise InvalidParameter("text", f"expected a string, got {text!r}")
    if not isinstance(variables, (list, tuple)) or not all(isinstance(v, str) for v in variables):
        raise InvalidParameter("variables", f"expected a list of names, got {variables!r}")
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
    if not isinstance(e, BinOp):
        raise InvalidParameter("expr", f"expected an expression, got {e!r}")
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
# Each node's (value, d1, d2) triple lives in three names of the generated
# function.  The arithmetic is that of second-order dual numbers:
#   u*w:   (uw, u'w + uw', u''w + 2u'w' + uw'')
#   u/w:   q = u/w, q' = (u' - qw')/w, q'' = (u'' - 2q'w' - qw'')/w
#   f(u):  (f, f'u', f''u'u' + f'u'')
# and an operation is written the same way, in the same order, wherever it
# appears, so every path gives bit-identical results.  A constant is a value
# whose derivatives are the bound zero.  Constants fold: an operation or call
# on constants is carried out once, when the kernel is generated, on their
# values alone and by the arithmetic the kernel would run, wherever that
# raises nothing: unary -, +, -, *, / by a non-zero constant, sin, cos,
# exp, ln and sqrt (ln and sqrt of a value > 0 or NaN, so a check that
# would fail stays), an integer power, and a real power of a base > 0 or
# NaN that does not overflow.  So an exponent that reads no variable is a
# number when the kernel is generated, unless its own evaluation raises.
#
# Known zeros fold.  The bound zero k0 is a derivative known to be zero: a
# constant's d1 and d2, a variable's d2 and a seed held at 0.  Each node is
# walked to second order; a kernel of a lower order returns fewer names, and
# the backward pass below drops what only the others read.  Each derivative
# line is a sum of products; a product with a known-zero factor is left
# out, and so is a factor that is the bound 1.0 (a seed held at 1, or a
# constant 1; x * 1.0 is x bit for bit).  Against multiplying the zeros
# out, the sign of a zero derivative can differ, and a NaN from inf * 0 does
# not appear.  compile_expression's seed arguments stay factors.
#
# The module's contract rests on two passes over statement records (the
# names each writes and reads, and its text).  At emission, an assignment
# whose right-hand side the kernel has assigned already, or a check whose
# condition it has tested, is not emitted again: the earlier name stands
# for it (a table).  Before the lines are joined, one backward pass keeps
# the roots and the assignments they read.  A power's rule is fixed from the
# exponent's tree: one that reads a variable is exp(b ln a) on a positive
# base; any other has folded to a number, and is an integer power,
# multiplied out inline, or a real power, so no value reads a seed.  An
# exponent whose evaluation raises keeps the real power's check, which
# reads it, so the kernel raises there.

#: integer powers up to this are unrolled; larger ones square and multiply
_UNROLL = 16

_OVERFLOW = "float overflow"


#: a name or a number: the text of a sum that does no arithmetic
_ATOM = re.compile(r"[\w.]+")
#: the names a statement reads: identifiers outside string literals (read as "")
_NAME = re.compile(r"'[^']*'|\"[^\"]*\"|([A-Za-z_]\w*)")


class _Slot(NamedTuple):
    """Names holding a node's value and derivatives in the generated code."""

    val: str
    d1: str
    d2: str
    known: float | None = None  # the value, fixed before any input


class _Line(NamedTuple):
    """One generated statement: the names it writes (none: a root) and reads,
    and its text."""

    writes: tuple[str, ...]
    reads: frozenset[str]
    text: str


def _source(body: list[_Line]) -> list[str]:
    """The source lines of body's statements that a root needs, by one
    backward pass: ``live`` holds the names read after the statement at hand."""
    live: set[str] = set()
    kept = []
    for line in reversed(body):
        if line.writes and live.isdisjoint(line.writes):
            continue
        kept.append(line.text)
        live.difference_update(line.writes)
        live |= line.reads
    return [text for line in reversed(kept) for text in line.split("\n")]


# the only names the generated code reads besides its arguments and bindings
_NAMESPACE = {
    "__builtins__": {"float": float, "OverflowError": OverflowError,
                     "ValueError": ValueError, "ZeroDivisionError": ZeroDivisionError},
    "sin": math.sin, "cos": math.cos, "exp": math.exp, "log": math.log,
    "sqrt": math.sqrt, "isfinite": math.isfinite,
    "ExprDomainError": ExprDomainError, "to_source": to_source,
}


class _Codegen:
    """Emits the body of one compiled function, node by node: one expression,
    a map's mass, q and f, a potential's terms, or a right-hand side's masses
    and potentials; for a batch, the body of its loop over the points."""

    def __init__(self, names: tuple[str, ...], indent: int = 2, point: str = "x"):
        self.body: list[_Line] = []
        self.indent = indent            # 2 inside bind() and compiled(), more in a loop
        # read by the code as k0, k1, ...: k0 is the known zero, apart from
        # any constant 0.0, which is a value
        self.bound: list[object] = [0.0]
        self.keys: dict = {}
        self.zero = "k0"
        self.one = self.bind(1.0)
        #: each right-hand side, and each check's "if" line, emitted so far
        self.table: dict[str, str] = {}
        self.count = 0
        self.point = point              # what a failed check hands fail as the point x
        #: each variable's slot: its value x_i and seed s_i; x_i's float() is a root
        self.slots = {name: _Slot(f"x{i}", f"s{i}", self.zero) for i, name in enumerate(names)}
        for i in range(len(names)):
            self.emit(f"x{i} = float(x{i})")

    def bind(self, obj: object) -> str:
        """The name the code reads obj by: one per float (by its bits), int
        and other object, so identical work has identical text."""
        key = (struct.pack("<d", obj) if isinstance(obj, float)
               else obj if isinstance(obj, int) else (id(obj),))
        if key not in self.keys:
            self.keys[key] = f"k{len(self.bound)}"
            self.bound.append(obj)
        return self.keys[key]

    def emit(self, text: str, *writes: str) -> None:
        """One statement: the assignment ``writes = ...``, or a root."""
        reads = _NAME.findall(text.partition(" = ")[2] if writes else text)
        self.body.append(_Line(writes, frozenset(reads), text))

    def assign(self, prefix: str, rhs: str, guard: str = "") -> str:
        """The name that holds rhs: rhs itself where it is a name or a number,
        the earlier name where the kernel has assigned rhs already, otherwise
        a new one, ``prefix`` and a count, assigned here, in a try with the
        except clause ``guard`` if given."""
        if _ATOM.fullmatch(rhs):
            return rhs
        if rhs not in self.table:
            self.count += 1
            name = self.table[rhs] = f"{prefix}{self.count}"
            text = f"{name} = {rhs}"
            self.emit(f"try:\n    {text}\n{guard}" if guard else text, name)
        return self.table[rhs]

    def squares(self, n: int) -> str:
        """The name that holds |v|^2 of u0..u(n-1): a running sum from 0.0."""
        return self.assign("vv", " + ".join(["0.0", *(f"u{i} * u{i}" for i in range(n))]))

    def check(self, failed: str, then: str) -> None:
        """``then``, a fail call or a raise, where the condition ``failed``
        holds; nothing where the kernel has tested ``failed`` already."""
        head = f"if {failed}:"
        if head not in self.table:
            self.table[head] = ""
            self.emit(f"{head}\n    {then}")

    def coordinate(self, i: int, domain: tuple[float, float], pole: float | None,
                   singular: float | None = None, fail: str = "fail") -> None:
        """The float x_i's singularity check and its domain and pole check,
        each failing as fail(i, point); the expressions walked next read x_i
        as ``x``, seeded by the bound 1.0."""
        x, point = f"x{i}", self.point
        if singular is not None:
            self.check(f"{x} == {self.bind(singular)}", f"{fail}({i}, {point})")
        lo, hi = map(self.bind, domain)
        outside = f"not {lo} < {x} < {hi}"
        if pole is not None:
            outside += f" or {x} == {self.bind(pole)}"
        self.check(outside, f"{fail}({i}, {point})")
        self.slots = {"x": _Slot(x, self.one, self.zero)}

    def raise_domain(self, message: str, where: Expr) -> str:
        return f"raise ExprDomainError({message!r}, to_source({self.bind(where)}))"

    def guard(self, where: Expr, error: str = "OverflowError", message: str = _OVERFLOW) -> str:
        """The except clause that reports ``error`` as a domain error at where."""
        return f"except {error}:\n    {self.raise_domain(message, where)} from None"

    def constant(self, value: float) -> _Slot:
        return _Slot(self.bind(value), self.zero, self.zero, value)

    def walk(self, root: Expr) -> _Slot:
        """The lines of root to second order, in post-order over the tree
        without recursion; returns the root's slot.  A variable's slot may be
        a function that emits its lines, called where the tree reads it."""
        todo: list[tuple[Expr, bool]] = [(root, False)]
        done: list[_Slot] = []
        while todo:
            node, ready = todo.pop()
            if isinstance(node, Num):
                done.append(self.constant(float(node.value)))
            elif isinstance(node, Var):
                slot = self.slots.get(node.name)
                if slot is None:
                    raise InvalidParameter("names", f"{node.name!r} is not among the variables")
                done.append(slot() if callable(slot) else slot)
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
        bound zero; a factor that is the bound 1.0 is left out, since x * 1.0
        is x bit for bit, unless it is the only one."""
        if self.zero in factors:
            return None
        return " * ".join([f for f in factors if f != self.one] or [self.one])

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

    def derivative(self, order: int, terms: Sequence[tuple[str, ...]],
                   over: str | None = None) -> str:
        """The name that holds a derivative of the given order, the sum of
        terms (divided by over): the bound zero where every term drops,
        otherwise as ``assign`` gives it."""
        text = self.total(terms)
        if text is None:
            return self.zero
        return self.assign("pq"[order - 1], text if over is None else f"({text}) / {over}")

    def neg(self, a: _Slot) -> _Slot:
        if a.known is not None:
            return self.constant(-a.known)
        return _Slot(self.assign("v", f"-{a.val}"), self.derivative(1, [("-", a.d1)]),
                     self.derivative(2, [("-", a.d2)]))

    def binop(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        if node.op in ("+", "-"):
            if a.known is not None and b.known is not None:
                return self.constant(a.known + b.known if node.op == "+" else a.known - b.known)
            op = node.op
            return _Slot(self.assign("v", f"{a.val} {op} {b.val}"),
                         self.derivative(1, [(a.d1,), (op, b.d1)]),
                         self.derivative(2, [(a.d2,), (op, b.d2)]))
        if node.op == "*":
            return self.mul(a, b)
        if node.op == "/":
            return self.div(a, b, node)
        return self.power(node, a, b)

    def mul(self, a: _Slot, b: _Slot) -> _Slot:
        if a.known is not None and b.known is not None:
            return self.constant(a.known * b.known)
        return _Slot(self.assign("v", f"{a.val} * {b.val}"),
                     self.derivative(1, [(a.d1, b.val), (a.val, b.d1)]),
                     self.derivative(2, [(a.d2, b.val), ("2.0", a.d1, b.d1), (a.val, b.d2)]))

    def div(self, a: _Slot, b: _Slot, where: Expr, checked: bool = True) -> _Slot:
        """a / b: a zero divisor fails its check, or, not ``checked``, raises
        from the quotient's assignment, so only where the quotient is read."""
        if a.known is not None and b.known is not None and b.known != 0.0:
            return self.constant(a.known / b.known)
        if checked:
            self.check(f"{b.val} == 0.0", self.raise_domain("division by zero", where))
        v = self.assign("v", f"{a.val} / {b.val}", "" if checked else
                        self.guard(where, "ZeroDivisionError", "division by zero"))
        p = self.derivative(1, [(a.d1,), ("-", v, b.d1)], b.val)
        return _Slot(v, p, self.derivative(2, [(a.d2,), ("-", "2.0", p, b.d1), ("-", v, b.d2)],
                                           b.val))

    def chain(self, u: _Slot, v: str, fp: str | Callable[[], str],
              fpp: str | Callable[[], str]) -> _Slot:
        """f(u) given its value v and the texts of f'(u) and f''(u), each
        given as a function that assigns it where its line can raise.  Such
        a function is called only where a derivative reads the factor, so
        its line sits in the first direction that needs it: emitted in an
        earlier direction, the table would keep it there, ahead of that
        direction's later checks."""
        def factor(f: str | Callable[[], str], read: bool) -> str:
            return self.zero if not read else f() if callable(f) else f
        fp = factor(fp, u.d1 != self.zero or u.d2 != self.zero)
        fpp = factor(fpp, u.d1 != self.zero)
        return _Slot(v, self.derivative(1, [(fp, u.d1)]),
                     self.derivative(2, [(fpp, u.d1, u.d1), (fp, u.d2)]))

    def call(self, node: Call, u: _Slot) -> _Slot:
        """f(u); of a constant, f's value where the kernel's check and call
        raise nothing (so ln and sqrt of a value > 0 or NaN)."""
        if u.known is not None and not (node.fn in ("ln", "sqrt") and u.known <= 0.0):
            try:
                return self.constant(_NAMESPACE["log" if node.fn == "ln" else node.fn](u.known))
            except (OverflowError, ValueError):
                pass
        if node.fn in ("sin", "cos"):   # both raise ValueError at +-inf
            guard = self.guard(node, "ValueError", f"{node.fn} of an infinite value")
            v = self.assign("v", f"{node.fn}({u.val})", guard)
            c = self.assign("c", f"{'cos' if node.fn == 'sin' else 'sin'}({u.val})", guard)
            return self.chain(u, v, c if node.fn == "sin" else f"(-{c})", f"(-{v})")
        if node.fn == "exp":
            v = self.assign("v", f"exp({u.val})", self.guard(node))
            return self.chain(u, v, v, v)
        if node.fn not in ("ln", "sqrt"):
            raise AssertionError(f"unreachable function {node.fn}")
        self.check(f"{u.val} <= 0.0",
                   self.raise_domain(f"{node.fn} of a non-positive value", node))
        if node.fn == "ln":
            return self.log(node, u)
        v = self.assign("v", f"sqrt({u.val})")
        return self.chain(u, v, self.assign("c", f"0.5 / {v}"),
                          lambda: self.assign("e", f"-0.25 / ({u.val} * {v})",
                                              self.guard(node, "ZeroDivisionError")))

    def log(self, node: Expr, u: _Slot) -> _Slot:
        """ln u, where u > 0; its second factor overflows where its divisor
        underflows."""
        return self.chain(u, self.assign("v", f"log({u.val})"), self.assign("c", f"1.0 / {u.val}"),
                          lambda: self.assign("e", f"-1.0 / ({u.val} * {u.val})",
                                              self.guard(node, "ZeroDivisionError")))

    def power(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        """a^b by a rule fixed here, from the exponent's tree alone: an
        exponent that reads a variable is exp(b ln a) on a positive base;
        any other has folded to its value, an integer power or a real one
        (of a constant base > 0 or NaN, its value where ** does not
        overflow).  An exponent that did not fold raises where it is read,
        and the real power's check reads it."""
        if _reads_variable(node.right):
            return self.exp_log_power(node, a, b)
        if b.known is not None and b.known.is_integer():
            return self.int_power(node, a, int(b.known))
        if a.known is not None and b.known is not None and not a.known <= 0.0:
            try:
                return self.constant(a.known ** b.known)
            except OverflowError:
                pass
        non_integer = "" if b.known is not None else f" and not {b.val}.is_integer()"
        self.check(f"{a.val} <= 0.0{non_integer}",
                   self.raise_domain("non-integer power of a non-positive base", node))
        return self.const_power(node, a, b.val)

    def int_power(self, node: BinOp, a: _Slot, k: int) -> _Slot:
        """a^k: up to _UNROLL factors one at a time, beyond that by
        square-and-multiply (about 2 log2 |k| products, so even k = 1e300 is
        emitted); a negative k is 1 / a^|k|, whose zero divisor beyond
        _UNROLL raises where the power is read, not in a check."""
        if k == 0:
            return self.constant(1.0)
        out, n = a, abs(k)
        if n <= _UNROLL:
            for _ in range(n - 1):
                out = self.mul(out, a)
        else:
            out = None
            while n:
                if n & 1:
                    out = a if out is None else self.mul(out, a)
                a, n = self.mul(a, a), n >> 1
        return self.div(self.constant(1.0), out, node, -k <= _UNROLL) if k < 0 else out

    def const_power(self, node: BinOp, a: _Slot, p: str) -> _Slot:
        guard = self.guard(node)
        return self.chain(a, self.assign("v", f"{a.val} ** {p}", guard),
                          lambda: self.assign("c", f"{p} * {a.val} ** ({p} - 1.0)", guard),
                          lambda: self.assign("e", f"{p} * ({p} - 1.0) * {a.val} ** ({p} - 2.0)",
                                              guard))

    def exp_log_power(self, node: BinOp, a: _Slot, b: _Slot) -> _Slot:
        """a^b = exp(b ln a) for a varying exponent, on a positive base only."""
        self.check(f"{a.val} <= 0.0",
                   self.raise_domain("varying power of a non-positive base", node))
        m = self.mul(b, self.log(node, a))
        v = self.assign("v", f"exp({m.val})", self.guard(node))
        return self.chain(m, v, v, v)


def _reads_variable(expr: Expr) -> bool:
    """Whether a variable occurs in expr; a walk without recursion."""
    todo = [expr]
    while todo:
        node = todo.pop()
        if isinstance(node, Var):
            return True
        if isinstance(node, BinOp):
            todo += [node.left, node.right]
        elif isinstance(node, (Neg, Call)):
            todo.append(node.arg)
    return False


def _function(gen: _Codegen, head: list[str], tail: list[str]) -> Callable:
    """``compiled``: the head, the lines of gen a root needs and the tail,
    with gen's constants bound."""
    source = "\n".join([
        f"def bind({', '.join(f'k{j}' for j in range(len(gen.bound)))}):",
        *("    " + line for line in head),
        *("    " * gen.indent + line for line in _source(gen.body)),
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
        gen.check("not lo < x0 < hi", "fail(x0)")
    slot = gen.walk(expr)
    result = ", ".join(slot[:order + 1])
    if batch:
        gen.check(f"{slot.val} < 0.0", f"fail(x0, {slot.val})")
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
    gen = _Codegen(("x",), 3)
    gen.check("not lo < x0 < hi", "fail(x0)")
    gen.slots["x"] = _Slot("x0", gen.one, gen.zero)
    m = gen.walk(mass)
    gen.check(f"{m.val} < 0.0", f"fail(x0, {m.val})")
    root = (gen.constant(math.sqrt(m.known)).val if m.known is not None and not m.known < 0.0
            else gen.assign("r", f"sqrt({m.val})"))
    # q and f are values: every variable's seed is 0; half runs where q or f
    # first reads it, and is the constant 0.0 where m is constant
    half = gen.constant(0.0) if m.d1 == gen.zero else (lambda: _Slot(
        gen.assign("h", f"{m.d1} / (2.0 * {m.val})"), gen.zero, gen.zero))
    gen.slots = {"x": _Slot("x0", gen.zero, gen.zero), "root": _Slot(root, gen.zero, gen.zero),
                 "half": half}
    values = {"q": gen.walk(q).val, "m": m.val, "f": gen.walk(f).val}
    values["dq"] = f"{values['f']} * {root}"
    gen.emit("\n".join(f"append{k}({values[c]})" for k, c in enumerate(columns)))
    head = ["def compiled(xs, lo, hi, fail):",
            f"    out = {', '.join(['[]'] * len(columns))}{',' * (len(columns) == 1)}",
            *(f"    append{k} = out[{k}].append" for k in range(len(columns))),
            "    for x0 in xs:"]
    return _function(gen, head, ["    return out"])


def _compile_potential(exprs: tuple, domain: tuple[float, float],
                       pole: float | None, order: int) -> Callable:
    gen = _Codegen((), 4)
    terms = []
    for i, expr in enumerate(exprs):
        gen.coordinate(i, domain, pole)
        terms.append(gen.walk(expr)[order])
    if order:
        gen.emit(f"append([{', '.join(terms)}])")
    else:
        total = gen.assign("total", " + ".join(["0.0", *terms]))
        gen.check(f"not isfinite({total})", f"fail(None, x, {total})")
        gen.emit(f"append({total})")
    head = ["def compiled(fail):",
            "    def energies(points):",
            "        out = []",
            "        append = out.append",
            "        for x in points:",
            *("            " + line for line in _unpack("x", len(exprs), "x")),
            *(f"            x{i} = float(x{i})" for i in range(len(exprs)))]
    return _function(gen, head, ["        return out", "    return energies"])


def _rhs_function(gen: _Codegen, n: int, accelerations: list[str]) -> Callable:
    """make(fail): the kernel ``scalar(t, x0, .., u0, ..)``, gen's lines over
    floats, and ``rhs(t, x, v)`` over lists, which calls it on x's entries as floats."""
    gen.emit(f"return {', '.join(accelerations)},")
    args = [f"{c}{i}" for c in "xu" for i in range(n)]
    floats = ", ".join([*(f"float({x})" for x in args[:n]), *args[n:]])
    head = ["def compiled(fail):", f"    def scalar(t, {', '.join(args)}):"]
    return _function(gen, head, [
        "    def rhs(t, x, v):",
        *("        " + line for line in _unpack("x", n, "x") + _unpack("u", n, "v")),
        f"        return [*scalar(t, {floats})]", "    rhs.scalar = scalar", "    return rhs"])


def _compile_rhs(masses: tuple, potentials: tuple, singularities: tuple,
                 domain: tuple[float, float], pole: float | None) -> Callable:
    n = len(masses)
    gen = _Codegen((), 3, f"[{', '.join(f'x{i}' for i in range(n))}]")
    accelerations = []
    for i, (mass, potential, singular) in enumerate(zip(masses, potentials, singularities)):
        gen.coordinate(i, domain, pole, singular)
        dv = gen.walk(potential).d1
        m = gen.walk(mass)
        gen.check(f"{m.val} < 0.0", f"fail({i}, {gen.point}, {m.val})")
        # velocities are u_i: v<count> names the emitter's own locals
        a = gen.total([("-", gen.ratio(m.d1, f"(2.0 * {m.val})"), f"u{i}", f"u{i}"),
                       ("-", gen.ratio(dv, m.val))])
        accelerations.append(gen.assign("a", a or gen.zero))
    return _rhs_function(gen, n, accelerations)


def _gradient(gen: _Codegen, mass: Expr, names: tuple[str, ...]) -> tuple[str, list[str]]:
    """The names of the value and the first partial derivatives of mass over
    the variables names, read as x0..x(n-1): the mass's order-1 lines once
    per direction j, with the seed of x_j the bound 1.0 and every other seed
    the bound zero, so each direction folds its known zeros.  No value reads
    the seeds, so each direction's value lines repeat the first's text and
    are not emitted again; with no variables, the value lines alone."""
    directions = []
    for j in range(len(names)):
        gen.slots = {name: _Slot(f"x{k}", gen.one if k == j else gen.zero, gen.zero)
                     for k, name in enumerate(names)}
        directions.append(gen.walk(mass))
    value = directions[0].val if directions else gen.walk(mass).val
    return value, [slot.d1 for slot in directions]


def _compile_gradient(expr: Expr, names: tuple[str, ...]) -> Callable:
    gen = _Codegen(names)
    m, grad = _gradient(gen, expr, names)
    gen.emit(f"return {m}, [{', '.join(grad)}]")
    head = ["def compiled(x):", *("    " + line for line in _unpack("x", len(names), "x"))]
    return _function(gen, head, [])


def _compile_rhs2(mass: Expr, names: tuple[str, ...], potentials: tuple,
                  domain: tuple[float, float], pole: float | None) -> Callable:
    n = len(names)
    gen = _Codegen((), 3, f"[{', '.join(f'x{i}' for i in range(n))}]")
    m, grad = _gradient(gen, mass, names)
    gen.check(f"{m} <= 0.0", f"fail(None, {gen.point}, {m})")
    # mdot summed from 0.0 in coordinate order, as a running sum adds it
    mdot = gen.assign("mdot", gen.total([("0.0",), *((g, f"u{i}") for i, g in enumerate(grad))]))
    vv = gen.squares(n)
    accelerations = []
    for i, (potential, g) in enumerate(zip(potentials, grad)):
        gen.coordinate(i, domain, pole)
        dv = gen.walk(potential).d1
        accelerations.append(gen.assign("a", gen.total([
            ("-", f"({mdot} / {m})", f"u{i}"), ("0.5", gen.ratio(g, m), vv),
            ("-", gen.ratio(dv, m))])))
    return _rhs_function(gen, n, accelerations)


def _compile_energy(masses: tuple, names: tuple[str, ...] | None, domains: tuple,
                    potentials: tuple, domain: tuple[float, float],
                    pole: float | None) -> Callable:
    n = len(masses) if names is None else len(names)
    gen = _Codegen(names or (), 3)
    head = ["def compiled(mass, fail, energy):", "    def kernel(t, x, v):",
            *("        " + line for line in _unpack("x", n, "x") + _unpack("u", n, "v"))]
    if names is None:
        T = "0.0"
        for i, (expr, mass_domain) in enumerate(zip(masses, domains)):
            gen.coordinate(i, mass_domain, None, fail="mass")
            m = gen.walk(expr).val
            gen.check(f"{m} < 0.0", f"mass({i}, x, {m})")
            T = gen.assign("T", f"{T} + 0.5 * {m} * u{i} ** 2",
                           "except OverflowError:\n    energy(t)")
    else:
        m = gen.walk(masses[0]).val
        gen.check(f"{m} <= 0.0", f"mass(None, x, {m})")
        vv = gen.squares(n)
        T = gen.assign("T", f"0.5 * {m} * {vv}")
    gen.check(f"not isfinite({T})", f"energy(t, {T})")
    result = T
    if potentials:
        terms = []
        for i, expr in enumerate(potentials):
            gen.coordinate(i, domain, pole)
            terms.append(gen.walk(expr).val)
        V = gen.assign("V", " + ".join(["0.0", *terms]))
        gen.check(f"not isfinite({V})", f"fail(None, x, {V})")
        result = gen.assign("E", f"{T} + {V}")
        gen.check(f"not isfinite({result})", f"energy(t, {T}, {V})")
    gen.emit(f"return {result}")
    return _function(gen, head, ["    return kernel"])


def _compile_grid(exprs: tuple, rates: tuple, phases: tuple, branch: bool,
                  pole: float | None) -> Callable:
    gen = _Codegen((), 5)
    gen.emit("x0 = float(t)")
    gen.slots = {"t": _Slot("x0", gen.one, gen.zero)}
    for i, (expr, rate, phase) in enumerate(zip(exprs, rates, phases)):
        if branch:
            gen.check(f"cos({gen.bind(rate)} * x0 + {gen.bind(phase)}) <= 0.0", f"fail(t, {i})")
        x, v, a = gen.walk(expr)[:3]
        if pole is not None:
            gen.check(f"{x} == {gen.bind(pole)}", f"fail(t, {i}, {x})")
        gen.check(f"not (isfinite({x}) and isfinite({v}) and isfinite({a}))",
                  f"fail(t, {i}, {x}, {v}, {a})")
        gen.emit(f"append({x})\nappend({v})\nappend({a})")
    errors = gen.bind((ArithmeticError, ValueError, ExprError))
    head = ["def compiled(fail):",
            "    def grid(ts):",
            "        out = []",
            "        append = out.append",
            "        for t in ts:",
            "            try:"]
    tail = [f"            except {errors} as err:",
            "                fail(t, None, err)",
            "        return out",
            "    return grid"]
    return _function(gen, head, tail)


def _expression(expr: object) -> None:
    if not isinstance(expr, (Num, Var, Neg, BinOp, Call)):
        raise InvalidParameter("expr", f"expected an expression, got {expr!r}")


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
    the direction s.  Each order's lines are the order-2 walk's, of which
    the backward pass keeps what it returns and checks, so under the
    module's contract each order returns what order 2 returns, cut to its
    length, or raises what it raises, except for a float overflow in a
    derivative factor above the order, which it never computes; and the
    value is the same under every seed.  Every power is decided here: an
    integer one, however large its exponent, is a chain of products (about
    2 log2 |k|), written out when the kernel is generated.

    With ``batch``, for one variable, a mass, the result
    ``f(xs, s, lo, hi, fail)`` takes an iterable of floats and returns the
    list of what the per-point form returns at each, in order: the same
    lines and guards run inside one loop, with the seed shared by every
    point, so each entry is bit-identical.  A point outside (lo, hi) fails
    before its lines run, as ``fail(x)``, and a point where the value m is
    < 0 after them, as ``fail(x, m)``; fail raises what the caller owes at
    x, and a guard's error is raised where it happens.

    Built once per Expr object, variable list, order and shape; later calls
    return the same function.
    """
    key = (tuple(names), order, True) if batch else (tuple(names), order)
    return _cached(expr, key, _compile)


def compile_map(mass: Expr, q: Expr, f: Expr, columns: tuple[str, ...]) -> Callable:
    """One coordinate's nonlocal map as one compiled batch function.

    ``mass`` is m in ``x``; ``q`` and ``f`` are written in MAP_NAMES: ``x``,
    ``root`` = sqrt(m) and ``half`` = m'/(2m).  ``columns`` names the lists
    the kernel returns, in order, from MAP_COLUMNS: q, dq/dx = f * root, f
    and m.  The result ``kernel(xs, lo, hi, fail)`` returns one list per
    column over the floats xs.  At each x it emits, in this order, the
    domain check, the mass's lines at order 1 (so m and m' are its bits),
    the m < 0 check, root, q and f, with half where q or f first reads it,
    and appends the asked columns; under the module's contract only the
    lines those columns read run.  A failed check calls ``fail(x)`` for the
    domain and ``fail(x, m)`` for m < 0, which raises what the caller owes
    at x; an error inside the lines is raised where it happens.  So a set
    without f and dq returns q also where half would divide by an m that
    underflows to 0, or where a factor of m' overflows.

    Built once per (mass, q, f, columns), and kept on ``mass``.
    """
    return _cached(mass, (q, f, columns), _compile_map)


def compile_potential(exprs: Sequence[Expr], domain: tuple[float, float],
                      pole: float | None, order: int) -> Callable:
    """The potential energy (``order`` 0) or gradient (``order`` 1) of n
    coordinates as one compiled batch function.

    Coordinate i has the term ``exprs[i]`` in ``x``, inside ``domain`` and off
    ``pole``.  The result ``make(fail)`` returns a function of an iterable of
    points of n numbers, which runs at each point, after float() of each
    entry, each coordinate's domain and pole check and its lines of the given
    order in turn.  At order 0 it returns the list of the sums of the values,
    summed from 0.0 in coordinate order; at order 1 the list of [V_1', ..,
    V_n'], each the bits of the term's order-1 kernel (the lines compile_rhs
    runs for V'), with no sum.  A failed check calls ``fail(i, x)``, a sum
    that is not finite ``fail(None, x, total)``; an error inside the lines is
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
    returns ``rhs(t, x, v)``, which takes lists of n numbers and returns the
    list of the n accelerations -(m'/2m) v^2 - V'/m: it calls the kernel,
    ``rhs.scalar(t, x0, .., v0, ..)``, with the entries of x as floats.  For
    each coordinate in turn the kernel runs the singularity check, the
    domain and pole check, the lines of the potential term's and of the
    mass's order-1 kernels (so V', m and m' are their bits), the m < 0 check
    and the acceleration line.  A failed check calls ``fail(i, x)``, and the
    m < 0 check ``fail(i, x, m)``, with x the list [x0, ..] built there,
    which raises what the caller owes for coordinate i; an error inside the
    lines (ExprDomainError, or ZeroDivisionError where m = 0) is raised where
    it happens, so the first error is that of the first failing coordinate.

    Built once per (masses, potentials, singularities, domain, pole), and
    kept on ``masses[0]``.
    """
    key = (tuple(masses), tuple(potentials), tuple(singularities), tuple(domain), pole)
    return _cached(key[0][0], key, lambda _, *key: _compile_rhs(*key))


def eval_dual(expr: Expr, x: float) -> tuple[float, float, float]:
    """Evaluate an expression in x: (value, d/dx, d2/dx2) at x.

    Derivatives are exact for the grammar's function set; nothing is
    finite-differenced internally.  An InvalidParameter unless expr is an
    Expr and x a number.
    """
    _expression(expr)
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter("x", f"expected a number, got {x!r}") from None
    return compile_expression(expr)(x, 1.0)


def compile_gradient(expr: Expr, names: Sequence[str]) -> Callable:
    """The value and first partial derivatives of ``expr`` over the variables
    ``names`` as one compiled function.

    The result ``gradient(x)`` takes a sequence of len(names) numbers and
    returns (value, [d/dx_1, .., d/dx_n]).  Its lines are the order-1
    kernel's once per seed direction j, with the seed of x_j held at 1 and
    every other seed at 0, each folded as the module's notes say, so a
    direction's value lines are the first's and run once.  Against calls of
    the order-1 kernel with those seeds, a derivative can differ only in
    the sign of a zero, or be a number where the call's inf * 0 is a NaN.

    Built once per (expr, names), and kept on ``expr``.
    """
    return _cached(expr, (tuple(names),), _compile_gradient)


def compile_rhs2(mass: Expr, names: Sequence[str], potentials: Sequence[Expr],
                 domain: tuple[float, float], pole: float | None) -> Callable:
    """The type2 right-hand side of n coordinates as one compiled function.

    ``mass`` is the shared mass m over the variables ``names`` (x1..xn);
    coordinate i has the potential term ``potentials[i]`` in ``x``, and every
    coordinate lies in the open interval ``domain`` and off ``pole``.  The
    result ``make(fail)`` returns ``rhs(t, x, v)``, which calls its kernel
    ``rhs.scalar`` as compile_rhs's does, and returns the list of the n
    accelerations

        -(mdot/m) v_i + (1/2)(g_i/m) |v|^2 - V_i'/m,  g = grad m, mdot = g.v.

    The kernel emits, in this order: m's gradient lines, as compile_gradient
    emits them, so m and g are its bits; the m <= 0 check, failing as
    fail(None, x, m); mdot (whose known-zero products g_i v_i drop) and |v|^2,
    each summed from 0.0 in coordinate order; then for each coordinate in turn
    the domain and pole check, failing as fail(i, x), the lines of the
    potential term's order-1 kernel (so V_i' is its bits) and the acceleration
    line; under the module's contract an assignment runs only where the
    accelerations read it.  fail raises what the caller owes there; an error
    inside the lines is raised where it happens.

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
    |v|^2 = 0.0 + v_1 * v_1 + .., the running sum compile_rhs2 writes.
    Coordinate i has the potential term ``potentials[i]`` in ``x``, inside
    ``domain`` and off ``pole``.  The result ``make(mass, fail, energy)``
    returns ``kernel(t, x, v)``, which takes lists of n floats and runs, in
    this order: for type1, each coordinate's domain check, its mass's value
    lines and its m < 0 check, failing as mass(i, x) and mass(i, x, m), and
    its term; for type2, the shared mass's value lines and its m <= 0
    check, failing as mass(None, x, m), and T.  A float overflow in a type1
    ``v_i ** 2`` calls energy(t), a T that is not finite (a type2 |v|^2
    that overflows is inf) energy(t, T).  Then, as compile_potential's energies at order 0,
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
    ``values``: one call of its compile_gradient function.  An
    InvalidParameter unless expr is an Expr, every variable it reads is in
    names and values holds one number per name."""
    _expression(expr)
    try:
        xs = [float(value) for value in values]
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameter("values", f"expected numbers, got {values!r}") from None
    if len(xs) != len(names):
        raise InvalidParameter("values", f"expected {len(names)} coordinates, got {len(xs)}")
    return compile_gradient(expr, names)(xs)
