"""Mass profiles m(x) with exact first and second derivatives.

Every per-coordinate profile, catalog or custom, is a parsed one-variable
expression compiled into straight-line float code, once per derivative
order a caller reads; its derivatives come from the compiled dual-number
form, so the dynamics never sees a finite difference.  A catalog family's
profile is its record's mass template with the coordinate's parameters
substituted, and carries the record's domain and coefficient singularity,
resolved when the system is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import exprparse
from .errors import DomainViolation, InvalidParameter
from .exprparse import Expr

#: the whole real line, the domain of a profile that states none
REAL_LINE = (-math.inf, math.inf)


@dataclass(frozen=True)
class CustomProfile:
    """m(x) of one coordinate, backed by a parsed one-variable expression.

    ``domain`` is the open interval (lo, hi) where the profile is defined;
    ``coefficient_singularity`` is the position (if any) where the
    equation-of-motion coefficients m'/m and 1/m diverge even though it
    sits on the domain closure (x = 0 for power laws, where m -> 0).
    """

    expr: Expr
    text: str
    domain: tuple[float, float] = REAL_LINE
    coefficient_singularity: float | None = None

    @staticmethod
    def from_text(text: str, domain: tuple[float, float] = REAL_LINE,
                  coefficient_singularity: float | None = None) -> "CustomProfile":
        return CustomProfile(exprparse.parse_cached(text), text, domain,
                             coefficient_singularity)

    def eval(self, x: float, order: int = 2):
        """m for order 0, (m, m') for 1 and (m, m', m'') for 2, at x; a
        DomainViolation outside the domain or where m < 0."""
        lo, hi = self.domain
        if not lo < x < hi:
            self._fail(x)
        out = exprparse.compile_expression(self.expr, order=order)(x, 1.0)
        m = out[0] if order else out
        # m == 0 (a vanishing or underflowed mass) is left to the equations
        # of motion, whose division by m raises ZeroDivisionError
        if m < 0.0:
            self._fail(x, m)
        return out

    def eval_many(self, xs: list[float], order: int = 2) -> list:
        """[eval(x, order) for x in xs] from one batch kernel call, which checks
        each x's domain and m < 0 in turn and raises at the first x that fails."""
        kernel = exprparse.compile_expression(self.expr, order=order, batch=True)
        return kernel(xs, 1.0, *self.domain, self._fail)

    def _fail(self, x: float, m: float | None = None):
        """Raise the DomainViolation owed at x: outside the domain, or (given
        the mass m there) m < 0."""
        if m is None:
            lo, hi = self.domain
            raise DomainViolation(f"x={x!r} outside the domain ({lo}, {hi}) "
                                  f"of profile '{self.text}'")
        raise DomainViolation(f"profile '{self.text}' is {m!r} < 0 at x={x!r}")


@dataclass(frozen=True)
class CoupledProfile:
    """Single mass field m(x1..xn) shared by all velocity components.

    Not a per-coordinate profile: it exposes the value and the gradient,
    which is all the coupled equations of motion require.  A point is a
    sequence of n numbers; any other length is an InvalidParameter.
    """

    expr: Expr
    text: str
    names: tuple[str, ...]

    @staticmethod
    def from_text(text: str, n: int) -> "CoupledProfile":
        names = tuple(f"x{i + 1}" for i in range(n))
        expr = exprparse.parse_cached(text, names)
        return CoupledProfile(expr, text, names)

    def value(self, xs: Sequence[float]) -> float:
        """m alone, from one value-only kernel call with every seed 0: the
        value value_and_gradient returns; a DomainViolation where m <= 0."""
        n = self._check(xs)
        m = exprparse.compile_expression(self.expr, self.names, 0)(*xs, *[0.0] * n)
        return self._positive(m, xs)

    def value_and_gradient(self, xs: Sequence[float]) -> tuple[float, list[float]]:
        """(m, grad m) from one call of the gradient kernel; a DomainViolation
        where m <= 0."""
        self._check(xs)
        m, grad = exprparse.compile_gradient(self.expr, self.names)(xs)
        return self._positive(m, xs), grad

    def _check(self, xs: Sequence[float]) -> int:
        n = len(self.names)
        if len(xs) != n:
            raise InvalidParameter("x", f"expected {n} coordinates, got {len(xs)}")
        return n

    def _positive(self, m: float, xs: Sequence[float]) -> float:
        if m <= 0.0:
            raise DomainViolation(f"coupled profile '{self.text}' is {m!r} <= 0 "
                                  f"at {[*map(float, xs)]!r}")
        return m
