"""Catalog of mass profiles m(x) with analytic first and second derivatives.

Each profile is positive on an open validity interval.  Derivatives are
closed-form for catalog families and come from the compiled dual-number
form of the expression for expression-backed profiles, so the dynamics never
sees a finite difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from . import exprparse
from .errors import DomainViolation
from .exprparse import Expr

_INF = math.inf


@dataclass(frozen=True)
class Interval:
    """Open interval (lo, hi); either end may be infinite."""

    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi


class MassProfile:
    """Base class: positive scalar field with two derivatives and a domain."""

    family: str = "abstract"
    #: position (if any) where the equation-of-motion coefficients m'/m and
    #: 1/m diverge even though it sits on the domain closure (e.g. x = 0 for
    #: power laws, where m -> 0)
    coefficient_singularity: float | None = None

    @property
    def domain(self) -> Interval:
        raise NotImplementedError

    def eval(self, x: float) -> tuple[float, float, float]:
        raise NotImplementedError

    def _require_in_domain(self, x: float) -> None:
        d = self.domain
        if not d.contains(x):
            raise DomainViolation(
                f"x={x!r} outside {self.family} profile domain ({d.lo}, {d.hi})")


@dataclass(frozen=True)
class MathewsLakshmanan(MassProfile):
    """m(x) = 1 / (1 +- lam x^2); '+' is defined everywhere, '-' inside |x| < 1/sqrt(lam)."""

    lam: float
    sign: str = "+"  # branch tag; lam itself stays >= 0
    family: str = field(default="mathews_lakshmanan", init=False)

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError("sign must be '+' or '-'")

    @property
    def domain(self) -> Interval:
        if self.sign == "-" and self.lam > 0.0:
            b = 1.0 / math.sqrt(self.lam)
            return Interval(-b, b)
        return Interval(-_INF, _INF)

    def eval(self, x: float) -> tuple[float, float, float]:
        self._require_in_domain(x)
        s = 1.0 if self.sign == "+" else -1.0
        u = 1.0 + s * self.lam * x * x
        up = 2.0 * s * self.lam * x
        upp = 2.0 * s * self.lam
        m = 1.0 / u
        m1 = -up / (u * u)
        m2 = -upp / (u * u) + 2.0 * up * up / (u * u * u)
        return m, m1, m2


@dataclass(frozen=True)
class PowerLaw(MassProfile):
    """m(x) = alpha^2 x^(2 upsilon) on the positive half-line."""

    alpha: float
    upsilon: float
    family: str = field(default="power_law", init=False)

    @property
    def coefficient_singularity(self) -> float | None:  # type: ignore[override]
        return 0.0 if self.upsilon != 0.0 else None

    @property
    def domain(self) -> Interval:
        # x > 0 keeps x^(2 upsilon) single-valued for non-integer exponents
        return Interval(0.0, _INF)

    def eval(self, x: float) -> tuple[float, float, float]:
        self._require_in_domain(x)
        a2 = self.alpha * self.alpha
        u = self.upsilon
        m = a2 * x ** (2.0 * u)
        m1 = 2.0 * u * a2 * x ** (2.0 * u - 1.0)
        m2 = 2.0 * u * (2.0 * u - 1.0) * a2 * x ** (2.0 * u - 2.0)
        return m, m1, m2


@dataclass(frozen=True)
class Exponential(MassProfile):
    """m(x) = exp(2 zeta x); the deformation behind the Morse-type oscillator."""

    zeta: float
    family: str = field(default="exponential", init=False)

    @property
    def domain(self) -> Interval:
        return Interval(-_INF, _INF)

    def eval(self, x: float) -> tuple[float, float, float]:
        m = math.exp(2.0 * self.zeta * x)
        return m, 2.0 * self.zeta * m, 4.0 * self.zeta * self.zeta * m


@dataclass(frozen=True)
class IsotonicPowerLaw(MassProfile):
    """m(x) = beta^2 x^(2(eta-1)) on the positive half-line."""

    beta: float
    eta: float
    family: str = field(default="isotonic_power_law", init=False)

    @property
    def coefficient_singularity(self) -> float | None:  # type: ignore[override]
        return 0.0 if self.eta != 1.0 else None

    @property
    def domain(self) -> Interval:
        return Interval(0.0, _INF)

    def eval(self, x: float) -> tuple[float, float, float]:
        self._require_in_domain(x)
        b2 = self.beta * self.beta
        e = 2.0 * (self.eta - 1.0)
        m = b2 * x ** e
        m1 = e * b2 * x ** (e - 1.0)
        m2 = e * (e - 1.0) * b2 * x ** (e - 2.0)
        return m, m1, m2


@dataclass(frozen=True)
class CustomProfile(MassProfile):
    """Profile backed by a parsed one-variable expression."""

    expr: Expr
    text: str
    declared_domain: Interval = field(default_factory=lambda: Interval(-_INF, _INF))
    family: str = field(default="custom", init=False)

    def __post_init__(self):
        # compiled once, when the system is built; eval calls it directly
        object.__setattr__(self, "_dual", exprparse.compile_expression(self.expr))

    @staticmethod
    def from_text(text: str, variable: str = "x",
                  domain: Interval | None = None) -> "CustomProfile":
        expr = exprparse.parse_expression(text, [variable])
        return CustomProfile(expr, text, domain or Interval(-_INF, _INF))

    @property
    def domain(self) -> Interval:
        return self.declared_domain

    def eval(self, x: float) -> tuple[float, float, float]:
        self._require_in_domain(x)
        m, m1, m2 = self._dual(x, 1.0)
        if m <= 0.0:
            raise DomainViolation(f"custom profile '{self.text}' is {m!r} <= 0 at x={x!r}")
        return m, m1, m2


@dataclass(frozen=True)
class CoupledProfile:
    """Single mass field m(x1..xn) shared by all velocity components.

    Not a per-coordinate MassProfile: it exposes the value and the gradient,
    which is all the coupled equations of motion require.
    """

    expr: Expr
    text: str
    names: tuple[str, ...]
    family: str = field(default="coupled", init=False)

    def __post_init__(self):
        # compiled once, when the system is built; eval_gradient reuses it
        exprparse.compile_expression(self.expr, self.names)

    @staticmethod
    def from_text(text: str, n: int) -> "CoupledProfile":
        names = tuple(f"x{i + 1}" for i in range(n))
        expr = exprparse.parse_expression(text, names)
        return CoupledProfile(expr, text, names)

    def value_and_gradient(self, xs: Sequence[float]) -> tuple[float, list[float]]:
        m, grad = exprparse.eval_gradient(self.expr, self.names, xs)
        if m <= 0.0:
            raise DomainViolation(f"coupled profile '{self.text}' is {m!r} <= 0 at {list(xs)!r}")
        return m, grad
