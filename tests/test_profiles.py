"""Mass-profile catalog tests: values, derivatives, domains."""

import math

import numpy as np
import pytest

from pdmdyn.errors import DomainViolation
from pdmdyn.profiles import (CoupledProfile, CustomProfile, Exponential,
                             IsotonicPowerLaw, MathewsLakshmanan, PowerLaw)


class TestCatalogValues:
    def test_inverse_quadratic_plus(self):
        m, m1, m2 = MathewsLakshmanan(1.0, "+").eval(1.0)
        assert (m, m1, m2) == pytest.approx((0.5, -0.5, 0.5))

    def test_power_law(self):
        assert PowerLaw(1.0, 1.0).eval(2.0) == pytest.approx((4.0, 4.0, 2.0))

    def test_exponential(self):
        assert Exponential(1.0).eval(0.0) == pytest.approx((1.0, 2.0, 4.0))

    def test_isotonic_power_law(self):
        m, m1, m2 = IsotonicPowerLaw(1.0, -1.0).eval(1.0)
        assert (m, m1, m2) == pytest.approx((1.0, -4.0, 20.0))

    def test_custom_profile_uses_duals(self):
        profile = CustomProfile.from_text("1/(1+x^2)")
        assert profile.eval(1.0) == pytest.approx((0.5, -0.5, 0.5))


class TestDomains:
    def test_minus_branch_is_bounded(self):
        d = MathewsLakshmanan(1.0, "-").domain
        assert (d.lo, d.hi) == (-1.0, 1.0)

    def test_plus_branch_is_unbounded(self):
        d = MathewsLakshmanan(1.0, "+").domain
        assert d.lo == -math.inf and d.hi == math.inf

    def test_power_law_positive_half_line(self):
        d = PowerLaw(1.0, 1.0).domain
        assert (d.lo, d.hi) == (0.0, math.inf)

    def test_lambda_zero_minus_branch_degenerates_to_line(self):
        d = MathewsLakshmanan(0.0, "-").domain
        assert d.lo == -math.inf and d.hi == math.inf

    @pytest.mark.parametrize("profile,x", [
        (MathewsLakshmanan(1.0, "-"), 1.0),
        (MathewsLakshmanan(1.0, "-"), -1.5),
        (PowerLaw(1.0, 1.0), 0.0),
        (PowerLaw(1.0, 1.0), -0.5),
        (IsotonicPowerLaw(1.0, 2.0), 0.0),
    ])
    def test_outside_domain_raises(self, profile, x):
        with pytest.raises(DomainViolation):
            profile.eval(x)

    def test_custom_profile_rejects_nonpositive_values(self):
        profile = CustomProfile.from_text("x")  # goes nonpositive at x <= 0
        with pytest.raises(DomainViolation):
            profile.eval(-1.0)

    def test_custom_profile_domain_is_the_real_line(self):
        profile = CustomProfile.from_text("1+x^2")
        d = profile.domain
        assert d.lo == -math.inf and d.hi == math.inf
        assert profile.eval(-1e150)[0] == pytest.approx(1e300)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_custom_profile_rejects_non_finite_x(self, x):
        with pytest.raises(DomainViolation):
            CustomProfile.from_text("1+x^2").eval(x)


class TestDerivativeConsistency:
    PROFILES = [
        (MathewsLakshmanan(1.0, "+"), (-3.0, 3.0)),
        (MathewsLakshmanan(0.7, "-"), (-1.0, 1.0)),
        (PowerLaw(1.3, 1.5), (0.4, 3.0)),
        (Exponential(0.8), (-1.5, 1.5)),
        (IsotonicPowerLaw(1.1, -1.0), (0.4, 3.0)),
        (CustomProfile.from_text("exp(-x^2)+0.1"), (-2.0, 2.0)),
    ]

    @pytest.mark.parametrize("profile,box", PROFILES,
                             ids=[type(p).__name__ + str(i)
                                  for i, (p, _) in enumerate(PROFILES)])
    def test_against_central_differences(self, profile, box):
        rng = np.random.default_rng(7)
        dom = profile.domain
        lo = max(box[0], dom.lo + 0.1 * (box[1] - box[0]))
        hi = min(box[1], dom.hi - 0.1 * (box[1] - box[0]))
        for x in rng.uniform(lo, hi, 400):
            edge = min(abs(x - dom.lo), abs(dom.hi - x))
            h = 0.01 * min(max(1.0, abs(x)), edge)
            vals = [profile.eval(float(x + k * h))[0] for k in (-2, -1, 0, 1, 2)]
            d1_fd = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
            m, d1, _ = profile.eval(float(x))
            assert d1 == pytest.approx(d1_fd, rel=1e-6,
                                       abs=1e-6 * max(1.0, abs(m)))

    def test_ml_half_logarithmic_derivative_identity(self):
        # m'/(2m) = -s lam x / (1 + s lam x^2), exact to rounding
        for sign, s, xs in (("+", 1.0, np.linspace(-3, 3, 101)),
                            ("-", -1.0, np.linspace(-0.95, 0.95, 101))):
            profile = MathewsLakshmanan(1.0, sign)
            for x in xs:
                m, m1, _ = profile.eval(float(x))
                closed = -s * x / (1.0 + s * x * x)
                assert abs(m1 / (2.0 * m) - closed) < 1e-12


class TestCoupledProfile:
    def test_value_and_gradient(self):
        cp = CoupledProfile.from_text("1+x1^2+x2^2", 2)
        m, grad = cp.value_and_gradient([1.0, 2.0])
        assert m == 6.0
        assert grad == [2.0, 4.0]

    def test_positive_enforced(self):
        cp = CoupledProfile.from_text("x1", 1)
        with pytest.raises(DomainViolation):
            cp.value_and_gradient([-1.0])
