"""Mass-profile tests: values, derivatives, domains.

Catalog profiles are the ones build_system makes from each family's mass
template: Mathews-Lakshmanan 1/(1 +- lam x^2) (ml1), the power law
alpha^2 x^(2 upsilon), the exponential exp(2 zeta x) (morse) and the
isotonic power law beta^2 x^(2(eta-1)) (sw2).
"""

import math

import numpy as np
import pytest

from pdmdyn.core import build_system
from pdmdyn.errors import DomainViolation
from pdmdyn.profiles import CoupledProfile, CustomProfile


def mathews_lakshmanan(lam, sign):
    return build_system("ml1", 1, {"omega": [1.0], "lambda": lam, "sign": sign}).profiles[0]


def power_law(alpha, upsilon):
    return build_system("powerlaw", 1, {"omega": [1.0], "alpha": alpha,
                                        "upsilon": upsilon}).profiles[0]


def exponential(zeta):
    return build_system("morse", 1, {"omega": [1.0], "zeta": [zeta]}).profiles[0]


def isotonic_power_law(beta, eta):
    return build_system("sw2", 1, {"omega": [1.0], "kappa": [1.0], "beta": beta,
                                   "eta_exp": eta}).profiles[0]


class TestCatalogValues:
    def test_inverse_quadratic_plus(self):
        m, m1, m2 = mathews_lakshmanan(1.0, "+").eval(1.0)
        assert (m, m1, m2) == pytest.approx((0.5, -0.5, 0.5))

    def test_power_law(self):
        assert power_law(1.0, 1.0).eval(2.0) == pytest.approx((4.0, 4.0, 2.0))

    def test_exponential(self):
        assert exponential(1.0).eval(0.0) == pytest.approx((1.0, 2.0, 4.0))

    def test_isotonic_power_law(self):
        m, m1, m2 = isotonic_power_law(1.0, -1.0).eval(1.0)
        assert (m, m1, m2) == pytest.approx((1.0, -4.0, 20.0))

    def test_custom_profile_uses_duals(self):
        profile = CustomProfile.from_text("1/(1+x^2)")
        assert profile.eval(1.0) == pytest.approx((0.5, -0.5, 0.5))


class TestDomains:
    def test_minus_branch_is_bounded(self):
        assert mathews_lakshmanan(1.0, "-").domain == (-1.0, 1.0)

    def test_plus_branch_is_unbounded(self):
        assert mathews_lakshmanan(1.0, "+").domain == (-math.inf, math.inf)

    def test_power_law_positive_half_line(self):
        assert power_law(1.0, 1.0).domain == (0.0, math.inf)

    def test_lambda_zero_minus_branch_degenerates_to_line(self):
        assert mathews_lakshmanan(0.0, "-").domain == (-math.inf, math.inf)

    @pytest.mark.parametrize("profile,x", [
        (mathews_lakshmanan(1.0, "-"), 1.0),
        (mathews_lakshmanan(1.0, "-"), -1.5),
        (power_law(1.0, 1.0), 0.0),
        (power_law(1.0, 1.0), -0.5),
        (isotonic_power_law(1.0, 2.0), 0.0),
    ])
    def test_outside_domain_raises(self, profile, x):
        with pytest.raises(DomainViolation):
            profile.eval(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_exponential_rejects_non_finite_x(self, x):
        with pytest.raises(DomainViolation):
            exponential(1.0).eval(x)

    def test_custom_profile_rejects_nonpositive_values(self):
        profile = CustomProfile.from_text("x")  # goes nonpositive at x <= 0
        with pytest.raises(DomainViolation):
            profile.eval(-1.0)

    def test_custom_profile_domain_is_the_real_line(self):
        profile = CustomProfile.from_text("1+x^2")
        assert profile.domain == (-math.inf, math.inf)
        assert profile.eval(-1e150)[0] == pytest.approx(1e300)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_custom_profile_rejects_non_finite_x(self, x):
        with pytest.raises(DomainViolation):
            CustomProfile.from_text("1+x^2").eval(x)


class TestDerivativeConsistency:
    PROFILES = [
        ("MathewsLakshmanan", mathews_lakshmanan(1.0, "+"), (-3.0, 3.0)),
        ("MathewsLakshmanan", mathews_lakshmanan(0.7, "-"), (-1.0, 1.0)),
        ("PowerLaw", power_law(1.3, 1.5), (0.4, 3.0)),
        ("Exponential", exponential(0.8), (-1.5, 1.5)),
        ("IsotonicPowerLaw", isotonic_power_law(1.1, -1.0), (0.4, 3.0)),
        ("CustomProfile", CustomProfile.from_text("exp(-x^2)+0.1"), (-2.0, 2.0)),
    ]

    @pytest.mark.parametrize("profile,box", [(p, box) for _, p, box in PROFILES],
                             ids=[name + str(i) for i, (name, _, _) in enumerate(PROFILES)])
    def test_against_central_differences(self, profile, box):
        rng = np.random.default_rng(7)
        dom_lo, dom_hi = profile.domain
        lo = max(box[0], dom_lo + 0.1 * (box[1] - box[0]))
        hi = min(box[1], dom_hi - 0.1 * (box[1] - box[0]))
        for x in rng.uniform(lo, hi, 400):
            edge = min(abs(x - dom_lo), abs(dom_hi - x))
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
            profile = mathews_lakshmanan(1.0, sign)
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
