"""Check registry semantics: determinism, selection, report contracts."""

import pytest

from pdmdyn.errors import InvalidParameter, UnknownCheck
from pdmdyn.verify import (CheckReport, check_names, run_check, run_suite,
                           standard_case)


class TestRunCheck:
    def test_unknown_name(self):
        with pytest.raises(UnknownCheck):
            run_check("no-such-check")

    def test_deterministic_metric(self):
        a = run_check("substitution-identity", seed=123)
        b = run_check("substitution-identity", seed=123)
        assert a.metric == b.metric  # bit-identical

    def test_seed_changes_samples_not_verdict(self):
        a = run_check("ml-profile-identity", seed=1)
        b = run_check("ml-profile-identity", seed=2)
        assert a.passed and b.passed

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, float("nan"), float("inf")])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(InvalidParameter) as err:
            run_check("substitution-identity", rel_tol=rel_tol)
        assert err.value.field == "rel_tol"

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvalidParameter) as err:
            run_check("ml-profile-identity", seed=-1)
        assert err.value.field == "seed"

    def test_report_fields(self):
        r = run_check("substitution-identity")
        assert isinstance(r, CheckReport)
        assert r.comparison == "<="
        assert r.passed == (r.metric <= r.threshold)

    def test_demonstration_semantics(self):
        r = run_check("exact-residual:sw2-published-eta2")
        assert r.comparison == ">="
        assert r.is_demonstration
        assert r.passed == (r.metric >= r.threshold)


class TestRunSuite:
    def test_empty_selection(self):
        reports, summary = run_suite([])
        assert reports == []
        assert (summary.passed, summary.expected_fail, summary.failed) == (0, 0, 0)
        assert summary.ok

    def test_prefix_selection(self):
        reports, summary = run_suite(["parser-"])
        names = [r.name for r in reports]
        assert "parser-roundtrip" in names
        assert "parser-total" in names
        assert summary.failed == 0

    def test_unknown_selection(self):
        with pytest.raises(UnknownCheck):
            run_suite(["nonexistent-prefix"])

    def test_loose_tolerance_fails_energy_drift(self):
        # the documented sensitivity demonstration: a sloppy integrator
        # tolerance must be caught by the drift threshold
        reports, summary = run_suite(["energy-drift:ml1+"], rel_tol=1e-4)
        assert summary.failed == 1
        assert not reports[0].passed

    def test_selection_deduplicates_and_sorts(self):
        reports, _ = run_suite(["parser-total", "parser-"])
        names = [r.name for r in reports]
        assert names == sorted(set(names))


class TestCatalog:
    def test_standard_case_lookup(self):
        case = standard_case("ml1+")
        assert case.family == "ml1"
        with pytest.raises(UnknownCheck):
            standard_case("ml1±")

    def test_registry_covers_all_module_invariants(self):
        names = check_names()
        for prefix in ("exact-residual:", "g-identity:", "potential-match:",
                       "track-exact:", "energy-drift:", "invariance:",
                       "mapped-exactness:", "printed-eom:"):
            assert any(n.startswith(prefix) for n in names)
        for exact in ("rk4-order", "adaptive-vs-fixed", "ml2-reduction",
                      "noninvariance:el2-n2", "parser-ad-d1", "parser-ad-d2",
                      "tau-closed-form:ml1", "substitution-identity"):
            assert exact in names
