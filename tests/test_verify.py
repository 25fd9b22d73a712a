"""Check registry semantics: determinism, selection, report contracts."""

import json
import math
import runpy
import struct
from pathlib import Path

import numpy as np
import pytest

from pdmdyn import verify
from pdmdyn.errors import InvalidParameter, UnknownCheck
from pdmdyn.exprparse import MAP_COLUMNS
from pdmdyn.profiles import CustomProfile
from pdmdyn.transform import reference_map
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

    @pytest.mark.parametrize("rel_tol", [0.0, -1e-10, float("nan"), float("inf"), 10 ** 400])
    def test_rel_tol_must_be_finite_and_positive(self, rel_tol):
        with pytest.raises(InvalidParameter) as err:
            run_check("substitution-identity", rel_tol=rel_tol)
        assert err.value.field == "rel_tol"

    def test_seed_must_be_non_negative(self):
        with pytest.raises(InvalidParameter) as err:
            run_check("ml-profile-identity", seed=-1)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("seed", [1.5, "3", None, True])
    def test_seed_must_be_an_integer(self, seed):
        with pytest.raises(InvalidParameter) as err:
            run_check("ml-profile-identity", seed=seed)
        assert err.value.field == "seed"

    def test_numpy_integer_seed_is_a_seed(self):
        a = run_check("ml-profile-identity", seed=np.int64(3))
        assert a.metric == run_check("ml-profile-identity", seed=3).metric

    @pytest.mark.parametrize("rel_tol", ["1e-3", True, 1j])
    def test_rel_tol_must_be_a_real(self, rel_tol):
        with pytest.raises(InvalidParameter) as err:
            run_check("substitution-identity", rel_tol=rel_tol)
        assert err.value.field == "rel_tol"

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

    @pytest.mark.parametrize("selection", ["parser-", ["parser-total", 3], 3])
    def test_selection_must_be_a_sequence_of_names(self, selection):
        # a bare string would be walked one character at a time as prefixes
        with pytest.raises(InvalidParameter) as err:
            run_suite(selection)
        assert err.value.field == "selection"

    @pytest.mark.parametrize("selection", [[], ["no-such-check"], "parser-"])
    @pytest.mark.parametrize("field,kw", [("seed", {"seed": "x"}), ("seed", {"seed": -1}),
                                          ("rel_tol", {"rel_tol": -1.0}),
                                          ("rel_tol", {"rel_tol": math.nan}),
                                          ("rel_tol", {"rel_tol": 10 ** 400})])
    def test_seed_and_rel_tol_are_checked_before_the_selection(self, selection, field, kw):
        # an empty selection runs no check, so the checks' own test never comes
        with pytest.raises(InvalidParameter) as err:
            run_suite(selection, **kw)
        assert err.value.field == field

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
        for name in ("ml1±", []):
            with pytest.raises(UnknownCheck):
                standard_case(name)

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


#: every check of the suite by its (threshold, comparison): a check may join
#: the suite, but none may leave it, move its threshold or flip its comparison
PINNED = {
    (1e-4, "<="): (
        "parser-ad-d2",),
    (1e-6, "<="): (
        "frequency:ml1", "frequency:powerlaw", "frequency:powerlaw-dynamic",
        "invariance:ml1+", "invariance:ml2-reduction", "invariance:morse",
        "invariance:powerlaw-1", "invariance:sw1+", "invariance:sw2-amended-eta2",
        "invariance:sw2-eta-neg1", "parser-ad-d1", "profiles-derivatives",
        "track-exact:ml1+", "track-exact:ml1-", "track-exact:ml1-0.5+",
        "track-exact:ml1-0.5-", "track-exact:morse", "track-exact:powerlaw-1",
        "track-exact:powerlaw-2", "track-exact:sw1+", "track-exact:sw2-eta-neg1"),
    (1e-8, "<="): (
        "energy-drift:ml1+", "energy-drift:ml1-", "energy-drift:ml2-reduction",
        "energy-drift:morse", "energy-drift:powerlaw-1", "energy-drift:sw1+",
        "energy-drift:sw2-eta-neg1", "exact-residual:harmonic",
        "exact-residual:isotonic", "exact-residual:ml1+", "exact-residual:ml1-",
        "exact-residual:morse", "exact-residual:powerlaw-1",
        "exact-residual:powerlaw-2", "exact-residual:sw1+", "exact-residual:sw1-",
        "exact-residual:sw2-amended-eta2", "exact-residual:sw2-eta-neg1",
        "invariance:el2-n1", "mapped-exactness:ml1+", "mapped-exactness:ml2-reduction",
        "mapped-exactness:morse", "mapped-exactness:powerlaw-1",
        "mapped-exactness:sw1+", "mapped-exactness:sw2-amended-eta2",
        "mapped-exactness:sw2-eta-neg1", "tau-closed-form:ml1"),
    (1e-9, "<="): (
        "adaptive-vs-fixed", "ml2-reduction"),
    (1e-10, "<="): (
        "g-identity:ml1+", "g-identity:ml1-", "g-identity:ml2-reduction",
        "g-identity:morse", "g-identity:powerlaw-1", "g-identity:powerlaw-2",
        "g-identity:sw1+", "g-identity:sw1-", "g-identity:sw2-amended-eta2",
        "g-identity:sw2-eta-neg1"),
    (1e-12, "<="): (
        "el2-collapse-n1", "el2-obstruction-value", "energy-formula:harmonic",
        "energy-formula:isotonic", "energy-formula:ml1+", "energy-formula:ml1-",
        "energy-formula:morse", "energy-formula:powerlaw-1",
        "energy-formula:powerlaw-2", "energy-formula:sw1+", "energy-formula:sw1-",
        "energy-formula:sw2-amended-eta2", "energy-formula:sw2-eta-neg1",
        "ml-profile-identity", "potential-match:ml1+", "potential-match:ml1-",
        "potential-match:ml2-reduction", "potential-match:morse",
        "potential-match:powerlaw-1", "potential-match:powerlaw-2",
        "potential-match:sw1+", "potential-match:sw1-",
        "potential-match:sw2-amended-eta2", "potential-match:sw2-eta-neg1",
        "printed-eom:ml1+", "printed-eom:ml1-", "printed-eom:ml2-reduction",
        "printed-eom:morse", "printed-eom:powerlaw-1", "printed-eom:sw1+",
        "printed-eom:sw2-amended-eta2", "substitution-identity"),
    (0.0, "<="): (
        "parser-roundtrip", "parser-total", "rk4-order"),
    (0.1, ">="): (
        "exact-residual:sw2-published-eta2",),
    (0.01, ">="): (
        "frequency:ml1-printed-form", "noninvariance:el2-n2",
        "residual-detects-perturbation"),
}


@pytest.mark.parametrize(("name", "threshold", "comparison"),
                         [(n, t, c) for (t, c), names in PINNED.items() for n in names])
def test_table_pins_each_threshold_and_comparison(name, threshold, comparison):
    assert name in check_names()
    row = verify._REGISTRY[name]
    at_default = row.threshold(None) if callable(row.threshold) else row.threshold
    assert (at_default, row.comparison) == (threshold, comparison)


def test_only_adaptive_vs_fixed_reads_its_threshold_from_the_run():
    assert [n for n, row in verify._REGISTRY.items() if callable(row.threshold)] == [
        "adaptive-vs-fixed"]
    assert run_check("adaptive-vs-fixed", rel_tol=1e-6).threshold == 10.0 * 1e-6


@pytest.mark.parametrize("seed", [1, 7, 20260810])
def test_g_identity_reduction_is_the_per_point_loop(seed):
    # the loop the array reduction replaced, kept as its reference: the same
    # operations per point, so the metric must match bit for bit
    names = [name for name in check_names() if name.startswith("g-identity:")]
    assert len(names) == 10
    for name in names:
        _, nmap, _, batches = verify._map_samples(seed, "g", name.partition(":")[2])
        worst = 0.0
        for xs in batches:
            _, dqs, fs, ms = nmap.batches[0](xs[:, 0].tolist())
            worst = verify._worst(worst, *[abs(dq * dq - m * f * f) / max(abs(m * f * f), 1e-30)
                                           for dq, f, m in zip(dqs, fs, ms)])
        metric = run_check(name, seed=seed).metric
        assert struct.pack("<d", metric) == struct.pack("<d", worst), name


def _loop_profile_derivatives(seed):
    """profiles-derivatives as a loop over points, as it was before its
    stencil and errors became arrays."""
    rng = verify._rng(seed, "profiles")
    profiles = [
        (verify._profile("ml1", lam=1.0, sign="+"), (-3.0, 3.0)),
        (verify._profile("ml1", lam=1.0, sign="-"), (-0.9, 0.9)),
        (verify._profile("powerlaw", alpha=1.3, upsilon=1.5), (0.3, 3.0)),
        (verify._profile("powerlaw", alpha=1.0, upsilon=2.0), (0.3, 3.0)),
        (verify._profile("morse", zeta=[0.8]), (-1.5, 1.5)),
        (verify._profile("sw2", beta=1.1, eta_exp=-1.0, kappa=[1.0]), (0.3, 3.0)),
        (verify._profile("sw2", beta=1.0, eta_exp=2.0, kappa=[1.0]), (0.3, 3.0)),
        (CustomProfile.from_text("1/(1+x^2)+exp(-x^2)"), (-2.0, 2.0)),
    ]
    worst = 0.0
    for profile, (lo, hi) in profiles:
        xs = rng.uniform(lo, hi, 10_000 // len(profiles)).tolist()
        dom_lo, dom_hi = profile.domain
        hs = [0.005 * min(max(1.0, abs(x)), min(abs(x - dom_lo), abs(dom_hi - x)))
              for x in xs]
        stencil = zip(*(profile.eval_many([x + k * h for x, h in zip(xs, hs)], 0)
                        for k in (-2, -1, 0, 1, 2)))
        errors = []
        for h, vals, (m, d1, d2) in zip(hs, stencil, profile.eval_many(xs)):
            d1_fd = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
            d2_fd = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
            scale1 = max(abs(d1), abs(d1_fd), abs(m), 1e-8)
            scale2 = max(abs(d2), abs(d2_fd), abs(m), 1e-8)
            errors += abs(d1 - d1_fd) / scale1, abs(d2 - d2_fd) / scale2
        worst = verify._worst(worst, *errors)
    return worst


def _loop_potential_match(seed, case_name):
    """potential-match as a loop over points, as it was before the residuals
    became one array per batch."""
    system, nmap, ref, batches = verify._map_samples(seed, "vmatch", case_name)
    worst = 0.0
    for xs in batches:
        columns = xs.T.tolist()
        qs = [batch(column)[0] for batch, column in zip(nmap.batches, columns)]
        pairs = zip(system.potential.energies(zip(*columns)), ref.potential.energies(zip(*qs)))
        worst = verify._worst(worst, *[abs(v - v_ref) for v, v_ref in pairs])
    return worst


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_array_checks_are_the_per_point_loops(seed):
    # the loops the array forms replaced, kept as their reference: the same
    # operations per point, so each metric must match bit for bit
    metric = run_check("profiles-derivatives", seed=seed).metric
    assert metric.hex() == _loop_profile_derivatives(seed).hex()
    names = [name for name in check_names() if name.startswith("potential-match:")]
    assert len(names) == 10
    for name in names:
        metric = run_check(name, seed=seed).metric
        assert metric.hex() == _loop_potential_match(seed, name.partition(":")[2]).hex(), name


def test_running_max_is_max_per_element():
    nan = math.nan
    rows = [(nan, 1.0, 2.0), (1.0, nan, 2.0), (3.0, 1.0, nan), (0.0, 0.0, 1e-8)]
    got = verify._running_max(*(np.array(column) for column in zip(*rows)))
    assert np.array(got).tobytes() == np.array([max(*row) for row in rows]).tobytes()


class TestEveryCoordinate:
    """At n >= 2 the residual times and the g-identity read every coordinate;
    at n = 1 they are what they were."""

    def test_residual_times_keep_every_coordinate_on_its_branch(self):
        spec = verify.ExactSolutionSpec("powerlaw", verify.parameter_set(
            {"omega": [1.0, 1.7], "alpha": 1.0, "upsilon": 1.0}, 2), (1.0, 0.7), (0.0, 0.3))
        ts = verify._residual_times(spec, 3.0)
        for rate, phase in zip(spec.frequency, spec.phase):
            assert np.all(np.cos(rate * ts + phase) > 0.05)
        # coordinate 0's branch alone keeps times where coordinate 1 is off its own
        T = float(np.max(verify.oscillation_period(spec)))
        everywhere = np.linspace(0.0, 3.0 * T, 600)
        assert len(ts) < np.count_nonzero(np.cos(spec.frequency[0] * everywhere) > 0.05)

    @pytest.mark.parametrize("name", ["powerlaw-1", "powerlaw-2"])
    def test_residual_times_at_n1_are_coordinate_0s(self, name):
        spec = standard_case(name).spec()
        T = float(np.max(verify.oscillation_period(spec)))
        for periods, samples in ((3.0, 600), (1.0, 60)):
            ts = np.linspace(0.0, periods * T, samples)
            want = ts[np.cos(spec.frequency[0] * ts) > 0.05]
            assert verify._residual_times(spec, periods, samples).tobytes() == want.tobytes()

    def test_g_identity_reads_every_coordinate(self, monkeypatch):
        monkeypatch.setitem(verify.CASES, "ml1+2", verify.Case(
            "ml1+2", "ml1", {"omega": [1.0, 2.0], "lambda": 0.6, "sign": "+"}, (1.0, 0.5),
            sample_box=(-2.5, 2.5)))
        assert verify._check_g_identity(1, None, "ml1+2")[0] <= 1e-10

        def with_nan(system):
            nmap, ref = reference_map(system)

            def batch(xs, columns=MAP_COLUMNS, real=nmap.batches[1]):
                out = real(xs, columns)
                dq = out[columns.index("dq")]
                dq[len(dq) // 2] = math.nan
                return out
            object.__setattr__(nmap, "batches", (nmap.batches[0], batch))
            return nmap, ref
        monkeypatch.setattr(verify, "reference_map", with_nan)
        assert math.isnan(verify._check_g_identity(1, None, "ml1+2")[0])


@pytest.mark.parametrize("case", [
    verify.Case("ml1+2", "ml1", {"omega": [1.0, 2.0], "lambda": 1.0, "sign": "+"}, (1.0, 0.5),
                sample_box=(-2.5, 2.5)),
    verify.Case("morse2", "morse", {"omega": [1.0, 1.0], "zeta": [1.0, 2.0]}, (0.5, 0.5),
                sample_box=(-1.5, 1.5)),
    verify.Case("sw1+2", "sw1", {"omega": [1.0, 1.0], "lambda": 0.5, "sign": "+",
                                 "kappa": [1.0, 0.7]}, (1.0, 1.0), sample_box=(0.2, 2.0)),
], ids=lambda case: case.name)
def test_map_identities_at_n2(case, monkeypatch):
    # the points are (N, n): the potential match reads whole rows and the
    # g-identity runs coordinate i's map on column i
    monkeypatch.setitem(verify.CASES, case.name, case)
    _, _, _, batches = verify._map_samples(1, "vmatch", case.name)
    assert len(batches) == 10 and all(xs.shape == (1_000, 2) for xs in batches)
    assert verify._check_potential_match(1, None, case.name)[0] <= 1e-12
    assert verify._check_g_identity(1, None, case.name)[0] <= 1e-10


class TestNanResiduals:
    """A nan residual anywhere fails the check: the reduction keeps it, where
    max() would keep its running value past it and pass."""

    def test_the_reduction_keeps_nan(self):
        from pdmdyn.verify import _worst
        nan = float("nan")
        assert max(0.0, 1.0, nan) == 1.0        # what it replaces
        for residuals in ([1.0, nan], [nan, 1.0], [nan], [0.5, nan, 2.0]):
            assert math.isnan(_worst(0.0, *residuals))
        assert _worst(0.0, 0.5, 2.0, 1.0) == 2.0 and _worst(3.0) == 3.0

    def test_g_identity(self, monkeypatch):
        def with_nan(system):
            nmap, ref = reference_map(system)

            def batch(xs, columns=MAP_COLUMNS, real=nmap.batches[0]):
                out = real(xs, columns)
                dq = out[columns.index("dq")]
                dq[len(dq) // 2] = math.nan
                return out
            object.__setattr__(nmap, "batches", (batch,))
            return nmap, ref
        monkeypatch.setattr(verify, "reference_map", with_nan)
        report = run_check("g-identity:ml1+", seed=1)
        assert math.isnan(report.metric) and not report.passed

    def test_potential_match(self, monkeypatch):
        real = verify.potential_match_residual

        def with_nan(*args):
            out = real(*args)
            out[len(out) // 2] = math.nan
            return out
        monkeypatch.setattr(verify, "potential_match_residual", with_nan)
        report = run_check("potential-match:morse", seed=1)
        assert math.isnan(report.metric) and not report.passed

    def test_profiles_derivatives(self, monkeypatch):
        real = CustomProfile.eval_many

        def with_nan(profile, xs, order=2):
            out = real(profile, xs, order)
            if order == 2:
                m, d1, d2 = out[len(out) // 2]
                out[len(out) // 2] = m, math.nan, d2
            return out
        monkeypatch.setattr(CustomProfile, "eval_many", with_nan)
        report = run_check("profiles-derivatives", seed=1)
        assert math.isnan(report.metric) and not report.passed


_EOM_CASES = ("ml1+", "ml1-", "powerlaw-1", "ml2-reduction", "morse", "sw1+",
              "sw2-amended-eta2")


@pytest.mark.parametrize("seed", [7, 2 ** 40])
@pytest.mark.parametrize("case_name", _EOM_CASES)
def test_printed_eom_draws_the_scalar_sequence(case_name, seed):
    """One vector draw of the (x, v) pairs gives the metric of 2,000 scalar
    draws, bit for bit."""
    case = standard_case(case_name)
    rhs, printed = verify.el1_rhs(case.system()), verify._printed_eom(case)
    rng = verify._rng(seed, f"printed-{case_name}")
    errors = []
    for _ in range(1000):
        x = float(rng.uniform(*case.sample_box))
        v = float(rng.uniform(-2.0, 2.0))
        ref = printed(x, v)
        errors.append(abs(rhs(0.0, [x], [v])[0] - ref) / max(abs(ref), 1.0))
    metric = run_check(f"printed-eom:{case_name}", seed=seed).metric
    assert metric.hex() == verify._worst(0.0, *errors).hex()


def test_verify_diff_counts_moved_details(tmp_path, capsys):
    tool = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "verify_diff.py"))
    entry = {"name": "a", "passed": True, "metric": "1.0", "threshold": "2.0",
             "comparison": "<=", "details": "steps 10"}
    reports = {"before": [entry, {**entry, "name": "b"}, {**entry, "name": "c"}],
               "after": [{**entry, "details": "steps 11"}, {**entry, "name": "b"},
                         {**entry, "name": "c", "metric": "1.5", "details": "E0 2"}]}
    paths = []
    for key, checks in reports.items():
        paths.append(tmp_path / f"{key}.json")
        paths[-1].write_text(json.dumps({"summary": {}, "checks": checks}))
    assert tool["main"]([str(p) for p in paths]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "a details 'steps 10' 'steps 11'", "c 1.0 1.5", "c details 'steps 10' 'E0 2'",
        "2 moved"]
    # the same threshold and verdict under a flipped comparison is a change
    paths[1].write_text(json.dumps({"summary": {}, "checks": [
        entry, {**entry, "name": "b", "comparison": ">="}, {**entry, "name": "c"}]}))
    assert tool["main"]([str(p) for p in paths]) == 1
    assert capsys.readouterr().out.splitlines() == ["comparison differs: b <= -> >=",
                                                    "0 moved"]
