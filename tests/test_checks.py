"""Tests for the verification checks and the suite runner."""

import dataclasses
import math

import numpy as np
import pytest

import swanson.checks
import swanson.model
from swanson.checks import (
    ANCHORS,
    CheckResult,
    SuiteConfig,
    check_adjoint,
    check_deformed_similarity_randomized,
    check_expansion,
    check_expansion_randomized,
    check_gaussian_similarity_randomized,
    check_metric_limit,
    check_numeric_residual,
    check_pseudo_symbolic,
    check_spectrum,
    check_variant_discrepancy,
    check_variant_discrepancy_randomized,
    convergence_order,
    convergence_reality,
    draw_params,
    run_suite,
)
from swanson.algebra import const_op
from swanson.grids import build_grid
from swanson.model import ModelParams, make_params, stack_params, with_beta

P1 = make_params(1.0, -0.5, 0.5)
P2 = make_params(2.0, 0.1, 0.4)
P1_DEFORMED = with_beta(P1, 0.1)


class TestSymbolicChecks:
    def test_expansion(self):
        for params in (P1, P2):
            result = check_expansion(params)
            assert result.passed and result.residual < 1e-12

    def test_expansion_randomized(self):
        result = check_expansion_randomized(seed=42)
        assert result.passed
        assert result.details["draws"] == 100

    def test_variant_discrepancy_reports_difference(self):
        result = check_variant_discrepancy(P1)
        assert result.passed
        assert not result.details["variants_identical"]
        assert "p·D" in result.details["difference"]
        assert result.details["mu"] == 1.0

    def test_variant_identical_at_mu_zero(self):
        result = check_variant_discrepancy(make_params(1.3, 0.0, 0.0))
        assert result.passed
        assert result.details["variants_identical"]

    def test_nan_difference_fails_variant(self, monkeypatch):
        closed_form = swanson.checks.reduced_variant_difference
        monkeypatch.setattr(
            swanson.checks, "reduced_variant_difference",
            lambda params: closed_form(params) + const_op(math.nan, params.beta))
        check_variant_discrepancy.cache_clear()
        try:
            result = check_variant_discrepancy(P1)
        finally:
            check_variant_discrepancy.cache_clear()
        assert result.details["reduction_residual"] == 0.0
        assert math.isnan(result.details["difference_form_residual"])
        assert math.isnan(result.residual) and not result.passed

    def test_variant_randomized(self):
        result = check_variant_discrepancy_randomized(seed=42)
        assert result.passed
        assert result.details["discrepancy_iff_mu_nonzero"]

    def test_adjoint(self):
        for params in (P1, P2):
            result = check_adjoint(params)
            assert result.passed
            assert abs(result.details["T_minus_half_R"]) < 1e-15

    def test_adjoint_compares_h0_with_the_hamiltonian(self, monkeypatch):
        details = check_adjoint(P1).details
        assert details["representation_residual"] == 0.0
        assert details["adjoint_residual"] == 0.0
        printed = swanson.model.momentum_rep_coeffs

        def wrong_s(params):
            coeffs = printed(params)
            return dataclasses.replace(coeffs, S=1.01 * coeffs.S)

        monkeypatch.setattr(swanson.model, "momentum_rep_coeffs", wrong_s)
        check_adjoint.cache_clear()
        try:
            result = check_adjoint(P1)
        finally:
            check_adjoint.cache_clear()
        assert not result.passed
        # the adjoint of the wrong H0 still flips its R and T terms
        assert result.details["adjoint_residual"] == 0.0
        assert result.residual == result.details["representation_residual"] > 1e-3

    def test_pseudo_symbolic_gaussian(self):
        result = check_pseudo_symbolic(P1)
        assert result.name == "pseudo_hermiticity_gaussian"
        assert result.passed
        assert abs(result.details["alpha"] - 1.0) < 1e-14

    def test_pseudo_symbolic_deformed(self):
        result = check_pseudo_symbolic(P1_DEFORMED)
        assert result.name == "pseudo_hermiticity_deformed"
        assert result.passed
        assert abs(result.details["exponent"] - 10.0) < 1e-12

    def test_pseudo_symbolic_deformed_p2_betas(self):
        for beta in (0.01, 1.0):
            result = check_pseudo_symbolic(with_beta(P2, beta))
            assert result.passed and result.residual < 1e-12

    def test_pseudo_symbolic_identity_metric_degenerate_case(self):
        flat = make_params(1.0, 0.3, 0.3)
        result = check_pseudo_symbolic(flat)
        assert result.passed and result.details["alpha"] == 0.0
        deformed = make_params(1.0, 0.3, 0.3, beta=0.1)
        result = check_pseudo_symbolic(deformed)
        assert result.passed and result.details["exponent"] == 0.0

    def test_pseudo_symbolic_override_fails(self):
        result = check_pseudo_symbolic(P1, exponent_override=3.0)
        assert not result.passed

    def test_randomized_similarity_suites(self):
        assert check_gaussian_similarity_randomized(seed=42).passed
        deformed = check_deformed_similarity_randomized(seed=42)
        assert deformed.passed
        assert deformed.details["betas"] == [0.01, 0.1, 1.0]


class TestMetricLimit:
    def test_small_beta_deviation(self):
        result = check_metric_limit(P1)
        assert result.passed
        assert result.residual < 1e-3
        assert abs(result.details["estimate"] - 3.125e-4) < 1e-8

    def test_deviation_grows_with_beta(self):
        deviations = [check_metric_limit(with_beta(P1, b)).residual
                      for b in (1e-6, 1e-5, 1e-4)]
        assert deviations[0] < deviations[1] < deviations[2]
        assert abs(deviations[1] - 3e-2) < 2e-2 or deviations[1] < 3e-2

    def test_identity_when_lambda_equals_delta(self):
        result = check_metric_limit(make_params(1.0, 0.3, 0.3))
        assert result.passed and result.residual == 0.0

    def test_beta_small_is_the_models_beta(self):
        assert check_metric_limit(P1).details["beta_small"] == 1e-6
        assert check_metric_limit(P1_DEFORMED).details["beta_small"] == 0.1

    def test_huge_alpha_fails(self):
        # alpha = 1e307: both terms of the log ratio overflow, inf - inf
        result = check_metric_limit(make_params(1.0, -0.5, 0.5, m=1e-307))
        assert math.isnan(result.residual) and not result.passed


class TestNumericResidual:
    def test_hermitian_case_is_exact(self):
        params = make_params(1.0, 0.3, 0.3)
        grid = build_grid(301, 10.0)
        result = check_numeric_residual(params, grid)
        assert result.passed
        assert result.residual < 1e-12
        assert result.details["interior_row_residual"] < 1e-12

    def test_fourth_order_scaling(self):
        coarse = check_numeric_residual(P1, build_grid(501, 10.0)).residual
        fine = check_numeric_residual(P1, build_grid(1001, 10.0)).residual
        assert 10.0 < coarse / fine < 24.0

    def test_deformed_is_report_only(self):
        grid = build_grid(301, 10.0, 0.1)
        result = check_numeric_residual(P1_DEFORMED, grid)
        assert result.tolerance is None
        assert result.passed and math.isfinite(result.residual)

    def test_nan_probe_fails(self, monkeypatch):
        gaussian_state = swanson.checks.gaussian_state
        third = swanson.checks.PROBE_CENTERS[2]

        def nan_third_probe(grid, center, width):
            psi = gaussian_state(grid, center, width)
            return psi * math.nan if center == third else psi

        monkeypatch.setattr(swanson.checks, "gaussian_state", nan_third_probe)
        result = check_numeric_residual(P1, build_grid(401, 10.0))
        probes = result.details["probe_residuals"]
        assert math.isnan(probes[2]) and all(math.isfinite(r) for r in probes[3:])
        assert math.isnan(result.residual) and not result.passed

    def test_override_breaks_the_identity(self):
        grid = build_grid(501, 10.0)
        result = check_numeric_residual(P1, grid, exponent_override=3.0)
        assert not result.passed


class TestSpectrum:
    def test_oracle_path(self):
        grid = build_grid(1001, 10.0)
        result = check_spectrum(P1, grid, 4, 6)
        assert result.passed
        assert result.tolerance == 1e-4
        assert len(result.details["re"]) == 6
        assert result.details["im"] == [0.0] * 6
        assert result.details["oracle"][0] == pytest.approx(math.sqrt(2) / 2)

    def test_oscillator_levels(self):
        params = make_params(1.0, 0.0, 0.0)
        grid = build_grid(1001, 10.0)
        result = check_spectrum(params, grid, 4, 4)
        np.testing.assert_allclose(result.details["oracle"], [0.5, 1.5, 2.5, 3.5])

    def test_broken_reality_is_distinct_outcome(self):
        params = make_params(0.5, 0.45, 0.45)  # omega^2 < 4*lam*delta
        grid = build_grid(301, 10.0)
        result = check_spectrum(params, grid, 4, 4)
        assert result.details["oracle"].startswith("unavailable")
        assert math.isfinite(result.residual)
        assert len(result.details["re"]) == len(result.details["im"]) == 4

    def test_deformed_reports_reality(self):
        grid = build_grid(301, 20.0, 0.1)
        result = check_spectrum(P1_DEFORMED, grid, 4, 3)
        assert result.tolerance is None
        assert "reality_ratios" in result.details


def _residual_errors(params, grids):
    return [check_numeric_residual(params, g).residual for g in grids]


def _e0_errors(params, grids):
    return [check_spectrum(params, g, 4, 1).details["errors"][0] for g in grids]


class TestConvergence:
    def test_spectrum_order(self):
        grids = [build_grid(n, 10.0) for n in (251, 501, 1001)]
        result = convergence_order("convergence_spectrum", grids,
                                   _e0_errors(P1, grids))
        assert result.passed
        assert result.details["fitted_order"] > 3.5
        assert result.details["monotone"]

    def test_residual_order(self):
        grids = [build_grid(n, 10.0) for n in (251, 501, 1001)]
        result = convergence_order("convergence_residual", grids,
                                   _residual_errors(P1, grids))
        assert result.passed
        assert result.details["fitted_order"] > 3.5

    def test_reality_monotone(self):
        grids = [build_grid(n, pm, 0.1)
                 for n, pm in ((201, 10.0), (401, 20.0), (601, 30.0))]
        result = convergence_reality(
            grids, [check_spectrum(P1_DEFORMED, g, 4, 3) for g in grids])
        assert result.passed
        assert len(result.details["reality_ratios"]) == 3
        assert len(result.details["spectra"]) == 3

    def test_nan_ratio_fails_reality(self):
        grids = [build_grid(n, pm, 0.1)
                 for n, pm in ((21, 10.0), (41, 20.0), (61, 30.0))]
        # a NaN second ratio on each grid, the others decreasing
        results = [CheckResult("spectrum", "", 0.0, None, True, {
            "reality_ratios": [ratio, math.nan, 0.0],
            "re": [1.0, 2.0, 3.0], "im": [ratio, 0.0, 0.0], "solver": "dense"})
            for ratio in (1e-3, 1e-4, 1e-5)]
        result = convergence_reality(grids, results)
        assert all(math.isnan(r) for r in result.details["reality_ratios"])
        assert math.isnan(result.residual) and not result.passed

    def test_exact_errors_pass_without_an_order(self):
        grids = [build_grid(n, 10.0) for n in (51, 101, 201)]
        result = convergence_order("convergence_residual", grids, [0.0] * 3)
        assert result.passed and result.residual == 0.0
        assert result.details["fitted_order"] is None
        assert result.details["errors"] == [0.0, 0.0, 0.0]
        assert result.paper_anchor == ANCHORS["convergence_residual"]
        # one nonzero error is a measurement: the fit runs through the floor
        fitted = convergence_order("convergence_residual", grids,
                                   [0.0, 0.0, 1e-12])
        assert not fitted.passed and fitted.details["fitted_order"] < 0

    def test_reality_study_records_every_solver(self):
        report = run_suite(P1_DEFORMED, SuiteConfig(n=401))
        checks = {c.name: c for c in report.checks}
        study = checks["convergence_reality"]
        assert study.details["n"] == [135, 269, 401]
        assert study.details["solvers"] == [
            "dense", "shift-invert", "shift-invert"]
        assert study.details["solvers"][-1] == checks["spectrum"].details["solver"]

    def test_needs_three_grids(self):
        grids = [build_grid(101, 10.0), build_grid(201, 10.0)]
        with pytest.raises(ValueError, match="3 grids"):
            convergence_order("convergence_spectrum", grids,
                              _e0_errors(P1, grids))

    def test_repeated_spacings_rejected(self):
        # a fit through repeated grids is ill-conditioned (numpy RankWarning)
        grids = [build_grid(n, 10.0) for n in (5, 5, 7)]
        for errors in (_e0_errors(P1, grids), _residual_errors(P1, grids)):
            with pytest.raises(ValueError, match="3 distinct grid spacings"):
                convergence_order("convergence_residual", grids, errors)

    def test_no_fit_through_non_finite_errors(self):
        grids = [build_grid(n, 10.0) for n in (51, 101, 201)]
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="cannot fit"):
                convergence_order("convergence_residual", grids,
                                  [1e-3, 1e-4, bad])

    def test_small_n_suite_fails_the_fits_by_name(self):
        # n = 5, 7, 9 halve into repeated convergence grids
        for n in (5, 7, 9):
            report = run_suite(P1, SuiteConfig(n=n, levels=2))
            checks = {c.name: c for c in report.checks}
            for name in ("convergence_residual", "convergence_spectrum"):
                assert not checks[name].passed
                assert "distinct grid spacings" in checks[name].details["error"]

    def _counted_suite(self, monkeypatch, params, config):
        """Run a suite on empty caches, counting grid assemblies,
        eigensolves and single-parameter Hamiltonian builds."""
        calls = {"assemble": 0, "eigs": 0, "h_quadratic": 0, "h_deformed": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                if not key.startswith("h_") or isinstance(args[0], ModelParams):
                    calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        for key, name in (("assemble", "assemble_matrix"), ("eigs", "eigs"),
                          ("h_quadratic", "h_quadratic"),
                          ("h_deformed", "h_deformed")):
            monkeypatch.setattr(swanson.checks, name,
                                counted(key, getattr(swanson.checks, name)))
        for value in vars(swanson.checks).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        report = run_suite(params, config)
        return {c.name: c for c in report.checks}, calls

    def test_flat_studies_end_at_the_suite_grid(self, monkeypatch):
        checks, calls = self._counted_suite(monkeypatch, P1, SuiteConfig(n=301))
        # suite grid: residual and spectrum; each coarse grid: both again.
        # expansion and momentum_adjoint build H; reduced_vs_variant and
        # every grid share a third build
        assert calls == {"assemble": 6, "eigs": 3, "h_quadratic": 3,
                         "h_deformed": 0}
        assert (checks["convergence_residual"].details["errors"][-1]
                == checks["numeric_residual"].residual)
        assert (checks["convergence_spectrum"].details["errors"][-1]
                == checks["spectrum"].details["errors"][0])
        assert checks["convergence_residual"].details["h"][-1] == 20.0 / 300

    def test_deformed_study_ends_at_the_suite_grid(self, monkeypatch):
        checks, calls = self._counted_suite(
            monkeypatch, P1_DEFORMED, SuiteConfig(n=301, p_max=20.0))
        # suite grid: residual and spectrum; each coarse grid: a spectrum.
        # pseudo_hermiticity_deformed builds H and every grid shares a
        # second build; the undeformed symbolic checks build H three times
        assert calls == {"assemble": 4, "eigs": 3, "h_quadratic": 3,
                         "h_deformed": 2}
        reality = checks["convergence_reality"].details
        spectrum = checks["spectrum"].details
        assert reality["reality_ratios"][-1] == max(spectrum["reality_ratios"][:3])
        assert reality["spectra"][-1] == {"re": spectrum["re"][:3],
                                          "im": spectrum["im"][:3]}
        assert (reality["n"][-1], reality["p_max"][-1]) == (301, 20.0)

    def test_study_names_a_failed_finest_check(self, monkeypatch):
        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("no spectrum")

        monkeypatch.setattr(swanson.checks, "eigs", broken)
        for params, study in ((P1, "convergence_spectrum"),
                              (P1_DEFORMED, "convergence_reality")):
            checks = {c.name: c for c in run_suite(
                params, SuiteConfig(n=101, p_max=20.0)).checks}
            assert not checks[study].passed
            assert checks[study].details["error"] == (
                "ValueError: spectrum failed: LinAlgError: no spectrum")


class TestSuite:
    def test_full_suite_flat(self):
        report = run_suite(P1, SuiteConfig(n=501))
        assert report.passed
        names = [c.name for c in report.checks]
        assert len(names) >= 6
        assert "reduced_vs_variant" in names       # P1 sits in the regime
        assert "pseudo_hermiticity_deformed" not in names
        assert report.spectra is not None

    def test_full_suite_deformed(self):
        report = run_suite(P1_DEFORMED, SuiteConfig(n=401, p_max=20.0))
        assert report.passed
        names = [c.name for c in report.checks]
        assert "pseudo_hermiticity_deformed" in names
        assert "convergence_reality" in names

    def test_out_of_regime_skips_variant_check(self):
        report = run_suite(P2, SuiteConfig(n=301))
        names = [c.name for c in report.checks]
        assert "reduced_vs_variant" not in names
        assert "reduced_vs_variant_randomized" in names

    def test_seed_only_checks_run_once_per_seed(self):
        config = SuiteConfig(n=101, p_max=8.0, seed=3)
        reports = [run_suite(with_beta(P1, beta), config) for beta in (0.0, 0.1)]
        shared = [{c.name: c for c in r.checks if c.name.endswith("_randomized")}
                  for r in reports]
        assert len(shared[0]) == 4
        assert all(shared[1][name] is check for name, check in shared[0].items())

    def test_beta_independent_checks_run_once_per_params(self):
        config = SuiteConfig(n=101, p_max=8.0, seed=3)
        reports = [run_suite(with_beta(P1, beta), config)
                   for beta in (0.0, 0.1, 0.3)]
        names = ("expansion", "reduced_vs_variant", "momentum_adjoint",
                 "pseudo_hermiticity_gaussian")
        shared = [{c.name: c for c in r.checks if c.name in names}
                  for r in reports]
        assert len(shared[0]) == 4
        for later in shared[1:]:
            assert all(later[name] is check for name, check in shared[0].items())

    def test_signed_zero_parameters_are_not_shared(self):
        # -0.0 == 0.0, yet the two print differently in a report
        params = [make_params(1.3, lam, -lam) for lam in (0.0, -0.0)]
        for check in (check_expansion, check_variant_discrepancy,
                      check_adjoint, check_pseudo_symbolic):
            results = [check(p) for p in params]
            assert results[0] is not results[1]
            # repr, unlike ==, shows the sign of a zero
            assert repr(results) == repr([check.__wrapped__(p) for p in params])
        assert check_pseudo_symbolic(P1, 0.0) is not check_pseudo_symbolic(P1, -0.0)

    def test_failed_checks_keep_their_anchor_and_tolerance(self, monkeypatch):
        config = SuiteConfig(n=101, p_max=20.0)
        expected = {
            P1_DEFORMED: {"spectrum": None, "convergence_reality": 0.0},
            P1: {"spectrum": 1e-4, "convergence_spectrum": 0.0},
            # flat without a ladder: omega^2 <= 4*lam*delta
            make_params(0.5, 0.45, 0.45): {"spectrum": None},
        }
        anchors = {params: {c.name: c.paper_anchor
                            for c in run_suite(params, config).checks}
                   for params in expected}

        def broken(*args, **kwargs):
            raise np.linalg.LinAlgError("no spectrum")

        monkeypatch.setattr(swanson.checks, "eigs", broken)
        for params, tolerances in expected.items():
            failed = {c.name: c for c in run_suite(params, config).checks
                      if not c.passed}
            assert set(failed) == set(tolerances)
            for name, tolerance in tolerances.items():
                assert failed[name].tolerance == tolerance
                assert failed[name].paper_anchor == anchors[params][name] != ""

    def test_only_numeric_errors_fail_a_check(self, monkeypatch):
        def raiser(error):
            def check_expansion(*args, **kwargs):
                raise error
            return check_expansion

        config = SuiteConfig(n=101, p_max=8.0)
        monkeypatch.setattr(swanson.checks, "check_expansion",
                            raiser(ArithmeticError("overflow")))
        expansion = run_suite(P1, config).checks[0]
        assert expansion.name == "expansion" and not expansion.passed
        assert expansion.details["error"] == "ArithmeticError: overflow"
        monkeypatch.setattr(swanson.checks, "check_expansion",
                            raiser(TypeError("programming error")))
        with pytest.raises(TypeError):
            run_suite(P1, config)

    def test_identity_metric_suite_passes(self):
        # lam = delta: the metric is the identity and the discrete
        # conjugation is exact on every grid
        config = SuiteConfig(n=301, p_max=8.0)
        report = run_suite(make_params(1.0, 0.2, 0.2), config)
        checks = {c.name: c for c in report.checks}
        assert report.passed
        study = checks["convergence_residual"]
        assert study.details["errors"] == [0.0, 0.0, 0.0]
        assert study.details["fitted_order"] is None
        # the override negative control still fails the same study
        control = run_suite(make_params(1.0, 0.2, 0.2),
                            SuiteConfig(n=301, p_max=8.0, exponent_override=0.3))
        failing = {c.name for c in control.checks if not c.passed}
        assert {"numeric_residual", "convergence_residual"} <= failing

    def test_exact_study_has_no_monotone_verdict(self):
        report = run_suite(make_params(1.0, 0.2, 0.2), SuiteConfig(n=301))
        study = {c.name: c for c in report.checks}["convergence_residual"]
        assert study.passed and study.details["fitted_order"] is None
        assert study.details["monotone"] is None
        fitted = {c.name: c for c in run_suite(P1, SuiteConfig(n=301)).checks}
        assert fitted["convergence_residual"].details["monotone"] is True

    def test_pass_rule(self):
        result = swanson.checks._result
        assert result("metric_limit", 1.0, None).passed
        assert result("metric_limit", 1.0, 1.0).passed
        assert not result("metric_limit", 1.5, 1.0).passed
        for residual in (math.inf, math.nan):
            for tolerance in (None, 1.0, math.inf):
                assert not result("metric_limit", residual, tolerance).passed

    def test_residual_is_the_largest_measurement(self):
        result = swanson.checks._result
        assert result("metric_limit", [], None).residual == 0.0
        assert result("metric_limit", np.array([]), None).residual == 0.0
        assert result("metric_limit", [1.0, np.array([3.0, 2.0])], 3.0).residual == 3.0
        for measured in (math.nan, [1.0, np.array([math.nan, 2.0])],
                         [np.array([1.0]), 5.0, math.nan]):
            assert math.isnan(result("metric_limit", measured, None).residual)

    def test_every_symbolic_check_is_cached(self):
        cached = [check_expansion, check_variant_discrepancy, check_adjoint,
                  check_pseudo_symbolic, check_expansion_randomized,
                  check_variant_discrepancy_randomized,
                  check_gaussian_similarity_randomized,
                  check_deformed_similarity_randomized]
        for check in cached:
            assert callable(check.cache_clear)
        assert check_expansion_randomized(7) is check_expansion_randomized(7)
        check_expansion_randomized.cache_clear()
        first = check_expansion_randomized(7)
        check_expansion_randomized.cache_clear()
        assert check_expansion_randomized(7) is not first

    def test_cache_keys_on_exact_argument_bytes(self):
        build = swanson.checks._cached(lambda *args: object())
        near = [stack_params([make_params(1.0, lam, -0.2)])
                for lam in (0.1, 0.1 + 1e-12)]
        assert repr(near[0]) == repr(near[1])
        assert build(near[0]) is not build(near[1])
        assert build(near[0]) is build(near[0])
        assert build(0.0) is not build(-0.0)

    def test_invalid_params_rejected_before_any_check(self):
        with pytest.raises(ValueError):
            make_params(1.0, 0.5, 0.5)

    def test_results_internally_consistent(self):
        report = run_suite(P1, SuiteConfig(n=301))
        for check in report.checks:
            assert isinstance(check, CheckResult)
            assert check.residual >= 0.0
            assert math.isfinite(check.residual)
            if check.tolerance is not None:
                assert check.passed == (check.residual <= check.tolerance)
            assert check.paper_anchor

    def test_deterministic_reports(self):
        for params, config in ((P1, SuiteConfig(n=301)),
                               (P1_DEFORMED, SuiteConfig(n=301, p_max=20.0))):
            first = run_suite(params, config).to_json_dict("T")
            second = run_suite(params, config).to_json_dict("T")
            assert first == second
        # the deformed suite reaches the shift-invert solver, whose start
        # vector would otherwise differ from call to call
        solvers = {c["details"].get("solver") for c in first["checks"]}
        assert "shift-invert" in solvers

    def test_negative_control_names_failing_checks(self):
        config = SuiteConfig(n=301, exponent_override=3.0)
        report = run_suite(P1, config)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "pseudo_hermiticity_gaussian" in failing
        # randomized identities are untouched by the override
        assert "pseudo_hermiticity_gaussian_randomized" not in failing
        # the residual study measures the overridden exponent too
        checks = {c.name: c for c in report.checks}
        errors = checks["convergence_residual"].details["errors"]
        assert errors[-1] == checks["numeric_residual"].residual
        assert errors[-1] > 1e-3

    def test_timings_recorded_but_not_serialized(self):
        report = run_suite(P1, SuiteConfig(n=301))
        assert report.timings
        payload = report.to_json_dict("T")
        assert set(payload.keys()) == {"params", "grid", "checks", "spectra",
                                       "generated_at", "seed"}

    def test_draw_params_respects_guards(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            params = draw_params(rng)
            assert abs(params.omega - params.lam - params.delta) >= 0.05
        for _ in range(50):
            params = draw_params(rng, regime=True)
            assert params.lam == -params.delta
