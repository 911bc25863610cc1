"""Tests for the verification checks and the suite runner."""

import math

import numpy as np
import pytest

import swanson.checks
from swanson.checks import (
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
    convergence_study,
    draw_params,
    run_suite,
)
from swanson.grids import build_grid
from swanson.model import make_params, with_beta

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

    def test_variant_randomized(self):
        result = check_variant_discrepancy_randomized(seed=42)
        assert result.passed
        assert result.details["discrepancy_iff_mu_nonzero"]

    def test_adjoint(self):
        for params in (P1, P2):
            result = check_adjoint(params)
            assert result.passed
            assert abs(result.details["T_minus_half_R"]) < 1e-15

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
        result = check_metric_limit(P1, beta_small=1e-6, p_range=5.0)
        assert result.passed
        assert result.residual < 1e-3
        assert abs(result.details["estimate"] - 3.125e-4) < 1e-8

    def test_deviation_grows_with_beta(self):
        deviations = [check_metric_limit(P1, beta_small=b).residual
                      for b in (1e-6, 1e-5, 1e-4)]
        assert deviations[0] < deviations[1] < deviations[2]
        assert abs(deviations[1] - 3e-2) < 2e-2 or deviations[1] < 3e-2

    def test_identity_when_lambda_equals_delta(self):
        result = check_metric_limit(make_params(1.0, 0.3, 0.3))
        assert result.passed and result.residual == 0.0

    def test_positive_beta_required(self):
        with pytest.raises(ValueError, match="beta_small"):
            check_metric_limit(P1, beta_small=0.0)


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

    def test_override_breaks_the_identity(self):
        grid = build_grid(501, 10.0)
        result = check_numeric_residual(P1, grid, exponent_override=3.0)
        assert not result.passed


class TestSpectrum:
    def test_oracle_path(self):
        grid = build_grid(1001, 10.0)
        result, spectrum = check_spectrum(P1, grid, 4, 6)
        assert result.passed
        assert result.tolerance == 1e-4
        assert len(spectrum.eigenvalues) == 6
        assert result.details["oracle"][0] == pytest.approx(math.sqrt(2) / 2)

    def test_oscillator_levels(self):
        params = make_params(1.0, 0.0, 0.0)
        grid = build_grid(1001, 10.0)
        result, _ = check_spectrum(params, grid, 4, 4)
        np.testing.assert_allclose(result.details["oracle"], [0.5, 1.5, 2.5, 3.5])

    def test_broken_reality_is_distinct_outcome(self):
        params = make_params(0.5, 0.45, 0.45)  # omega^2 < 4*lam*delta
        grid = build_grid(301, 10.0)
        result, spectrum = check_spectrum(params, grid, 4, 4)
        assert result.details["oracle"].startswith("unavailable")
        assert math.isfinite(result.residual)
        assert len(spectrum.eigenvalues) == 4

    def test_deformed_reports_reality(self):
        grid = build_grid(301, 20.0, 0.1)
        result, _ = check_spectrum(P1_DEFORMED, grid, 4, 3)
        assert result.tolerance is None
        assert "reality_ratios" in result.details


class TestConvergence:
    def test_spectrum_order(self):
        grids = [build_grid(n, 10.0) for n in (251, 501, 1001)]
        result = convergence_study(P1, grids, "E0")
        assert result.passed
        assert result.details["fitted_order"] > 3.5
        assert result.details["monotone"]

    def test_residual_order(self):
        grids = [build_grid(n, 10.0) for n in (251, 501, 1001)]
        result = convergence_study(P1, grids, "residual")
        assert result.passed
        assert result.details["fitted_order"] > 3.5

    def test_reality_monotone(self):
        grids = [build_grid(n, pm, 0.1)
                 for n, pm in ((201, 10.0), (401, 20.0), (601, 30.0))]
        result = convergence_study(P1_DEFORMED, grids, "reality")
        assert result.passed
        assert len(result.details["reality_ratios"]) == 3
        assert len(result.details["spectra"]) == 3

    def test_needs_three_grids(self):
        grids = [build_grid(101, 10.0), build_grid(201, 10.0)]
        with pytest.raises(ValueError, match="3 grids"):
            convergence_study(P1, grids, "E0")

    def test_repeated_spacings_rejected(self):
        # a fit through repeated grids is ill-conditioned (numpy RankWarning)
        grids = [build_grid(n, 10.0) for n in (5, 5, 7)]
        for target in ("E0", "residual"):
            with pytest.raises(ValueError, match="3 distinct grid spacings"):
                convergence_study(P1, grids, target)

    def test_small_n_suite_fails_the_fits_by_name(self):
        # n = 5, 7, 9 halve into repeated convergence grids
        for n in (5, 7, 9):
            report = run_suite(P1, SuiteConfig(n=n, levels=2))
            checks = {c.name: c for c in report.checks}
            for name in ("convergence_residual", "convergence_spectrum"):
                assert not checks[name].passed
                assert "distinct grid spacings" in checks[name].details["error"]

    def test_unknown_target(self):
        grids = [build_grid(101, 10.0)] * 3
        with pytest.raises(ValueError, match="target"):
            convergence_study(P1, grids, "energy")


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
        # the deformed suite reaches the ARPACK solver, whose start vector
        # would otherwise differ from call to call
        solvers = {c["details"].get("solver") for c in first["checks"]}
        assert "arpack-shift-invert" in solvers

    def test_negative_control_names_failing_checks(self):
        config = SuiteConfig(n=301, exponent_override=3.0)
        report = run_suite(P1, config)
        assert not report.passed
        failing = {c.name for c in report.checks if not c.passed}
        assert "pseudo_hermiticity_gaussian" in failing
        # randomized identities are untouched by the override
        assert "pseudo_hermiticity_gaussian_randomized" not in failing

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
        for _ in range(50):
            params = draw_params(rng, spectrum_safe=True)
            assert params.omega ** 2 >= 4.0 * params.lam * params.delta
            assert params.omega - params.lam - params.delta > 0.0
