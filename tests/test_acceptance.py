"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the line-per-criterion
output.  Criteria are identity/oracle/property based at desk scale; the
numeric thresholds follow the calibrated stencil-order scaling with the
convergence studies as the authoritative criterion.
"""

import json
import time

import numpy as np

from swanson.algebra import operators_equal
from swanson.checks import (
    SuiteConfig,
    check_metric_limit,
    check_numeric_residual,
    check_spectrum,
    convergence_order,
    draw_params,
    run_suite,
)
from swanson.cli import main
from swanson.grids import assemble_matrix, build_grid, weighted_adjoint
from swanson.model import (
    gaussian_alpha,
    h0_adjoint_expected,
    h0_momentum,
    h_deformed,
    h_ladder,
    h_quadratic,
    h_reduced,
    h_variant,
    make_params,
    metric_exponent,
    momentum_rep_coeffs,
    oscillator_levels,
    reduced_variant_difference,
    with_beta,
)

P1 = make_params(1.0, -0.5, 0.5)
P2 = make_params(2.0, 0.1, 0.4)
SEED = 42
P1_FLAGS = ["--omega", "1", "--lambda", "-0.5", "--delta", "0.5"]


def report_line(number, passed, text):
    print(f"ACCEPTANCE {number:>2} [{'PASS' if passed else 'FAIL'}]: {text}")
    assert passed, text


def test_criterion_01_ladder_vs_quadratic_expansion():
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    worst = 0.0
    for params in [P1, P2] + [draw_params(rng) for _ in range(100)]:
        worst = max(worst, operators_equal(h_ladder(params),
                                           h_quadratic(params)).residual)
    elapsed = time.perf_counter() - start
    passed = worst < 1e-12 and elapsed < 1.0
    report_line(1, passed,
                f"expansion residual {worst:.2e} < 1e-12 over P1, P2 and 100 "
                f"draws in {elapsed * 1000:.0f} ms")


def test_criterion_02_reduced_vs_variant_difference():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for k in range(100):
        params = make_params(1.3, 0.0, 0.0) if k == 0 \
            else draw_params(rng, regime=True)
        difference = h_reduced(params) - h_variant(params)
        worst = max(worst, operators_equal(
            difference, reduced_variant_difference(params)).residual)
        if params.mu == 0.0:
            worst = max(worst, difference.max_abs_coeff())
    report_line(2, worst < 1e-12,
                f"reduced-vs-variant difference equals mu*p*D + mu/2 within "
                f"{worst:.2e} (zero at mu = 0)")


def test_criterion_03_momentum_representation_and_adjoint():
    c1 = momentum_rep_coeffs(P1)
    c2 = momentum_rep_coeffs(P2)
    coeffs_ok = (
        np.allclose([c1.Q, c1.R, c1.S, c1.T], [-0.5, -1.0, 0.5, -0.5],
                    atol=1e-15)
        and np.allclose([c2.Q, c2.R, c2.S, c2.T], [-1.5, -0.3, 0.625, -0.15],
                        atol=1e-15))
    rng = np.random.default_rng(SEED)
    adjoint_worst = 0.0
    half_r_worst = 0.0
    for params in [P1, P2] + [draw_params(rng) for _ in range(100)]:
        h0 = h0_momentum(params)
        adjoint_worst = max(adjoint_worst, operators_equal(
            h0.adjoint(), h0_adjoint_expected(params)).residual)
        coeffs = momentum_rep_coeffs(params)
        half_r_worst = max(half_r_worst, abs(coeffs.T - coeffs.R / 2.0))
    passed = coeffs_ok and adjoint_worst < 1e-12 and half_r_worst < 1e-15
    report_line(3, passed,
                f"(Q,R,S,T) exact for P1/P2, adjoint residual "
                f"{adjoint_worst:.2e} < 1e-12, T = R/2 always")


def test_criterion_04_gaussian_conjugation():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for params in [P1, P2] + [draw_params(rng) for _ in range(100)]:
        alpha = gaussian_alpha(params)
        h0 = h0_momentum(params)
        worst = max(worst, operators_equal(h0.conjugate_gaussian(alpha),
                                           h0.adjoint()).residual)
    report_line(4, worst < 1e-12,
                f"Gaussian conjugation reproduces the adjoint within "
                f"{worst:.2e} over 100 seeded draws")


def test_criterion_05_deformed_pseudo_hermiticity():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(30):
        base = draw_params(rng)
        for beta in (0.01, 0.1, 1.0):
            params = with_beta(base, beta)
            h = h_deformed(params)
            exponent = metric_exponent(params)
            worst = max(worst, operators_equal(
                h.conjugate_power_metric(exponent), h.adjoint()).residual)
    report_line(5, worst < 1e-12,
                f"power-metric conjugation equals the deformed-measure "
                f"adjoint within {worst:.2e} for beta in (0.01, 0.1, 1) x 30 draws")


def test_criterion_06_metric_limit():
    result = check_metric_limit(P1)
    deviations = [check_metric_limit(with_beta(P1, b)).residual
                  for b in (1e-6, 1e-5, 1e-4)]
    slope = float(np.polyfit(np.log([1e-6, 1e-5, 1e-4]),
                             np.log(deviations), 1)[0])
    passed = result.residual < 1e-3 and abs(slope - 1.0) < 0.1
    report_line(6, passed,
                f"metric-limit deviation {result.residual:.2e} < 1e-3 at "
                f"beta = 1e-6, scaling slope {slope:.3f} across three decades")


def test_criterion_07_spectrum_oracle():
    start = time.perf_counter()
    grid = build_grid(1501, 10.0)
    result_p1 = check_spectrum(P1, grid, 4, 6)
    errors_p1 = max(result_p1.details["errors"])
    result_p2 = check_spectrum(P2, grid, 4, 1)
    e0_error = abs(result_p2.details["re"][0]
                   - oscillator_levels(P2, 1)[0])
    elapsed = time.perf_counter() - start
    passed = errors_p1 < 1e-4 and e0_error < 1e-4 and elapsed < 60.0
    report_line(7, passed,
                f"hermitized spectrum matches (n+1/2)*sqrt(omega^2-4*lam*delta): "
                f"P1 max err {errors_p1:.2e}, P2 E0 err {e0_error:.2e} "
                f"({elapsed:.1f} s)")


def test_criterion_08_numeric_residual_and_order():
    grids = [build_grid(n, 10.0) for n in (501, 1001, 2001)]
    results = [check_numeric_residual(P1, grid) for grid in grids]
    fine = results[-1]
    study = convergence_order("convergence_residual", grids,
                              [r.residual for r in results])
    order = study.details["fitted_order"]
    passed = fine.residual < 1e-6 and order >= 3.0 and study.passed
    report_line(8, passed,
                f"probe residual {fine.residual:.2e} < 1e-6 at n=2001 and "
                f"measured order {order:.2f} >= 3 (authoritative)")


def test_criterion_09_deformed_reality():
    params = with_beta(P1, 0.1)
    report = run_suite(params, SuiteConfig(n=1201, p_max=60.0))
    reality = {c.name: c for c in report.checks}["convergence_reality"]
    ratios = reality.details["reality_ratios"]
    recorded = (reality.details["p_max"] == [20.0, 40.0, 60.0]
                and len(reality.details["spectra"]) == 3)
    passed = reality.passed and recorded and report.passed
    report_line(9, passed,
                f"deformed reality ratios {['%.1e' % r for r in ratios]} "
                f"non-increasing over p_max 20/40/60 (n 401/801/1201), "
                f"recorded in the report")


def test_criterion_10_hermitian_degenerate_case():
    params = make_params(1.0, 0.3, 0.3)
    exponent_flat = gaussian_alpha(params)
    exponent_deformed = metric_exponent(with_beta(params, 0.1))
    h0 = h0_momentum(params)
    symbolic = operators_equal(h0, h0.adjoint()).residual
    grid = build_grid(1001, 10.0)
    a = assemble_matrix(h_quadratic(params), grid, 4)
    gap = np.linalg.norm(a.matrix - weighted_adjoint(a).matrix)
    norm = np.linalg.norm(a.matrix)
    passed = (exponent_flat == 0.0 and exponent_deformed == 0.0
              and symbolic < 1e-12 and gap <= 1e-12 * norm)
    report_line(10, passed,
                f"lam = delta: metric exponent 0, symbolic self-adjointness "
                f"{symbolic:.1e} < 1e-12, matrix gap {gap:.1e} <= 1e-12*norm")


def test_criterion_11_cli_determinism_and_exit_codes(tmp_path):
    fast = ["--n", "301", "--pmax", "8"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    code_first = main(["verify", *P1_FLAGS, *fast, "--out", str(first)])
    code_second = main(["verify", *P1_FLAGS, *fast, "--out", str(second)])
    strip = lambda path: [line for line in path.read_text().splitlines()
                          if "generated_at" not in line]
    deterministic = strip(first) == strip(second)
    bad = tmp_path / "bad.json"
    code_override = main(["verify", *P1_FLAGS, *fast,
                          "--exponent-override", "3.0", "--out", str(bad)])
    failing = [c["name"] for c in json.loads(bad.read_text())["checks"]
               if not c["passed"]]
    code_usage = main(["verify", *P1_FLAGS, "--n", "1000"])
    passed = (deterministic and code_first == 0 and code_second == 0
              and code_override == 1 and len(failing) > 0 and code_usage == 2)
    report_line(11, passed,
                f"reports byte-identical modulo timestamp; exit codes "
                f"0/{code_override}/{code_usage} with failing checks {failing}")
