"""Executable verification of the model's operator identities.

Each check computes a residual -- the maximum absolute coefficient of a
canonical operator difference for symbolic checks, a weighted vector or
matrix norm for numeric ones -- and packages it with its tolerance into a
CheckResult.  ``run_suite`` executes every applicable check in a fixed
order and aggregates a Report.

Symbolic checks are grid independent and exact up to float roundoff, so
they carry the uniform tolerance 1e-12.  Numeric checks measure
discretization error; their absolute targets follow the stencil-order
scaling model calibrated at h = 0.01 and the convergence studies are the
authoritative pass criterion (for the deformed case the absolute numbers
are reported, not thresholded).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algebra import operators_equal
from .grids import (
    Grid,
    MatrixOp,
    assemble_matrix,
    build_grid,
    eigs,
    gaussian_state,
    similarity_transform,
    weighted_adjoint,
    weighted_norm,
)
from .model import (
    ModelParams,
    gaussian_alpha,
    h0_adjoint_expected,
    h0_momentum,
    h_deformed,
    h_ladder,
    h_quadratic,
    h_reduced,
    h_variant,
    has_real_ladder,
    in_reduced_regime,
    make_params,
    metric_exponent,
    oscillator_levels,
    reduced_variant_difference,
    stack_params,
    with_beta,
)

SYMBOLIC_TOL = 1e-12

# Reference probe residuals of the metric-conjugation identity measured at
# h = 0.01 (n = 2001, p_max = 10) for the undeformed model; the check
# tolerance scales these by (h/0.01)^fd_order.
RESIDUAL_REF = {4: 1.0e-6, 2: 1.2e-3}
RESIDUAL_REF_H = 0.01

SPECTRUM_TOL = 1e-4

# Probe family: Gaussian packets contained in |p| <= 3
# (|center| + 3*width <= 3).
PROBE_SPAN = 1.5
PROBE_WIDTH = 0.5
PROBE_CENTERS = np.linspace(-PROBE_SPAN, PROBE_SPAN, 5)

# Reality ratios below this are treated as converged to zero when judging
# monotone decrease with grid extent.
REALITY_FLOOR = 1e-12


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification step.

    ``tolerance`` is None for report-only checks (deformed-case numeric
    measurements, whose authoritative criterion is the convergence study);
    those pass whenever the residual is finite.
    """

    name: str
    paper_anchor: str
    residual: float
    tolerance: float | None
    passed: bool
    details: dict = field(default_factory=dict)


def _result(name: str, anchor: str, residual: float,
            tolerance: float | None, details: dict | None = None) -> CheckResult:
    residual = float(residual)
    if tolerance is None:
        passed = math.isfinite(residual)
    else:
        passed = residual <= tolerance
    return CheckResult(name, anchor, residual, tolerance, passed, details or {})


# -- random parameter draws ----------------------------------------------------


def draw_params(rng: np.random.Generator, regime: bool = False,
                spectrum_safe: bool = False) -> ModelParams:
    """One valid random parameter set: omega ~ U[0.5, 2], lam, delta ~
    U[-0.9, 0.9], rejecting |omega-lam-delta| < 0.05; ``regime`` forces
    lam = -delta, ``spectrum_safe`` additionally keeps the closed-form
    oscillator ladder real and ascending."""
    while True:
        omega = rng.uniform(0.5, 2.0)
        delta = rng.uniform(-0.9, 0.9)
        lam = -delta if regime else rng.uniform(-0.9, 0.9)
        if abs(omega - lam - delta) < 0.05:
            continue
        params = make_params(omega, lam, delta)
        if spectrum_safe and not has_real_ladder(params):
            continue
        return params


def _check_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# -- symbolic checks --------------------------------------------------------------

# Each randomized check draws its parameter sets one at a time from its
# own rng stream, stacks them into a ParamBatch and evaluates its identity
# for all draws in one pass of the operator algebra; every per-draw
# residual equals the one the scalar path computes for that draw.  The
# checks depend on their arguments only (seed, draws, betas) and are
# cached, one small entry per seed, so a sweep runs them once and not
# once per beta.  Callers share the cached results and must not mutate
# their details.


def _per_draw(values, draws: int) -> np.ndarray:
    """A batched residual (or flag) as one entry per draw; an identity
    whose difference vanished for every draw gives a scalar."""
    return np.broadcast_to(values, (draws,))


def _worst(residuals: np.ndarray) -> float:
    """Largest residual, 0.0 for no draws; a NaN draw makes it NaN."""
    return float(np.max(residuals, initial=0.0))


def _expansion_residual(params):
    return operators_equal(h_ladder(params), h_quadratic(params)).residual


def check_expansion(params: ModelParams) -> CheckResult:
    """Ladder-operator form versus the quadratic form in x and p."""
    return _result("expansion", "ladder form equals the quadratic momentum form",
                   _expansion_residual(params), SYMBOLIC_TOL)


def _expansion_residuals(sample: list) -> np.ndarray:
    return _per_draw(_expansion_residual(stack_params(sample)), len(sample))


@functools.cache
def check_expansion_randomized(seed: int, draws: int = 100) -> CheckResult:
    rng = _check_rng(seed, 1)
    sample = [draw_params(rng) for _ in range(draws)]
    residuals = _expansion_residuals(sample)
    worst = _worst(residuals)
    details = {"draws": draws}
    if worst != 0.0:
        # argmax names the first draw that attains the maximum (or is NaN)
        details["worst_params"] = sample[int(np.argmax(residuals))].to_dict()
    return _result("expansion_randomized",
                   "ladder form equals the quadratic momentum form",
                   worst, SYMBOLIC_TOL, details)


def _variant_parts(params):
    """Residuals of (reduced vs quadratic) and (difference vs closed
    form), and the difference itself."""
    reduced = h_reduced(params)
    r_reduction = operators_equal(reduced, _hamiltonian_for(params)).residual
    difference = reduced - h_variant(params)
    r_difference = operators_equal(
        difference, reduced_variant_difference(params)).residual
    return r_reduction, r_difference, difference


def check_variant_discrepancy(params: ModelParams) -> CheckResult:
    """The reduced Hamiltonian is the quadratic form, yet differs from the
    full-strength anticommutator variant by exactly mu*p*D + mu/2; the two
    coincide only at mu = 0."""
    r_reduction, r_difference, difference = _variant_parts(params)
    details = {
        "mu": params.mu,
        "reduction_residual": r_reduction,
        "difference_form_residual": r_difference,
        "difference": str(difference),
        "variants_identical": difference.max_abs_coeff() <= SYMBOLIC_TOL,
    }
    return _result("reduced_vs_variant",
                   "reduced Hamiltonian differs from the full-strength "
                   "anticommutator variant by mu*p*D + mu/2",
                   max(r_reduction, r_difference), SYMBOLIC_TOL, details)


def _variant_residuals(sample: list) -> tuple[np.ndarray, np.ndarray]:
    """Per-draw residuals and variants_identical flags."""
    r_reduction, r_difference, difference = _variant_parts(stack_params(sample))
    return (_per_draw(np.maximum(r_reduction, r_difference), len(sample)),
            _per_draw(difference.max_abs_coeff() <= SYMBOLIC_TOL, len(sample)))


@functools.cache
def check_variant_discrepancy_randomized(seed: int, draws: int = 100) -> CheckResult:
    rng = _check_rng(seed, 2)
    sample = [make_params(1.3, 0.0, 0.0) if k == 0  # mu = 0 degenerate case
              else draw_params(rng, regime=True) for k in range(draws)]
    residuals, identical = _variant_residuals(sample)
    expected = [abs(params.mu) <= SYMBOLIC_TOL for params in sample]
    consistent = bool(np.array_equal(identical, expected))
    details = {"draws": draws, "discrepancy_iff_mu_nonzero": consistent}
    residual = _worst(residuals) if consistent else math.inf
    return _result("reduced_vs_variant_randomized",
                   "reduced Hamiltonian differs from the full-strength "
                   "anticommutator variant by mu*p*D + mu/2",
                   residual, SYMBOLIC_TOL, details)


def check_adjoint(params: ModelParams) -> CheckResult:
    """Flat-measure adjoint of H0 against its closed form (R and T terms
    flip sign, consistent with T = R/2)."""
    coeffs, h0 = h0_momentum(params)
    cmp = operators_equal(h0.adjoint(), h0_adjoint_expected(params), SYMBOLIC_TOL)
    details = {"Q": coeffs.Q, "R": coeffs.R, "S": coeffs.S, "T": coeffs.T,
               "T_minus_half_R": coeffs.T - coeffs.R / 2.0}
    return _result("momentum_adjoint",
                   "flat-measure adjoint of H0 flips the signs of the "
                   "R and T terms",
                   cmp.residual, SYMBOLIC_TOL, details)


def _similarity_residual(params, exponent):
    """Metric conjugation against the adjoint: H0 and the Gaussian metric
    at beta = 0, the deformed Hamiltonian and the power law at beta > 0."""
    if params.beta == 0.0:
        _, h = h0_momentum(params)
        conjugated = h.conjugate_gaussian(exponent)
    else:
        h = h_deformed(params)
        conjugated = h.conjugate_power_metric(exponent)
    return operators_equal(conjugated, h.adjoint()).residual


def check_pseudo_symbolic(params: ModelParams,
                          exponent_override: float | None = None) -> CheckResult:
    """Metric conjugation reproduces the adjoint: Gaussian family at
    beta = 0, power-law family at beta > 0.  lam = delta degenerates to
    the identity metric with exponent exactly 0."""
    exponent = _metric_for(params, exponent_override)
    residual = _similarity_residual(params, exponent)
    if params.beta == 0.0:
        return _result("pseudo_hermiticity_gaussian",
                       "Gaussian metric conjugation of H0 yields its adjoint",
                       residual, SYMBOLIC_TOL, {"alpha": exponent})
    return _result("pseudo_hermiticity_deformed",
                   "power-law metric conjugation of the deformed Hamiltonian "
                   "yields its deformed-measure adjoint",
                   residual, SYMBOLIC_TOL, {"exponent": exponent})


def _similarity_residuals(sample: list) -> np.ndarray:
    batch = stack_params(sample)
    return _per_draw(_similarity_residual(batch, _metric_for(batch)), len(sample))


@functools.cache
def check_gaussian_similarity_randomized(seed: int, draws: int = 100) -> CheckResult:
    rng = _check_rng(seed, 3)
    residuals = _similarity_residuals([draw_params(rng) for _ in range(draws)])
    return _result("pseudo_hermiticity_gaussian_randomized",
                   "Gaussian metric conjugation of H0 yields its adjoint",
                   _worst(residuals), SYMBOLIC_TOL, {"draws": draws})


def _deformed_residuals(bases: list, betas) -> np.ndarray:
    """Residuals of the undeformed base draws deformed by each beta, one
    row per draw and one column per beta (one batch per beta)."""
    return np.stack([_similarity_residuals([with_beta(base, beta) for base in bases])
                     for beta in betas], axis=1)


@functools.cache
def check_deformed_similarity_randomized(seed: int, draws: int = 30,
                                         betas=(0.01, 0.1, 1.0)) -> CheckResult:
    rng = _check_rng(seed, 4)
    residuals = _deformed_residuals([draw_params(rng) for _ in range(draws)], betas)
    return _result("pseudo_hermiticity_deformed_randomized",
                   "power-law metric conjugation of the deformed Hamiltonian "
                   "yields its deformed-measure adjoint",
                   _worst(residuals), SYMBOLIC_TOL,
                   {"draws": draws, "betas": list(betas)})


def check_metric_limit(params: ModelParams, beta_small: float = 1e-6,
                       p_range: float = 5.0) -> CheckResult:
    """Relative deviation between the power-law metric at a small
    deformation and its Gaussian limit, evaluated in log space.

    The leading deviation is |alpha|*beta*p^4/2; the tolerance is three
    times that estimate at the edge of the window.
    """
    if not beta_small > 0:
        raise ValueError("beta_small must be > 0")
    alpha = gaussian_alpha(params)
    exponent = alpha / beta_small  # exponent(beta)*beta = alpha exactly
    p = np.linspace(-p_range, p_range, 2001)
    log_ratio = exponent * np.log1p(beta_small * p * p) - alpha * p * p
    deviation = float(np.max(np.abs(np.expm1(log_ratio))))
    estimate = abs(alpha) * beta_small * p_range ** 4 / 2.0
    tolerance = 3.0 * estimate if estimate > 0 else SYMBOLIC_TOL
    return _result("metric_limit",
                   "power-law metric tends to the Gaussian metric as the "
                   "deformation vanishes",
                   deviation, tolerance,
                   {"beta_small": beta_small, "p_range": p_range,
                    "alpha": alpha, "estimate": estimate})


# -- numeric checks ------------------------------------------------------------------


def _metric_for(params, exponent_override: float | None = None):
    """The override if one is given, else metric_exponent(params); an
    override of -0.0 reads as 0.0, the identity metric."""
    if exponent_override is None:
        return metric_exponent(params)
    return exponent_override + 0.0


def _hamiltonian_for(params: ModelParams):
    return h_quadratic(params) if params.beta == 0.0 else h_deformed(params)


def check_numeric_residual(params: ModelParams, grid: Grid, fd_order: int = 4,
                           exponent_override: float | None = None) -> CheckResult:
    """Discrete pseudo-Hermiticity on probe states:

        r(psi) = ||(eta A eta^-1 - A^+_w) psi||_w / ||A psi||_w

    plus the relative row residual on the interior |p| <= p_max/2.  For
    the undeformed model the tolerance follows the calibrated
    (h/0.01)^fd_order scaling; the deformed measurement is report-only.
    """
    a = assemble_matrix(_hamiltonian_for(params), grid, fd_order)
    transformed = similarity_transform(a, _metric_for(params, exponent_override))
    delta = MatrixOp(transformed.matrix - weighted_adjoint(a).matrix, grid)
    probe_residuals = []
    for center in PROBE_CENTERS:
        psi = gaussian_state(grid, center, PROBE_WIDTH)
        probe_residuals.append(
            weighted_norm(grid, delta.apply(psi))
            / weighted_norm(grid, a.apply(psi)))
    interior = np.abs(grid.points) <= grid.p_max / 2.0
    row_scale = a.abs_row_sums()[interior].max()
    row_residual = float(delta.abs_row_sums()[interior].max() / row_scale)
    if params.beta == 0.0:
        tolerance = RESIDUAL_REF[fd_order] * (grid.h / RESIDUAL_REF_H) ** fd_order
    else:
        tolerance = None
    details = {
        "probe_residuals": [float(r) for r in probe_residuals],
        "interior_row_residual": row_residual,
        "h": grid.h,
        "fd_order": fd_order,
    }
    return _result("numeric_residual",
                   "discrete metric conjugation matches the weighted-adjoint "
                   "matrix on probe states",
                   max(probe_residuals), tolerance, details)


def check_spectrum(params: ModelParams, grid: Grid, fd_order: int = 4,
                   levels: int = 6):
    """Low-lying spectrum check; returns (CheckResult, Spectrum).

    Undeformed model with a real ascending ladder: hermitize H0 with the
    half-power Gaussian metric (which cancels the p*D term exactly),
    solve the weighted self-adjoint problem and compare against
    (n+1/2)*sqrt(omega^2-4*lam*delta).  Otherwise solve the general
    problem and report how real the lowest eigenvalues are.
    """
    anchor = "hermitized spectrum matches the closed-form oscillator ladder"
    if params.beta == 0.0:
        if has_real_ladder(params):
            alpha = gaussian_alpha(params)
            _, h0 = h0_momentum(params)
            hermitized = h0.conjugate_gaussian(alpha / 2.0)
            a = assemble_matrix(hermitized, grid, fd_order)
            spectrum = eigs(a, "selfadjoint-weighted", levels)
            oracle = np.array(oscillator_levels(params, levels))
            errors = np.abs(spectrum.eigenvalues.real - oracle)
            details = {
                "eigenvalues": [float(v) for v in spectrum.eigenvalues.real],
                "oracle": [float(v) for v in oracle],
                "errors": [float(v) for v in errors],
                "solver": spectrum.solver,
            }
            result = _result("spectrum", anchor, errors.max(), SPECTRUM_TOL, details)
            return result, spectrum
        _, h0 = h0_momentum(params)
        a = assemble_matrix(h0, grid, fd_order)
        reason = ("omega^2 <= 4*lambda*delta"
                  if params.omega * params.omega
                  <= 4.0 * params.lam * params.delta
                  else "omega <= lambda + delta")
    else:
        a = assemble_matrix(h_deformed(params), grid, fd_order)
        reason = "deformed model has no closed-form oracle here"
    # the half-metric similarity keeps the spectrum and makes the operator
    # nearly normal, which the certified banded solver relies on
    spectrum = eigs(similarity_transform(a, _metric_for(params), half=True),
                    "general", levels)
    values = spectrum.eigenvalues
    ratios = np.abs(values.imag) / np.maximum(np.abs(values.real), 1e-300)
    details = {
        "oracle": f"unavailable: {reason}",
        "re": [float(v) for v in values.real],
        "im": [float(v) for v in values.imag],
        "reality_ratios": [float(r) for r in ratios],
        "solver": spectrum.solver,
    }
    result = _result("spectrum",
                     "low-lying spectrum is real up to grid truncation",
                     ratios.max() if len(ratios) else 0.0, None, details)
    return result, spectrum


def convergence_study(params: ModelParams, grids: list[Grid], target: str,
                      fd_order: int = 4, levels: int = 6) -> CheckResult:
    """Fit the observed convergence order across >= 3 grids.

    target="E0" and target="residual" (undeformed) need 3 distinct
    spacings h and pass when the fitted order is at least fd_order - 1;
    target="reality" (deformed) passes when the reality ratio of the
    lowest 3 eigenvalues does not increase with grid extent, with ratios
    below 1e-12 treated as converged zeros.
    """
    if len(grids) < 3:
        raise ValueError("need at least 3 grids")
    if target in ("E0", "residual"):
        hs = np.array([g.h for g in grids])
        if len(set(hs.tolist())) < 3:
            raise ValueError(f"need 3 distinct grid spacings, got h = {hs.tolist()}")
        if target == "E0":
            if params.beta != 0.0 or not has_real_ladder(params):
                raise ValueError("target E0 needs the undeformed oscillator ladder")
            errors = [check_spectrum(params, grid, fd_order, 1)[0]
                      .details["errors"][0] for grid in grids]
            anchor = "ground-state error decreases at the stencil order"
            name = "convergence_spectrum"
        else:
            errors = [check_numeric_residual(params, grid, fd_order).residual
                      for grid in grids]
            anchor = ("probe residual of the discrete metric conjugation "
                      "decreases at the stencil order")
            name = "convergence_residual"
        errors = np.maximum(np.array(errors, dtype=float), 1e-16)
        order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        residual = max(0.0, (fd_order - 1.0) - order)
        details = {
            "h": [float(h) for h in hs],
            "errors": [float(e) for e in errors],
            "fitted_order": order,
            "required_order": fd_order - 1.0,
            "monotone": bool(np.all(np.diff(errors) < 0)),
        }
        return _result(name, anchor, residual, 0.0, details)
    if target == "reality":
        ratios = []
        spectra = []
        for grid in grids:
            result, _ = check_spectrum(params, grid, fd_order, min(levels, 3))
            ratios.append(result.residual)
            spectra.append({"re": result.details["re"],
                            "im": result.details["im"]})
        floored = [r if r > REALITY_FLOOR else 0.0 for r in ratios]
        violations = [floored[k + 1] - floored[k]
                      for k in range(len(floored) - 1)
                      if floored[k + 1] > floored[k]]
        residual = max(violations, default=0.0)
        details = {
            "p_max": [float(g.p_max) for g in grids],
            "n": [g.n for g in grids],
            "reality_ratios": ratios,
            "spectra": spectra,
            "floor": REALITY_FLOOR,
        }
        return _result("convergence_reality",
                       "imaginary parts of the deformed spectrum shrink as "
                       "the grid extent grows",
                       residual, 0.0, details)
    raise ValueError(f"unknown convergence target {target!r}")


# -- suite ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    """Numeric configuration of a verification suite run."""

    n: int = 1001
    p_max: float = 10.0
    fd_order: int = 4
    levels: int = 6
    seed: int = 42
    exponent_override: float | None = None

    def grid_summary(self, beta: float) -> dict:
        return {
            "n": self.n,
            "p_max": self.p_max,
            "fd_order": self.fd_order,
            "measure_power": 0 if beta == 0.0 else -1,
            "beta": beta,
            "boundary": "dirichlet-truncation",
        }


@dataclass
class Report:
    """Aggregated outcome of a verification suite."""

    params: ModelParams
    grid_summary: dict | None
    checks: list
    spectra: dict | None
    timings: dict
    seed: int

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_json_dict(self, generated_at: str) -> dict:
        return {
            "params": self.params.to_dict(),
            "grid": self.grid_summary,
            "checks": [
                {
                    "name": c.name,
                    "paper_anchor": c.paper_anchor,
                    "residual": c.residual,
                    "tolerance": c.tolerance,
                    "passed": c.passed,
                    "details": c.details,
                }
                for c in self.checks
            ],
            "spectra": self.spectra,
            "generated_at": generated_at,
            "seed": self.seed,
        }


def _halved(n: int) -> int:
    m = (n - 1) // 2 + 1
    if m % 2 == 0:
        m += 1
    return max(m, 5)


def _scaled_odd(n: int, fraction: float) -> int:
    m = int(round((n - 1) * fraction))
    if m % 2:
        m += 1
    return max(m + 1, 5)


def run_suite(params: ModelParams, config: SuiteConfig = SuiteConfig()) -> Report:
    """Run every applicable check in a fixed order; individual check
    failures, and numeric errors inside a check, never abort the suite.
    Any other exception is a programming error and propagates."""
    undeformed = with_beta(params, 0.0)
    grid = build_grid(config.n, config.p_max, params.beta)

    checks: list[CheckResult] = []
    spectra: dict = {}
    timings: dict = {}

    def run(label, func):
        start = time.perf_counter()
        try:
            outcome = func()
        except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
            outcome = CheckResult(label, "", math.inf, SYMBOLIC_TOL, False,
                                  {"error": f"{type(exc).__name__}: {exc}"})
        timings[outcome.name] = time.perf_counter() - start
        checks.append(outcome)

    run("expansion", lambda: check_expansion(undeformed))
    run("expansion_randomized",
        lambda: check_expansion_randomized(config.seed))
    if in_reduced_regime(params):
        run("reduced_vs_variant",
            lambda: check_variant_discrepancy(undeformed))
    run("reduced_vs_variant_randomized",
        lambda: check_variant_discrepancy_randomized(config.seed))
    run("momentum_adjoint", lambda: check_adjoint(undeformed))
    run("pseudo_hermiticity_gaussian",
        lambda: check_pseudo_symbolic(undeformed, config.exponent_override))
    run("pseudo_hermiticity_gaussian_randomized",
        lambda: check_gaussian_similarity_randomized(config.seed))
    if params.beta > 0.0:
        run("pseudo_hermiticity_deformed",
            lambda: check_pseudo_symbolic(params, config.exponent_override))
    run("pseudo_hermiticity_deformed_randomized",
        lambda: check_deformed_similarity_randomized(config.seed))
    run("metric_limit",
        lambda: check_metric_limit(
            undeformed,
            beta_small=params.beta if params.beta > 0.0 else 1e-6))
    run("numeric_residual",
        lambda: check_numeric_residual(params, grid, config.fd_order,
                                       config.exponent_override))

    def spectrum_check():
        result, spectrum = check_spectrum(params, grid, config.fd_order,
                                          config.levels)
        spectra["spectrum"] = {
            "re": [float(v) for v in spectrum.eigenvalues.real],
            "im": [float(v) for v in spectrum.eigenvalues.imag],
        }
        return result

    run("spectrum", spectrum_check)

    if params.beta == 0.0:
        ns = [_halved(_halved(config.n)), _halved(config.n), config.n]
        conv_grids = [build_grid(nk, config.p_max) for nk in ns]
        run("convergence_residual",
            lambda: convergence_study(params, conv_grids, "residual",
                                      config.fd_order, config.levels))
        if has_real_ladder(params):
            run("convergence_spectrum",
                lambda: convergence_study(params, conv_grids, "E0",
                                          config.fd_order, config.levels))
    else:
        fractions = (1.0 / 3.0, 2.0 / 3.0, 1.0)
        conv_grids = [build_grid(_scaled_odd(config.n, f), config.p_max * f,
                                 params.beta) for f in fractions]
        run("convergence_reality",
            lambda: convergence_study(params, conv_grids, "reality",
                                      config.fd_order, config.levels))

    return Report(params=params, grid_summary=config.grid_summary(params.beta),
                  checks=checks, spectra=spectra or None,
                  timings=timings, seed=config.seed)
