"""Executable verification of the model's operator identities.

Each check measures its identity -- the maximum absolute coefficient of a
canonical operator difference for symbolic checks, a weighted vector or
matrix norm for numeric ones -- and hands its raw measurements with its
tolerance to ``_result``.  The residual is the largest measurement, 0.0
when there are none, and a NaN among them fails the check.  ``run_suite``
executes every applicable check in a fixed order and aggregates a Report.

Symbolic checks are grid independent and exact up to float roundoff, so
they carry the algebra's uniform DEFAULT_TOL.  Numeric checks measure
discretization error; their absolute targets follow the stencil-order
scaling model calibrated at h = 0.01 and the convergence studies are the
authoritative pass criterion (for the deformed case the absolute numbers
are reported, not thresholded).
"""

from __future__ import annotations

import functools
import math
import pickle
import random
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .algebra import DEFAULT_TOL, DiffOp, _is_zero, operators_equal
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
    ParamBatch,
    gaussian_alpha,
    h0_adjoint_expected,
    h0_momentum,
    h_deformed,
    h_ladder,
    h_quadratic,
    h_reduced,
    h_variant,
    in_reduced_regime,
    ladder_obstruction,
    make_params,
    metric_exponent,
    momentum_rep_coeffs,
    oscillator_levels,
    reduced_variant_difference,
    stack_params,
    with_beta,
)

SYMBOLIC_TOL = DEFAULT_TOL

# Errors that fail a check, as opposed to bugs, which propagate.
NUMERIC_ERRORS = (ValueError, ArithmeticError, np.linalg.LinAlgError)

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

# The reality study judges the lowest REALITY_LEVELS eigenvalues; ratios
# below REALITY_FLOOR are treated as converged to zero when judging
# monotone decrease with grid extent.
REALITY_LEVELS = 3
REALITY_FLOOR = 1e-12

# Draws of each randomized check; the deformed one repeats its draws at
# each of DEFORMED_BETAS, all in one batch.
DRAWS = 100
DEFORMED_DRAWS = 30
DEFORMED_BETAS = (0.01, 0.1, 1.0)

# metric_limit compares the metrics on |p| <= METRIC_LIMIT_P_RANGE at the
# model's beta, or at METRIC_LIMIT_BETA for the undeformed model.
METRIC_LIMIT_P_RANGE = 5.0
METRIC_LIMIT_BETA = 1e-6
# Round-off bound of the metric_limit measurement in units of
# eps*|alpha|*p^2.  Both terms of its log ratio are about alpha*p^2.  The
# first rounds p*p, beta*p^2, alpha/beta and the product, each by at most
# eps/2 relative, and log1p (a library function, within one ulp) by at
# most eps: 3*eps.  The second rounds alpha*p and then *p: eps.  The
# difference and expm1 round only the result, which is smaller than
# either term.
METRIC_LIMIT_ROUNDOFF = 4.0

# The paper claim each check verifies, keyed by check name.  A randomized
# check verifies the claim of its single-parameter form, and the spectrum
# check verifies "spectrum_ladder" where the closed-form ladder applies.
ANCHORS = {
    "expansion": "ladder form equals the quadratic momentum form",
    "reduced_vs_variant": "reduced Hamiltonian differs from the full-strength "
                          "anticommutator variant by mu*p*D + mu/2",
    "momentum_adjoint": "H0 with the printed coefficients is the quadratic "
                        "Hamiltonian, and its flat-measure adjoint flips the "
                        "signs of the R and T terms",
    "pseudo_hermiticity_gaussian": "Gaussian metric conjugation of H0 yields "
                                   "its adjoint",
    "pseudo_hermiticity_deformed": "power-law metric conjugation of the "
                                   "deformed Hamiltonian yields its "
                                   "deformed-measure adjoint",
    "metric_limit": "power-law metric tends to the Gaussian metric as the "
                    "deformation vanishes",
    "numeric_residual": "discrete metric conjugation matches the "
                        "weighted-adjoint matrix on probe states",
    "spectrum": "low-lying spectrum is real up to grid truncation",
    "spectrum_ladder": "hermitized spectrum matches the closed-form "
                       "oscillator ladder",
    "convergence_residual": "probe residual of the discrete metric "
                            "conjugation decreases at the stencil order",
    "convergence_spectrum": "ground-state error decreases at the stencil order",
    "convergence_reality": "imaginary parts of the deformed spectrum shrink "
                           "as the grid extent grows",
}


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification step.

    ``tolerance`` is None for report-only records: ``numeric_residual`` at
    beta > 0, which no convergence study follows, and every ``spectrum``
    record without a closed-form ladder.  Those pass whenever the residual
    is finite.
    """

    name: str
    paper_anchor: str
    residual: float
    tolerance: float | None
    passed: bool
    details: dict = field(default_factory=dict)


def _largest(measured) -> float:
    """The largest of ``measured`` -- a number, a 1-D array, or a list of
    numbers and arrays -- and 0.0; NaN if any of them is NaN."""
    parts = measured if isinstance(measured, list) else [measured]
    return float(np.hstack([0.0, *parts]).max())


def _result(name: str, measured, tolerance: float | None,
            details: dict | None = None, anchor: str | None = None) -> CheckResult:
    """A check's outcome under its own anchor, that of ``name`` less any
    ``_randomized`` suffix unless given.  Its residual is
    ``_largest(measured)``; it passes when that is finite and, if it has a
    tolerance, within it."""
    residual = _largest(measured)
    passed = math.isfinite(residual) and (tolerance is None
                                          or residual <= tolerance)
    if anchor is None:
        anchor = ANCHORS[name.removesuffix("_randomized")]
    return CheckResult(name, anchor, residual, tolerance, passed, details or {})


# -- random parameter draws ----------------------------------------------------


def draw_params(rng: random.Random, regime: bool = False) -> ModelParams:
    """One valid random parameter set: omega ~ U[0.5, 2], lam, delta ~
    U[-0.9, 0.9], rejecting |omega-lam-delta| < 0.05; ``regime`` forces
    lam = -delta."""
    while True:
        omega = rng.uniform(0.5, 2.0)
        delta = rng.uniform(-0.9, 0.9)
        lam = -delta if regime else rng.uniform(-0.9, 0.9)
        if abs(omega - lam - delta) < 0.05:
            continue
        return make_params(omega, lam, delta)


def _check_rng(seed: int, stream: int) -> random.Random:
    """The generator of one randomized check's draws: a Mersenne Twister
    per (seed, stream) pair, seeded from the SHA-512 of its string, which
    ``random`` computes without importing hashlib (numpy.random's import
    would load hashlib's OpenSSL module in every run)."""
    return random.Random(f"{seed}:{stream}")


# -- symbolic checks --------------------------------------------------------------

# Each randomized check draws its parameter sets one at a time from its
# own rng stream, stacks them into a ParamBatch and evaluates its identity
# for all draws in one pass of the operator algebra; every per-draw
# residual equals the one the scalar path computes for that draw.  The
# symbolic checks depend on their arguments only and are cached on them:
# a sweep runs the randomized ones (seed, draws, betas) and the
# single-parameter ones (the undeformed parameters) once, not once per
# beta.  The Hamiltonian and the spectrum's operator are cached the same
# way, so every check and grid of a suite reads one build of a parameter
# set.  Callers share the cached results and must not mutate them.


def _cached(build):
    """Cache ``build`` on the pickled bytes of its arguments, which tell
    -0.0 from 0.0 where == and repr do not.  A call with a ParamBatch is
    built and not kept: its randomized check, cached itself, reads it
    once.  An exception is not cached."""
    results = {}

    @functools.wraps(build)
    def cached(*args, **kwargs):
        if any(isinstance(arg, ParamBatch) for arg in args):
            return build(*args, **kwargs)
        key = pickle.dumps((args, kwargs))
        if key not in results:
            results[key] = build(*args, **kwargs)
        return results[key]

    cached.cache_clear = results.clear
    return cached


@_cached
def _hamiltonian_for(params: ModelParams):
    """The Hamiltonian every check conjugates, assembles or solves: H0
    from its printed coefficients at beta = 0, which keep every term
    where the composed form can lose one to round-off, and the deformed
    Hamiltonian at beta > 0.  A parameter set is built once; a batch is
    built for its randomized check and not kept."""
    return h0_momentum(params) if _is_zero(params.beta) else h_deformed(params)


@_cached
def _composed_form(params: ModelParams):
    """H0 composed from x and p, read only by the three identities that
    verify it: expansion, reduced_vs_variant and momentum_adjoint."""
    return h_quadratic(params)


def _expansion_residual(params):
    return operators_equal(h_ladder(params), _composed_form(params)).residual


@_cached
def check_expansion(params: ModelParams) -> CheckResult:
    """Ladder-operator form versus the quadratic form in x and p."""
    return _result("expansion", _expansion_residual(params), SYMBOLIC_TOL)


@_cached
def check_expansion_randomized(seed: int) -> CheckResult:
    rng = _check_rng(seed, 1)
    sample = [draw_params(rng) for _ in range(DRAWS)]
    residuals = _expansion_residual(stack_params(sample))
    details = {"draws": DRAWS}
    if np.any(residuals):
        # argmax names the first draw that attains the maximum (or is NaN)
        details["worst_params"] = sample[int(np.argmax(residuals))].to_dict()
    return _result("expansion_randomized", residuals, SYMBOLIC_TOL, details)


def _variant_parts(params):
    """Residuals of (reduced vs quadratic) and (difference vs closed
    form), and the difference itself."""
    reduced = h_reduced(params)
    r_reduction = operators_equal(reduced, _composed_form(params)).residual
    difference = reduced - h_variant(params)
    r_difference = operators_equal(
        difference, reduced_variant_difference(params)).residual
    return r_reduction, r_difference, difference


@_cached
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
    return _result("reduced_vs_variant", [r_reduction, r_difference],
                   SYMBOLIC_TOL, details)


@_cached
def check_variant_discrepancy_randomized(seed: int) -> CheckResult:
    rng = _check_rng(seed, 2)
    sample = [make_params(1.3, 0.0, 0.0) if k == 0  # mu = 0 degenerate case
              else draw_params(rng, regime=True) for k in range(DRAWS)]
    r_reduction, r_difference, difference = _variant_parts(stack_params(sample))
    # a difference that vanished for every draw is a scalar; == broadcasts
    identical = difference.max_abs_coeff() <= SYMBOLIC_TOL
    expected = [abs(params.mu) <= SYMBOLIC_TOL for params in sample]
    consistent = bool(np.all(identical == np.array(expected)))
    details = {"draws": DRAWS, "discrepancy_iff_mu_nonzero": consistent}
    measured = [r_reduction, r_difference] if consistent else math.inf
    return _result("reduced_vs_variant_randomized", measured, SYMBOLIC_TOL,
                   details)


@_cached
def check_adjoint(params: ModelParams) -> CheckResult:
    """H0 built from its printed coefficients against the quadratic form,
    and its flat-measure adjoint against its closed form (R and T terms
    flip sign, consistent with T = R/2)."""
    coeffs, h0 = momentum_rep_coeffs(params), _hamiltonian_for(params)
    r_representation = operators_equal(h0, _composed_form(params)).residual
    r_adjoint = operators_equal(h0.adjoint(), h0_adjoint_expected(params)).residual
    details = {"Q": coeffs.Q, "R": coeffs.R, "S": coeffs.S, "T": coeffs.T,
               "T_minus_half_R": coeffs.T - coeffs.R / 2.0,
               "representation_residual": r_representation,
               "adjoint_residual": r_adjoint}
    return _result("momentum_adjoint", [r_representation, r_adjoint],
                   SYMBOLIC_TOL, details)


def _similarity_residual(params, exponent):
    """Metric conjugation of the Hamiltonian against its adjoint: the
    Gaussian metric at beta = 0, the power law at beta > 0."""
    h = _hamiltonian_for(params)
    conjugated = (h.conjugate_gaussian(exponent) if _is_zero(params.beta)
                  else h.conjugate_power_metric(exponent))
    return operators_equal(conjugated, h.adjoint()).residual


@_cached
def check_pseudo_symbolic(params: ModelParams,
                          exponent_override: float | None = None) -> CheckResult:
    """Metric conjugation reproduces the adjoint: Gaussian family at
    beta = 0, power-law family at beta > 0.  lam = delta degenerates to
    the identity metric with exponent exactly 0."""
    exponent = _metric_for(params, exponent_override)
    residual = _similarity_residual(params, exponent)
    if params.beta == 0.0:
        return _result("pseudo_hermiticity_gaussian", residual, SYMBOLIC_TOL,
                       {"alpha": exponent})
    return _result("pseudo_hermiticity_deformed", residual, SYMBOLIC_TOL,
                   {"exponent": exponent})


def _similarity_residuals(sample: list):
    batch = stack_params(sample)
    return _similarity_residual(batch, _metric_for(batch))


@_cached
def check_gaussian_similarity_randomized(seed: int) -> CheckResult:
    rng = _check_rng(seed, 3)
    residuals = _similarity_residuals([draw_params(rng) for _ in range(DRAWS)])
    return _result("pseudo_hermiticity_gaussian_randomized", residuals,
                   SYMBOLIC_TOL, {"draws": DRAWS})


@_cached
def check_deformed_similarity_randomized(seed: int) -> CheckResult:
    rng = _check_rng(seed, 4)
    bases = [draw_params(rng) for _ in range(DEFORMED_DRAWS)]
    residuals = _similarity_residuals([with_beta(base, beta)
                                       for beta in DEFORMED_BETAS for base in bases])
    return _result("pseudo_hermiticity_deformed_randomized", residuals,
                   SYMBOLIC_TOL,
                   {"draws": DEFORMED_DRAWS, "betas": list(DEFORMED_BETAS)})


def check_metric_limit(params: ModelParams) -> CheckResult:
    """Relative deviation between the power-law metric at the model's beta
    (METRIC_LIMIT_BETA at beta = 0) and its Gaussian limit, evaluated in
    log space.

    The leading deviation is |alpha|*beta*p^4/2; the tolerance is three
    times that estimate at the edge of the window, and no less than the
    round-off METRIC_LIMIT_ROUNDOFF*eps*|alpha|*p^2 of the measurement.
    """
    beta_small = params.beta if params.beta > 0.0 else METRIC_LIMIT_BETA
    alpha = gaussian_alpha(params)
    exponent = alpha / beta_small  # exponent(beta)*beta = alpha exactly
    p = np.linspace(-METRIC_LIMIT_P_RANGE, METRIC_LIMIT_P_RANGE, 2001)
    estimate = abs(alpha) * beta_small * METRIC_LIMIT_P_RANGE ** 4 / 2.0
    roundoff = (METRIC_LIMIT_ROUNDOFF * float(np.finfo(float).eps)
                * abs(alpha) * METRIC_LIMIT_P_RANGE ** 2)
    tolerance = max(3.0 * estimate, roundoff) if estimate > 0 else SYMBOLIC_TOL
    # a steep alpha < 0 metric reads inf, and a huge |alpha| inf - inf = NaN
    with np.errstate(over="ignore", invalid="ignore"):
        log_ratio = exponent * np.log1p(beta_small * p * p) - alpha * p * p
        return _result("metric_limit", np.abs(np.expm1(log_ratio)), tolerance,
                       {"beta_small": beta_small, "p_range": METRIC_LIMIT_P_RANGE,
                        "alpha": alpha, "estimate": estimate})


# -- numeric checks ------------------------------------------------------------------


def _metric_for(params, exponent_override: float | None = None):
    """The override if one is given, else metric_exponent(params); an
    override of -0.0 reads as 0.0, the identity metric."""
    if exponent_override is None:
        return metric_exponent(params)
    return exponent_override + 0.0


def _residual_tolerance(params: ModelParams, grid: Grid,
                        fd_order: int) -> float | None:
    """The calibrated (h/0.01)^fd_order target of numeric_residual for the
    undeformed model; None (report-only) for the deformed one, or for a
    stencil order without a calibration."""
    if params.beta != 0.0 or fd_order not in RESIDUAL_REF:
        return None
    return RESIDUAL_REF[fd_order] * (grid.h / RESIDUAL_REF_H) ** fd_order


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
        scale = weighted_norm(grid, a.apply(psi))
        # a probe over an infinite norm would read as exact: NaN fails it
        probe_residuals.append(weighted_norm(grid, delta.apply(psi)) / scale
                               if math.isfinite(scale) else math.nan)
    interior = np.abs(grid.points) <= grid.p_max / 2.0
    row_scale = a.abs_row_sums()[interior].max()
    row_residual = float(delta.abs_row_sums()[interior].max() / row_scale)
    details = {
        "probe_residuals": [float(r) for r in probe_residuals],
        "interior_row_residual": row_residual,
        "h": grid.h,
        "fd_order": fd_order,
    }
    return _result("numeric_residual", probe_residuals,
                   _residual_tolerance(params, grid, fd_order), details)


@_cached
def _spectrum_problem(
        params: ModelParams) -> tuple[DiffOp, str | None, str, float | None]:
    """What check_spectrum solves and claims, decided once per parameter
    set: (operator, ladder_obstruction(params), anchor, tolerance).  Where
    the closed-form ladder applies, the operator is H0 hermitized by the
    half-power Gaussian metric (which cancels the p*D term exactly) and
    the claim is the ladder; otherwise it is the Hamiltonian itself and
    the reality measurement is report-only."""
    obstruction, h = ladder_obstruction(params), _hamiltonian_for(params)
    if obstruction is None:
        return (h.conjugate_gaussian(gaussian_alpha(params) / 2.0), None,
                ANCHORS["spectrum_ladder"], SPECTRUM_TOL)
    return h, obstruction, ANCHORS["spectrum"], None


def check_spectrum(params: ModelParams, grid: Grid, fd_order: int = 4,
                   levels: int = 6) -> CheckResult:
    """Low-lying spectrum check; its details carry the levels as ``re``
    and ``im``, and the ``solver`` that found them.

    Where the closed-form ladder applies (see _spectrum_problem): solve
    the hermitized H0 as a weighted self-adjoint problem (``im`` all 0.0)
    and compare against (n+1/2)*sqrt(omega^2-4*lam*delta).  Otherwise
    solve the general problem and report how real the lowest eigenvalues
    are.  Both solve the real band of a real operator.
    """
    operator, obstruction, anchor, tolerance = _spectrum_problem(params)
    a = assemble_matrix(operator, grid, fd_order)
    if obstruction is None:
        spectrum = eigs(a, "selfadjoint-weighted", levels)
    else:
        # the half-metric similarity keeps the spectrum and makes the
        # operator nearly normal, which the certified banded solver relies on
        spectrum = eigs(similarity_transform(a, _metric_for(params) / 2.0),
                        "general", levels)
    values = spectrum.eigenvalues
    re = [float(v) for v in values.real]
    im = [float(v) for v in values.imag]
    if obstruction is None:
        oracle = np.array(oscillator_levels(params, levels))
        measured = np.abs(values.real - oracle)
        details = {"re": re, "im": im, "oracle": [float(v) for v in oracle],
                   "errors": [float(v) for v in measured]}
    else:
        # a huge imaginary part over a tiny real part reads inf
        with np.errstate(over="ignore"):
            measured = (np.abs(values.imag)
                        / np.maximum(np.abs(values.real), 1e-300))
        details = {"oracle": f"unavailable: {obstruction}", "re": re, "im": im,
                   "reality_ratios": [float(r) for r in measured]}
    details["solver"] = spectrum.solver
    return _result("spectrum", measured, tolerance, details, anchor)


def convergence_order(name: str, grids: list[Grid], errors,
                      fd_order: int = 4) -> CheckResult:
    """Fit the observed convergence order of ``errors``, one per grid, in
    the grid spacing h.  Needs >= 3 grids of distinct spacing and finite
    errors, and passes when the fitted order is at least fd_order - 1.
    Errors that are all exactly 0.0 mean the discrete identity is exact:
    the study passes with no fitted order and no monotone verdict."""
    if len(grids) < 3:
        raise ValueError("need at least 3 grids")
    hs = np.array([g.h for g in grids])
    if len(set(hs.tolist())) < 3:
        raise ValueError(f"need 3 distinct grid spacings, got h = {hs.tolist()}")
    errors = np.array(errors, dtype=float)
    if not np.all(np.isfinite(errors)):
        raise ValueError(f"cannot fit an order through errors {errors.tolist()}")
    if np.any(errors):
        errors = np.maximum(errors, 1e-16)
        order = float(np.polyfit(np.log(hs), np.log(errors), 1)[0])
        shortfall = [(fd_order - 1.0) - order]
    else:
        order, shortfall = None, []
    details = {
        "h": [float(h) for h in hs],
        "errors": [float(e) for e in errors],
        "fitted_order": order,
        "required_order": fd_order - 1.0,
        "monotone": None if order is None else bool(np.all(np.diff(errors) < 0)),
    }
    return _result(name, shortfall, 0.0, details)


def convergence_reality(grids: list[Grid],
                        results: list[CheckResult]) -> CheckResult:
    """Judge the general-path spectrum results of ``check_spectrum``, one
    per grid of growing extent: the reality ratio of the lowest
    REALITY_LEVELS eigenvalues must not increase, with ratios below
    REALITY_FLOOR treated as converged zeros.  The residual is the largest
    increase from one grid to the next."""
    if len(grids) < 3:
        raise ValueError("need at least 3 grids")
    ratios = [_largest(result.details["reality_ratios"][:REALITY_LEVELS])
              for result in results]
    floored = [0.0 if r <= REALITY_FLOOR else r for r in ratios]  # keeps a NaN
    details = {
        "p_max": [float(g.p_max) for g in grids],
        "n": [g.n for g in grids],
        "reality_ratios": ratios,
        "spectra": [{"re": result.details["re"][:REALITY_LEVELS],
                     "im": result.details["im"][:REALITY_LEVELS]}
                    for result in results],
        "solvers": [result.details["solver"] for result in results],
        "floor": REALITY_FLOOR,
    }
    return _result("convergence_reality", np.diff(floored), 0.0, details)


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


@dataclass
class Report:
    """Aggregated outcome of a verification suite run with ``config``."""

    params: ModelParams
    config: SuiteConfig
    checks: list
    timings: dict

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def spectra(self) -> dict | None:
        """The levels of the spectrum check; None when it recorded an error."""
        spectrum = next(c for c in self.checks if c.name == "spectrum")
        return None if "error" in spectrum.details else {
            "spectrum": {key: spectrum.details[key] for key in ("re", "im")}}

    def to_json_dict(self, generated_at: str) -> dict:
        config = self.config
        return {
            "params": self.params.to_dict(),
            "grid": {"n": config.n, "p_max": config.p_max,
                     "fd_order": config.fd_order, "beta": self.params.beta,
                     "boundary": "dirichlet-truncation"},
            "checks": [asdict(c) for c in self.checks],
            "spectra": self.spectra,
            "generated_at": generated_at,
            "seed": config.seed,
        }


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
    timings: dict = {}

    def run(label, func, tolerance=SYMBOLIC_TOL, anchor=None) -> CheckResult:
        """Run one check; one that raised a numeric error is recorded as
        failed under its own anchor and tolerance."""
        start = time.perf_counter()
        try:
            outcome = func()
        except NUMERIC_ERRORS as exc:
            # an infinite residual fails under every tolerance
            outcome = _result(label, math.inf, tolerance,
                              {"error": f"{type(exc).__name__}: {exc}"}, anchor)
        timings[outcome.name] = time.perf_counter() - start
        checks.append(outcome)
        return outcome

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
    # metric_limit derives its tolerance from the alpha it measures
    run("metric_limit", lambda: check_metric_limit(params), tolerance=None)

    def residual_on(g: Grid) -> CheckResult:
        return check_numeric_residual(params, g, config.fd_order,
                                      config.exponent_override)

    try:
        residual_tolerance = _residual_tolerance(params, grid, config.fd_order)
    except OverflowError:  # h too large for the calibration; the check fails
        residual_tolerance = None
    residual = run("numeric_residual", lambda: residual_on(grid),
                   tolerance=residual_tolerance)

    _, obstruction, anchor, tolerance = _spectrum_problem(params)
    spectrum = run("spectrum", lambda: check_spectrum(
        params, grid, config.fd_order, config.levels),
        tolerance=tolerance, anchor=anchor)

    # Each study's finest grid is the suite grid: its last point is the
    # main check's result, and only the coarser grids are solved here.
    def ladder(finest: CheckResult, measure) -> list[CheckResult]:
        if "error" in finest.details:  # it measured nothing to extend
            raise ValueError(f"{finest.name} failed: {finest.details['error']}")
        return [measure(g) for g in coarse] + [finest]

    def spectrum_on(levels: int):
        return lambda g: check_spectrum(params, g, config.fd_order, levels)

    if params.beta == 0.0:
        halved = _scaled_odd(config.n, 0.5)
        coarse = [build_grid(m, config.p_max)
                  for m in (_scaled_odd(halved, 0.5), halved)]
        run("convergence_residual", lambda: convergence_order(
            "convergence_residual", coarse + [grid],
            [r.residual for r in ladder(residual, residual_on)],
            config.fd_order), tolerance=0.0)
        if obstruction is None:
            run("convergence_spectrum", lambda: convergence_order(
                "convergence_spectrum", coarse + [grid],
                [r.details["errors"][0] for r in ladder(spectrum, spectrum_on(1))],
                config.fd_order), tolerance=0.0)
    else:
        coarse = [build_grid(_scaled_odd(config.n, f), config.p_max * f,
                             params.beta) for f in (1.0 / 3.0, 2.0 / 3.0)]
        run("convergence_reality", lambda: convergence_reality(
            coarse + [grid],
            ladder(spectrum, spectrum_on(min(config.levels, REALITY_LEVELS)))),
            tolerance=0.0)

    return Report(params=params, config=config, checks=checks, timings=timings)
