"""Reference implementations that tests compare the library against.

The library stores grid operators as bands and never calls these.  Each
one is the plain dense form of a library operation: materialized metric
diagonals, the weighted inner product, exact application of a DiffOp to
a polynomial, a dense <-> band converter, and the dense assembly,
transforms and eigensolvers the banded core replaced, and the Arnoldi
iteration whose basis np.pad regrew at every size.  The library runs
each randomized symbolic check over all its draws in one batch; the
scalar loops at the end evaluate the same identities one draw at a time.
"""

from __future__ import annotations

import random

import numpy as np
import scipy.linalg

from swanson.algebra import DiffOp, Poly, operators_equal
from swanson.checks import SYMBOLIC_TOL, _check_rng, draw_params
from swanson.grids import (
    _STENCILS,
    SELFADJOINT_RTOL,
    Grid,
    MatrixOp,
    metric_log_diagonal,
    weighted_norm,
)
from swanson.model import (
    gaussian_alpha,
    h0_momentum,
    h_deformed,
    h_ladder,
    h_quadratic,
    h_reduced,
    h_variant,
    make_params,
    metric_exponent,
    reduced_variant_difference,
    with_beta,
)

# Entries of log(metric) above this cannot be exponentiated in float64.
LOG_OVERFLOW = 700.0

# Relative agreement required between a band path and its dense oracle.
PARITY_RTOL = 1e-10


def metric_diagonal(exponent: float, grid: Grid, half: bool = False) -> np.ndarray:
    """Materialized dense diagonal metric (or its half power).

    Refuses to exponentiate when a log entry exceeds the float64 range.
    """
    log_diag = metric_log_diagonal(exponent, grid)
    if half:
        log_diag = 0.5 * log_diag
    if np.max(np.abs(log_diag)) > LOG_OVERFLOW:
        raise ValueError("metric overflows float64; use the log-ratio pathway")
    return np.diag(np.exp(log_diag)).astype(complex)


def weighted_inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> complex:
    return complex(np.sum(grid.weights * np.conj(f) * g))


def apply_to_poly(op: DiffOp, f: Poly) -> Poly:
    """Apply the operator to a polynomial (exact; beta = 0 terms only)."""
    out = Poly()
    for b, fn in op.terms:
        if fn.upow != 0:
            raise ValueError("apply_to_poly requires pure polynomial coefficients")
        g = f
        for _ in range(b):
            g = g.derivative()
        out = out + fn.poly * g
    return out


# -- dense <-> band ------------------------------------------------------------------


def from_dense(mat: np.ndarray, grid: Grid) -> MatrixOp:
    """Band form of a dense matrix with half-bandwidth n - 1, which holds
    any matrix."""
    n = grid.n
    i, j = np.indices((n, n))
    band = np.zeros((2 * n - 1, n), dtype=complex)
    band[n - 1 + i - j, i] = mat
    return MatrixOp(band, grid)


# -- the dense numeric core ------------------------------------------------------------


def dense_derivative(grid: Grid, order: int, fd_order: int = 4) -> np.ndarray:
    mat = np.zeros((grid.n, grid.n), dtype=complex)
    for offset, coeff in _STENCILS[(order, fd_order)].items():
        mat += np.eye(grid.n, k=offset, dtype=complex) * (coeff / grid.h ** order)
    return mat


def dense_assemble(op: DiffOp, grid: Grid, fd_order: int = 4) -> np.ndarray:
    """sum_b diag(f_b(p_i)) @ D^b, with D^b for b > 2 composed from D^2."""
    cache = {0: np.eye(grid.n, dtype=complex)}

    def deriv_power(b: int) -> np.ndarray:
        if b not in cache:
            cache[b] = (dense_derivative(grid, b, fd_order) if b <= 2
                        else deriv_power(2) @ deriv_power(b - 2))
        return cache[b]

    out = np.zeros((grid.n, grid.n), dtype=complex)
    for b, fn in op.terms:
        out += np.asarray(fn(grid.points), dtype=complex)[:, None] * deriv_power(b)
    return out


def dense_weighted_adjoint(mat: np.ndarray, grid: Grid) -> np.ndarray:
    """W^(-1) @ A^H @ W with W = diag(weights)."""
    w = grid.weights
    return mat.conj().T * (w[None, :] / w[:, None])


def dense_similarity_transform(mat: np.ndarray, exponent: float, grid: Grid,
                               half: bool = False) -> np.ndarray:
    """A_ij * exp(L_i - L_j) on the nonzero pattern of A."""
    log_diag = metric_log_diagonal(exponent, grid)
    factor = 0.5 if half else 1.0
    rows, cols = np.nonzero(mat)
    out = np.zeros_like(mat)
    out[rows, cols] = mat[rows, cols] * np.exp(
        factor * (log_diag[rows] - log_diag[cols]))
    return out


def _sorted(values: np.ndarray) -> np.ndarray:
    return values[np.lexsort((values.imag, values.real))]


def dense_eigs(mat: np.ndarray, grid: Grid, kind: str = "general",
               levels: int = 6) -> np.ndarray:
    """Lowest ``levels`` eigenvalues by (Re, Im) from a dense solver.

    The general branch calls numpy's *geev, as the library does: on a
    far-from-normal matrix scipy's *geev returned levels 26-65% apart
    from numpy's at two BLAS threads, while numpy's agreed with itself
    at one and two."""
    if kind == "general":
        return _sorted(np.linalg.eigvals(mat))[:levels]
    gap = np.linalg.norm(mat - dense_weighted_adjoint(mat, grid))
    if gap > SELFADJOINT_RTOL * max(np.linalg.norm(mat), 1.0):
        raise ValueError("matrix is not self-adjoint under the grid inner product")
    sqrt_w = np.sqrt(grid.weights)
    sym = (sqrt_w[:, None] * mat) / sqrt_w[None, :]
    sym = 0.5 * (sym + sym.conj().T)
    return scipy.linalg.eigvalsh(sym)[:levels].astype(complex)


def padded_arnoldi(solve, n: int, dtype, sizes):
    """grids._arnoldi as it was before its basis was sized once: the same
    start vector and Gram-Schmidt steps, with the basis regrown by np.pad
    at every size, so the old and new bases exist at once."""
    bits = np.frombuffer(random.Random(0).randbytes(8 * n), dtype="<u8")
    start = (bits >> 11) * 2.0 ** -53 - 0.5
    basis = (start / np.linalg.norm(start)).astype(dtype)[None]
    hess = np.zeros((1, 0), dtype=dtype)
    m = 0
    for size in sizes:
        basis = np.pad(basis, ((0, size + 1 - len(basis)), (0, 0)))
        hess = np.pad(hess, ((0, size + 1 - len(hess)), (0, size - m)))
        for j in range(m, size):
            w = solve(basis[j])
            for _ in range(2):
                h = basis[:j + 1].conj() @ w
                w -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            if j + 1 < n:
                hess[j + 1, j] = norm = np.linalg.norm(w)
                basis[j + 1] = w / norm
        m = size
        yield hess


def dense_numeric_residual(op: DiffOp, exponent: float, grid: Grid,
                           fd_order: int, probes: list[np.ndarray]):
    """Probe residuals and interior row residual of the discrete metric
    conjugation, as check_numeric_residual defines them."""
    a = dense_assemble(op, grid, fd_order)
    delta = (dense_similarity_transform(a, exponent, grid)
             - dense_weighted_adjoint(a, grid))
    probe_residuals = [weighted_norm(grid, delta @ psi) / weighted_norm(grid, a @ psi)
                       for psi in probes]
    interior = np.abs(grid.points) <= grid.p_max / 2.0
    row_scale = np.abs(a[interior]).sum(axis=1).max()
    row_residual = np.abs(delta[interior]).sum(axis=1).max() / row_scale
    return probe_residuals, float(row_residual)


# -- scalar loops of the randomized symbolic checks -------------------------------

# Each sample is drawn from the check's own stream (checks._check_rng), so
# a loop evaluates the very draws the check batches.


def expansion_sample(seed: int, draws: int = 100) -> list:
    rng = _check_rng(seed, 1)
    return [draw_params(rng) for _ in range(draws)]


def expansion_residual(params) -> float:
    return operators_equal(h_ladder(params), h_quadratic(params)).residual


def variant_sample(seed: int, draws: int = 100) -> list:
    rng = _check_rng(seed, 2)
    return [make_params(1.3, 0.0, 0.0) if k == 0
            else draw_params(rng, regime=True) for k in range(draws)]


def variant_residual(params) -> tuple[float, bool]:
    """Residual and variants_identical flag of one regime draw."""
    reduced = h_reduced(params)
    r_reduction = operators_equal(reduced, h_quadratic(params)).residual
    difference = reduced - h_variant(params)
    r_difference = operators_equal(
        difference, reduced_variant_difference(params)).residual
    return (max(r_reduction, r_difference),
            difference.max_abs_coeff() <= SYMBOLIC_TOL)


def gaussian_sample(seed: int, draws: int = 100) -> list:
    rng = _check_rng(seed, 3)
    return [draw_params(rng) for _ in range(draws)]


def gaussian_residual(params) -> float:
    alpha = gaussian_alpha(params)
    h0 = h0_momentum(params)
    return operators_equal(h0.conjugate_gaussian(alpha), h0.adjoint()).residual


def deformed_sample(seed: int, draws: int = 30) -> list:
    rng = _check_rng(seed, 4)
    return [draw_params(rng) for _ in range(draws)]


def deformed_residuals(bases: list, betas=(0.01, 0.1, 1.0)) -> np.ndarray:
    """One row per base draw, one column per beta, filled draw by draw."""
    out = np.zeros((len(bases), len(betas)))
    for row, base in enumerate(bases):
        for column, beta in enumerate(betas):
            params = with_beta(base, beta)
            h = h_deformed(params)
            exponent = metric_exponent(params)
            out[row, column] = operators_equal(
                h.conjugate_power_metric(exponent), h.adjoint()).residual
    return out


def first_strict_maximum(sample: list, residuals) -> tuple[float, object]:
    """The loop the expansion check used to aggregate with: the worst
    residual and the first draw that attains it (None if all are 0)."""
    worst, worst_params = 0.0, None
    for params, r in zip(sample, residuals):
        if r > worst:
            worst, worst_params = r, params
    return worst, worst_params
