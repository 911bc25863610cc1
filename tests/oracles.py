"""Dense reference implementations that tests compare the library against.

The library stores grid operators as bands and never calls these.  Each
one is the plain dense form of a library operation: materialized metric
diagonals, the weighted inner product, exact application of a DiffOp to
a polynomial, a dense <-> band converter, and the dense assembly,
transforms and eigensolvers the banded core replaced.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from swanson.algebra import DiffOp, Poly
from swanson.grids import (
    _STENCILS,
    SELFADJOINT_RTOL,
    Grid,
    MatrixOp,
    metric_log_diagonal,
    weighted_norm,
)
from swanson.model import MetricSpec

# Entries of log(metric) above this cannot be exponentiated in float64.
LOG_OVERFLOW = 700.0


def metric_diagonal(spec: MetricSpec, grid: Grid, half: bool = False) -> np.ndarray:
    """Materialized dense diagonal metric (or its half power).

    Refuses to exponentiate when a log entry exceeds the float64 range.
    """
    log_diag = metric_log_diagonal(spec, grid)
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
    band[n - 1 + i - j, j] = mat
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


def dense_similarity_transform(mat: np.ndarray, spec: MetricSpec, grid: Grid,
                               half: bool = False) -> np.ndarray:
    """A_ij * exp(L_i - L_j) on the nonzero pattern of A."""
    log_diag = metric_log_diagonal(spec, grid)
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
    """Lowest ``levels`` eigenvalues by (Re, Im) from a dense solver."""
    if kind == "general":
        return _sorted(scipy.linalg.eigvals(mat))[:levels]
    gap = np.linalg.norm(mat - dense_weighted_adjoint(mat, grid))
    if gap > SELFADJOINT_RTOL * max(np.linalg.norm(mat), 1.0):
        raise ValueError("matrix is not self-adjoint under the grid inner product")
    sqrt_w = np.sqrt(grid.weights)
    sym = (sqrt_w[:, None] * mat) / sqrt_w[None, :]
    sym = 0.5 * (sym + sym.conj().T)
    return scipy.linalg.eigvalsh(sym)[:levels].astype(complex)


def dense_numeric_residual(op: DiffOp, spec: MetricSpec, grid: Grid,
                           fd_order: int, probes: list[np.ndarray]):
    """Probe residuals and interior row residual of the discrete metric
    conjugation, as check_numeric_residual defines them."""
    a = dense_assemble(op, grid, fd_order)
    delta = (dense_similarity_transform(a, spec, grid)
             - dense_weighted_adjoint(a, grid))
    probe_residuals = [weighted_norm(grid, delta @ psi) / weighted_norm(grid, a @ psi)
                       for psi in probes]
    interior = np.abs(grid.points) <= grid.p_max / 2.0
    row_scale = np.abs(a[interior]).sum(axis=1).max()
    row_residual = np.abs(delta[interior]).sum(axis=1).max() / row_scale
    return probe_residuals, float(row_residual)
