"""Banded matrix images of differential operators.

Operators are discretized on a uniform, symmetric momentum grid with
central finite-difference stencils (accuracy order 2 or 4) and Dirichlet
truncation: grid points beyond the boundary are treated as zero.  The
grid carries quadrature weights h/(1+beta*p^2) so that discrete inner
products approximate the scalar product under dp/(1+beta*p^2) -- the
flat measure dp at beta = 0 -- and adjoints/metric conjugations are
available as exact matrix operations with respect to those weights.

Every operator of the model has derivative order <= 2, so its image is a
band matrix of half-bandwidth bw = fd_order/2 (pentadiagonal at fourth
order).  It is stored, transformed and diagonalised as its 2*bw+1
diagonals: memory and assembly are O(n).  Only the general eigensolver
forms an n x n array: on grids of n <= DIRECT_MAX_N, where a process can
skip scipy altogether, and as the fallback of the certified shift-invert
solver above that size.

The dense solve is numpy's LAPACK *geev; scipy is loaded only by the
solvers that need it, when they first run.  The banded Hermitian solver
(eig_banded: self-adjoint spectra and the bound that certifies
shift-invert) and the band LU that shift-invert runs on (*gbtrf, *gbtrs)
import scipy.linalg; its Arnoldi iteration is numpy.  A process whose
grids all take the dense general path loads no scipy module, and no
process loads scipy.sparse.

A metric is given by its exponent; the grid's beta picks the family, as
it picks the weights: e^(exponent*p^2) at beta = 0, (1+beta*p^2)^exponent
at beta > 0.  It is applied through its log-diagonal, diagonal by
diagonal on the nonzero entries, so e^(alpha*p^2)-sized factors never
have to be materialized when only ratios are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DiffOp

# Relative symmetry slack accepted by the weighted self-adjoint eigensolver.
SELFADJOINT_RTOL = 1e-10

# Eigenvalues the shift-invert solver converges beyond the requested
# levels, and the shift's depth below the bound lo in units of the bound s
# (see _certified_shift_invert).  Both widen the certified region; these
# values certify the deformed grids of the verify workloads, all above
# DIRECT_MAX_N.
KRYLOV_EXTRA = 8
SHIFT_DEPTH = 2.0

# Convergence of a Ritz value theta: residual at most KRYLOV_RTOL*|theta|.
# Vectors added to the Arnoldi basis between two checks, at least, and the
# most it holds per eigenvalue sought.  The grids the tests certify need
# at most 6.5 vectors per eigenvalue (72 for 11 eigenvalues on a flat
# n = 253 grid); the verify-deformed grids need 2.5.
KRYLOV_RTOL = 1e-12
KRYLOV_STEP = 8
KRYLOV_CAP = 8

# Largest grid the general eigensolver solves densely without trying
# shift-invert.  Up to this size the dense solve computes every
# eigenvalue, so it needs no certificate, and a process that solves only
# such grids skips scipy.linalg (0.22-0.41 s of start-up).  Once
# scipy.linalg is loaded, shift-invert costs less than the dense solve
# from about n = 200 on: on a 2-vCPU host with one BLAS thread, medians
# of 9 solves of 6 levels over three half-metric operators (CHANGES.md
# has the table) take 21-23 ms dense against 5-12 ms at n = 251, 33-37
# against 5-13 at n = 301 and 70-103 against 4-11 at n = 451.  The cut
# stays at 251: no grid of the benchmark workloads lies between 201 and
# 501, so moving it would change no workload.
DIRECT_MAX_N = 251

# Largest grid any dense eigensolve accepts; its n x n complex matrix
# alone takes 16*n^2 bytes (256 MB at this n).
DENSE_MAX_N = 4001

_STENCILS = {
    (1, 2): {-1: -0.5, 1: 0.5},
    (1, 4): {-2: 1.0 / 12.0, -1: -2.0 / 3.0, 1: 2.0 / 3.0, 2: -1.0 / 12.0},
    (2, 2): {-1: 1.0, 0: -2.0, 1: 1.0},
    (2, 4): {-2: -1.0 / 12.0, -1: 4.0 / 3.0, 0: -5.0 / 2.0,
             1: 4.0 / 3.0, 2: -1.0 / 12.0},
}


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric momentum grid with quadrature weights."""

    n: int
    p_max: float
    beta: float
    h: float
    points: np.ndarray
    weights: np.ndarray


def build_grid(n: int, p_max: float, beta: float = 0.0) -> Grid:
    n = int(n)
    if n < 5 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 5")
    if not (p_max > 0 and math.isfinite(p_max)):
        raise ValueError("p_max must be finite and > 0")
    if not (beta >= 0 and math.isfinite(beta)):
        raise ValueError("beta must be finite and >= 0")
    # the model's coefficients grow like p^2 and (1+beta*p^2)^2
    u_max = 1.0 + beta * p_max * p_max
    if not math.isfinite(max(p_max * p_max, u_max * u_max)):
        raise ValueError("p_max too large: the operator coefficients "
                         "overflow on the grid")
    h = 2.0 * p_max / (n - 1)
    # integer-centered construction keeps the grid exactly symmetric and
    # guarantees p = 0 is a grid point
    points = (np.arange(n) - (n - 1) // 2) * h
    # exactly h at beta = 0
    weights = h * (1.0 + beta * points ** 2) ** -1
    points.setflags(write=False)
    weights.setflags(write=False)
    return Grid(n=n, p_max=float(p_max), beta=float(beta), h=h,
                points=points, weights=weights)


@dataclass(frozen=True)
class MatrixOp:
    """Complex band-matrix image of an operator on a grid.

    ``matrix`` has shape (2*bw+1, n) and holds the diagonals in LAPACK
    general-band layout, ``matrix[bw + i - j, j] = A[i, j]``: row r is the
    diagonal i - j = r - bw, aligned by column.  Slots that fall outside
    the n x n matrix are zero.
    """

    matrix: np.ndarray
    grid: Grid

    @property
    def bw(self) -> int:
        return (self.matrix.shape[0] - 1) // 2

    def slot_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix row i of every band slot (clipped into range) and the
        mask of slots inside the matrix."""
        bw, n = self.bw, self.grid.n
        rows = np.arange(n) + np.arange(-bw, bw + 1)[:, None]
        inside = (rows >= 0) & (rows < n)
        return np.clip(rows, 0, n - 1), inside

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product A @ vector."""
        return _sum_rows(self.matrix * vector, *self.slot_rows())

    def abs_row_sums(self) -> np.ndarray:
        """sum_j |A_ij| for every row i."""
        return _sum_rows(np.abs(self.matrix), *self.slot_rows())

    def to_dense(self) -> np.ndarray:
        rows, inside = self.slot_rows()
        cols = np.broadcast_to(np.arange(self.grid.n), rows.shape)
        dense = np.zeros((self.grid.n, self.grid.n), dtype=self.matrix.dtype)
        dense[rows[inside], cols[inside]] = self.matrix[inside]
        return dense


def _sum_rows(values: np.ndarray, rows: np.ndarray,
              inside: np.ndarray) -> np.ndarray:
    """Sum of a band-shaped array over the slots of each matrix row."""
    n = rows.shape[1]
    index, values = rows[inside], values[inside]
    total = np.bincount(index, values.real, n)
    if np.iscomplexobj(values):
        total = total + 1j * np.bincount(index, values.imag, n)
    return total


def _conj_transpose(band: np.ndarray, rows: np.ndarray,
                    inside: np.ndarray) -> np.ndarray:
    """Band of A^H: diagonal i - j = m of A^H is the conjugate of
    diagonal -m of A, shifted by m along the columns."""
    return np.where(inside,
                    np.take_along_axis(band[::-1], rows, axis=1).conj(), 0.0)


def derivative_matrix(grid: Grid, order: int, fd_order: int = 4) -> MatrixOp:
    """Central finite-difference band for d^order/dp^order.

    Rows near the boundary simply drop the out-of-range stencil points
    (Dirichlet truncation).
    """
    key = (order, fd_order)
    if key not in _STENCILS:
        raise ValueError("order must be 1 or 2 and fd_order 2 or 4")
    bw = fd_order // 2
    if 2 * bw + 1 > grid.n:
        raise ValueError("stencil wider than grid")
    n = grid.n
    band = np.zeros((2 * bw + 1, n), dtype=complex)
    scale = grid.h ** order
    for offset, coeff in _STENCILS[key].items():
        # entry (i, i + offset) sits in row bw - offset, column i + offset
        band[bw - offset, max(offset, 0):n + min(offset, 0)] = coeff / scale
    return MatrixOp(band, grid)


def assemble_matrix(op: DiffOp, grid: Grid, fd_order: int = 4) -> MatrixOp:
    """sum_b diag(f_b(p_i)) @ D^b with f_b evaluated exactly, summed
    straight into the diagonals.

    D^2 uses the dedicated second-derivative stencil rather than the
    square of the first-derivative matrix, which would decouple even and
    odd sublattices.  Derivative orders above 2 are rejected.
    """
    if op.beta != grid.beta:
        raise ValueError("operator and grid beta differ")
    bw = fd_order // 2
    out = MatrixOp(np.zeros((2 * bw + 1, grid.n), dtype=complex), grid)
    band = out.matrix
    rows, _ = out.slot_rows()
    for b, fn in op.terms:
        values = np.asarray(fn(grid.points), dtype=complex)
        if b == 0:
            band[bw] += values
        else:
            band += values[rows] * derivative_matrix(grid, b, fd_order).matrix
    return out


def weighted_adjoint(a: MatrixOp) -> MatrixOp:
    """Adjoint with respect to the grid's weighted inner product:
    W^(-1) @ A^H @ W with W = diag(weights)."""
    w = a.grid.weights
    rows, inside = a.slot_rows()
    return MatrixOp(_conj_transpose(a.matrix, rows, inside) * (w / w[rows]),
                    a.grid)


def metric_log_diagonal(exponent: float, grid: Grid) -> np.ndarray:
    """log of the diagonal metric entries: exponent*p^2 at beta = 0,
    exponent*log(1+beta*p^2) at beta > 0."""
    p2 = grid.points ** 2
    if grid.beta == 0.0:
        return exponent * p2
    return exponent * np.log1p(grid.beta * p2)


def similarity_transform(a: MatrixOp, exponent: float) -> MatrixOp:
    """eta @ A @ eta^(-1) computed per diagonal as A_ij * exp(L_i - L_j),
    touching only the nonzero entries so banded operators never see
    overflowing metric entries; the half metric eta^(1/2) is the exponent
    halved.  A metric too steep for the grid raises ValueError naming the
    non-finite entries."""
    rows, _ = a.slot_rows()
    # overflow to inf, and inf - inf or 0 * inf to nan, are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        log_diag = metric_log_diagonal(exponent, a.grid)
        ratio = np.where(a.matrix != 0, log_diag[rows] - log_diag, 0.0)
        out = a.matrix * np.exp(ratio)
    bad = ~np.isfinite(out)
    if np.any(bad):
        slot, cols = np.nonzero(bad)
        where = list(zip(rows[slot, cols][:5].tolist(), cols[:5].tolist()))
        raise ValueError(f"non-finite transformed entries at {where}")
    return MatrixOp(out, a.grid)


@dataclass(frozen=True)
class Spectrum:
    """Low-lying eigenvalues sorted by (Re, Im) ascending, and the solver
    that produced them: "eig_banded" (self-adjoint), "dense" (general,
    n <= DIRECT_MAX_N), "shift-invert" (general, certified) or
    "dense-fallback" (general, shift-invert failed or could not certify).
    Values repeat bit for bit per host and BLAS thread count.  On the
    sweep's nearly normal deformed grids (n <= 201, p_max <= 20, beta up
    to 3) the "dense" levels were also bit for bit the same at one and two
    BLAS threads, and scipy's *geev agreed with them within 0.163
    eps*||A||_F.  Far from normal (omega < lambda + delta) the levels are
    ill-conditioned and no such bound holds: at (1, 1.3, -0.2), n = 301,
    scipy's *geev at two threads moved the lowest "dense-fallback" levels
    by 26-65% relative, while numpy's were the same at one and two."""

    eigenvalues: np.ndarray
    solver: str


def _sorted_eigenvalues(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def _real_if_possible(values: np.ndarray) -> np.ndarray:
    return values.real if not np.any(values.imag) else values


def _hermitian_and_skew(a: MatrixOp) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the Hermitian and skew-Hermitian parts of
    S = W^(1/2) A W^(-1/2), which is similar to A and Hermitian exactly
    when A is self-adjoint under the grid inner product."""
    sqrt_w = np.sqrt(a.grid.weights)
    rows, inside = a.slot_rows()
    sym = a.matrix * (sqrt_w[rows] / sqrt_w)
    sym_h = _conj_transpose(sym, rows, inside)
    return 0.5 * (sym + sym_h), 0.5 * (sym - sym_h)


def _lowest_hermitian(band: np.ndarray, count: int) -> np.ndarray:
    """Lowest ``count`` eigenvalues of a Hermitian band matrix (LAPACK
    *hbevx / *sbevx on its upper half)."""
    # deferred: only the band solvers need scipy.linalg, which costs
    # 0.22-0.41 s of start-up on a 2-vCPU host; a process whose grids all
    # take the dense general path never loads it
    import scipy.linalg

    bw = (band.shape[0] - 1) // 2
    return scipy.linalg.eig_banded(_real_if_possible(band[:bw + 1]),
                                   eigvals_only=True, select="i",
                                   select_range=(0, count - 1))


def _dense_spectrum(a: MatrixOp, levels: int, solver: str) -> Spectrum:
    """Every eigenvalue of the dense matrix, the lowest ``levels`` kept and
    reported under ``solver``; refused above DENSE_MAX_N."""
    n = a.grid.n
    if n > DENSE_MAX_N:
        raise np.linalg.LinAlgError(
            f"dense eigensolver refused at n = {n}: it needs "
            f"{16 * n * n} bytes, and n may be at most {DENSE_MAX_N}")
    vals = np.linalg.eigvals(_real_if_possible(a.to_dense()))
    return Spectrum(_sorted_eigenvalues(vals)[:levels], solver)


def _band_lu_solver(band: np.ndarray, sigma: float):
    """x -> (A - sigma*I)^(-1) x for the band matrix A in MatrixOp layout,
    through LAPACK's band LU (*gbtrf and *gbtrs), or None when the factor
    is singular."""
    # deferred for the reason _lowest_hermitian gives
    import scipy.linalg

    bw = (band.shape[0] - 1) // 2
    # *gbtrf takes the band below bw spare rows, where pivoting fills in
    ab = np.zeros((3 * bw + 1, band.shape[1]), dtype=band.dtype)
    ab[bw:] = band
    ab[2 * bw] -= sigma
    gbtrf, gbtrs = scipy.linalg.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
    lu, pivots, info = gbtrf(ab, bw, bw, overwrite_ab=True)
    if info > 0:  # U[info-1, info-1] is exactly zero
        return None
    return lambda x: gbtrs(lu, bw, bw, x, pivots)[0]


def _largest_ritz_values(solve, n: int, k: int, dtype) -> np.ndarray | None:
    """The k eigenvalues of largest modulus of the operator ``solve`` on
    C^n (or R^n), by Arnoldi from a fixed start vector, or None when they
    do not converge before the basis reaches its cap.

    The basis grows to 2k vectors, then by KRYLOV_STEP or an eighth at a
    time, and the Ritz values are checked at each of those sizes m: they
    have converged when every residual |h[m, m-1] * y[m-1]| is at most
    KRYLOV_RTOL*|theta|.  The basis stops at KRYLOV_CAP*k vectors, or at n,
    where it spans the space and the factorization is exact.  The sizes
    checked depend on n and k alone.
    """
    cap = min(n, KRYLOV_CAP * k)
    # a fixed start vector keeps reports reproducible within a process
    start = np.random.default_rng(0).standard_normal(n)
    basis = (start / np.linalg.norm(start)).astype(dtype)[None]
    hess = np.zeros((1, 0), dtype=dtype)
    m, size = 0, min(cap, 2 * k)
    while True:
        # grown per check, so memory follows the basis actually built
        basis = np.pad(basis, ((0, size + 1 - len(basis)), (0, 0)))
        hess = np.pad(hess, ((0, size + 1 - len(hess)), (0, size - m)))
        for j in range(m, size):
            w = solve(basis[j])
            for _ in range(2):  # classical Gram-Schmidt, twice
                h = basis[:j + 1].conj() @ w
                w -= h @ basis[:j + 1]
                hess[:j + 1, j] += h
            if j + 1 < n:  # at n vectors nothing is left over
                hess[j + 1, j] = norm = np.linalg.norm(w)
                basis[j + 1] = w / norm
        m = size
        theta, vectors = np.linalg.eig(hess[:m, :m])
        largest = np.argsort(-np.abs(theta), kind="stable")[:k]
        residual = np.abs(hess[m, m - 1] * vectors[m - 1, largest])
        if np.all(residual <= KRYLOV_RTOL * np.abs(theta[largest])):
            return theta[largest]
        if m == cap:
            return None
        size = min(cap, m + max(KRYLOV_STEP, m // 8))


def _certified_shift_invert(a: MatrixOp, levels: int) -> Spectrum | None:
    """Lowest ``levels`` eigenvalues by shift-invert Arnoldi, or None when
    the shifted band is singular, the Ritz values do not converge or the
    result cannot be certified.

    (A - sigma*I)^(-1) is applied through one band LU factorization, and
    its k = levels + KRYLOV_EXTRA eigenvalues theta of largest modulus
    give the k eigenvalues sigma + 1/theta of A nearest sigma.
    With S = W^(1/2) A W^(-1/2), every eigenvalue has Re >= lo, the lowest
    eigenvalue of the Hermitian part of S, and |Im| <= s, a Gershgorin
    bound on its skew part.  The shift sigma sits below lo; every
    eigenvalue left out lies at distance >= r_k (the largest returned
    distance), hence has (Re - sigma)^2 >= r_k^2 - s^2.  When that exceeds
    (x_L - sigma)^2, x_L the real part of the last kept level, no
    eigenvalue left out can sort before the kept ones.
    """
    n = a.grid.n
    k = levels + KRYLOV_EXTRA
    if k >= n - 1:
        return None
    herm, skew = _hermitian_and_skew(a)
    lo = float(_lowest_hermitian(herm, 1)[0])
    # |skew| is symmetric, so its column sums are its Gershgorin row sums
    s = float(np.abs(skew).sum(axis=0).max())
    sigma = lo - SHIFT_DEPTH * max(s, 1e-3 * max(1.0, abs(lo)))
    band = _real_if_possible(a.matrix)
    solve = _band_lu_solver(band, sigma)
    if solve is None:
        return None
    theta = _largest_ritz_values(solve, n, k, band.dtype)
    if theta is None:
        return None
    values = sigma + 1.0 / theta
    kept = _sorted_eigenvalues(values)[:levels]
    r_k = float(np.abs(values - sigma).max())
    if r_k ** 2 - s ** 2 < (kept[-1].real - sigma) ** 2:
        return None
    return Spectrum(kept, "shift-invert")


def eigs(a: MatrixOp, kind: str = "general", levels: int = 6) -> Spectrum:
    """The lowest ``levels`` eigenvalues of a band operator.

    kind="general" picks its solver by grid size.  Up to DIRECT_MAX_N it
    solves the dense nonsymmetric problem at once ("dense"): that finds
    every eigenvalue, so none can be missed.  Above it, certified
    shift-invert Arnoldi runs on the band's LU factors ("shift-invert",
    see _certified_shift_invert) and falls back to the dense solve
    ("dense-fallback") when that is impossible (levels close to n, a
    singular shifted band), unconverged or uncertified; above DENSE_MAX_N
    the dense solve raises LinAlgError instead.
    kind="selfadjoint-weighted" symmetrizes via S = W^(1/2) A W^(-1/2),
    requires S to be Hermitian (A equal to its weighted adjoint) within a
    small relative slack, and solves the Hermitian band problem.
    """
    levels = int(levels)
    if not 0 < levels <= a.grid.n:
        raise ValueError(f"levels must be between 1 and n = {a.grid.n}")
    if kind == "general":
        if a.grid.n <= DIRECT_MAX_N:
            return _dense_spectrum(a, levels, "dense")
        return (_certified_shift_invert(a, levels)
                or _dense_spectrum(a, levels, "dense-fallback"))
    if kind == "selfadjoint-weighted":
        herm, skew = _hermitian_and_skew(a)
        # largest entries: a sum of squares would overflow on a huge grid;
        # S - S^H = 2*skew, which is A - A^+_w itself at uniform weights
        gap = 2.0 * np.abs(skew).max()
        norm = np.abs(a.matrix).max()
        if gap > SELFADJOINT_RTOL * max(norm, 1.0):
            raise ValueError("matrix is not self-adjoint under the grid "
                             f"inner product (gap {gap:.3e}, norm {norm:.3e})")
        vals = _lowest_hermitian(herm, levels)
        return Spectrum(np.asarray(vals, dtype=complex), "eig_banded")
    raise ValueError(f"unknown eigensolver kind {kind!r}")


def gaussian_state(grid: Grid, center: float = 0.0, width: float = 1.0) -> np.ndarray:
    """Samples of exp(-(p-center)^2/(2*width^2)) normalized to unit
    weighted norm."""
    if not width > 0:
        raise ValueError("width must be > 0")
    psi = np.exp(-((grid.points - center) ** 2) / (2.0 * width ** 2))
    return psi / weighted_norm(grid, psi)


def weighted_norm(grid: Grid, f: np.ndarray) -> float:
    """sqrt(sum w*|f|^2), taken over f/max|f| where the squares overflow."""
    with np.errstate(over="ignore"):
        magnitude = np.abs(f)
        total = np.sum(grid.weights * magnitude ** 2)
        scale = magnitude.max()
        if math.isfinite(total) or not scale < math.inf:
            return float(np.sqrt(total))
        return float(scale * np.sqrt(np.sum(grid.weights * (magnitude / scale) ** 2)))
