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
diagonals, aligned by matrix row: memory and assembly are O(n).  It is
real (float64) when every entry is, as for every Hamiltonian of the
model, and every later step keeps its dtype.  Only
the dense eigensolves form square arrays.  On grids of n <= DIRECT_MAX_N
a band equal to its reversal p -> -p, as every Hamiltonian of the model
is on every grid, is solved as its even and odd sectors, about n/2 x n/2
each and written out from the band (_parity_sectors); any other band,
and the fallback of the certified shift-invert solver above that size,
form the n x n matrix.

Every solver is numpy.  The dense solves are numpy's LAPACK *geev
(general) and *syevd/*heevd (self-adjoint).  Above DIRECT_MAX_N both
kinds run shift-invert Arnoldi on one O(n) band factorization by nested
Schur complements (_schur_solver), shifted below a floor that Cholesky
factorizations of the same kind certify (_hermitian_floor).  No module
of the package imports scipy.

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
# levels, and the shift's depth below the floor lo in units of the bound s
# (see _certified_shift_invert).  Both widen the certified region; these
# values certify the deformed grids of the verify workloads, all above
# DIRECT_MAX_N.
KRYLOV_EXTRA = 8
SHIFT_DEPTH = 2.0

# The floor lo under the Hermitian part aims within FLOOR_RTOL*max(1, |lo|)
# of its lowest eigenvalue, which is also the shift's least depth in those
# units.  Each round of _hermitian_floor takes FLOOR_KRYLOV Arnoldi steps,
# and it makes at most FLOOR_FACTORS factorizations: the grids the tests
# and the workloads solve need 2-5.
FLOOR_RTOL = 1e-3
FLOOR_KRYLOV = 12
FLOOR_FACTORS = 16

# Rows of one interior block of the Schur-complement band factorization
# (_schur_solver).  Inverting the interiors costs O(n*SCHUR_ROWS^2), a
# solve O(n*SCHUR_ROWS) plus a few numpy calls per level, and fewer rows
# mean more levels.  On the verify workloads' operators and at n = 6001,
# 16 and 20 gave the fastest eigs calls; 8 and 32 took 15-20% longer.
SCHUR_ROWS = 16

# Convergence of a Ritz value theta: residual at most KRYLOV_RTOL*|theta|.
# Vectors added to the Arnoldi basis between two checks, at least, and the
# most it holds per eigenvalue sought.  The grids the tests certify need
# at most 6.5 vectors per eigenvalue (72 for 11 eigenvalues on a flat
# n = 253 grid); the verify-deformed grids need 2.5.
KRYLOV_RTOL = 1e-12
KRYLOV_STEP = 8
KRYLOV_CAP = 8

# Largest grid either eigensolver kind solves densely without trying
# shift-invert.  Up to this size the dense solve computes every
# eigenvalue, so it needs no certificate.  On a 2-vCPU host with one BLAS
# thread, medians of 9 solves of 6 levels over three half-metric
# operators (P1 = (1, -0.5, 0.5) at beta 0.1 and 1 with p_max 20, and
# verify-deformed's at beta 0.05 with p_max 40) took 3.4-4.3 ms dense in
# two parity sectors against 8.6-13.3 ms by shift-invert at n = 201,
# 5.3-6.5 against 9.7-13.2 at n = 251, 9.6-10.5 against 10.5-14.4 at
# n = 301 and 24-28 against 11-19 at n = 451 (the full dense solve:
# 6.9-8.1, 12-13, 19-22 and 52-72 ms).  The self-adjoint dense solve is
# cheaper: on hermitized P1 with p_max 10 its sectors took 1.0, 1.3, 1.8
# and 4.1 ms at those sizes against 8.4-11.7 ms, so it leads past
# n = 451.  The cut stays at 251: no grid of the benchmark workloads
# lies between 201 and 501, and moving it would change the reports of
# runs that do (n = 301 and 401 in tools/compare_reports.py).
DIRECT_MAX_N = 251

# Largest grid any dense eigensolve accepts; its n x n matrix alone takes
# 128 MB at this n for the real operators of every command, 256 MB if complex.
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
    """Real (float64) or complex band-matrix image of an operator on a grid.

    ``matrix`` has shape (2*bw+1, n) and holds the diagonals aligned by
    matrix row, ``matrix[bw + i - j, i] = A[i, j]``: row r is the diagonal
    i - j = r - bw, and column i is row i of A, the operator's stencil at
    p_i.  Slots that fall outside the n x n matrix are zero.
    """

    matrix: np.ndarray
    grid: Grid

    @property
    def bw(self) -> int:
        return (self.matrix.shape[0] - 1) // 2

    def slot_cols(self) -> tuple[np.ndarray, np.ndarray]:
        """Matrix column j of every band slot (clipped into range) and the
        mask of slots inside the matrix."""
        return _slot_cols(self.matrix)

    def apply(self, vector: np.ndarray) -> np.ndarray:
        """Matrix-vector product A @ vector; products past float range
        read inf, and inf - inf NaN, without a warning."""
        cols, inside = self.slot_cols()
        with np.errstate(over="ignore", invalid="ignore"):
            products = np.where(inside, self.matrix * vector[cols], 0.0)
            return products.sum(axis=0)

    def abs_row_sums(self) -> np.ndarray:
        """sum_j |A_ij| for every row i."""
        return np.abs(self.matrix).sum(axis=0)

    def to_dense(self) -> np.ndarray:
        return _to_dense(self.matrix)


def _slot_cols(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """MatrixOp.slot_cols for the n x n matrix whose band in MatrixOp
    layout is ``band``."""
    bw, n = (band.shape[0] - 1) // 2, band.shape[1]
    cols = np.arange(n) + np.arange(bw, -bw - 1, -1)[:, None]
    inside = (cols >= 0) & (cols < n)
    return np.clip(cols, 0, n - 1), inside


def _to_dense(band: np.ndarray) -> np.ndarray:
    """The n x n matrix whose band in MatrixOp layout is ``band``; slots
    outside it are dropped."""
    n = band.shape[1]
    cols, inside = _slot_cols(band)
    rows = np.broadcast_to(np.arange(n), cols.shape)
    dense = np.zeros((n, n), dtype=band.dtype)
    dense[rows[inside], cols[inside]] = band[inside]
    return dense


def _conj_transpose(band: np.ndarray, cols: np.ndarray,
                    inside: np.ndarray) -> np.ndarray:
    """Band of A^H: diagonal i - j = m of A^H is the conjugate of
    diagonal -m of A, shifted by m along the band."""
    return np.where(inside,
                    np.take_along_axis(band[::-1], cols, axis=1).conj(), 0.0)


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
    band = np.zeros((2 * bw + 1, n))
    scale = grid.h ** order
    for offset, coeff in _STENCILS[key].items():
        # entry (i, i + offset) sits in row bw - offset, column i
        band[bw - offset, max(-offset, 0):n + min(-offset, 0)] = coeff / scale
    return MatrixOp(band, grid)


def assemble_matrix(op: DiffOp, grid: Grid, fd_order: int = 4) -> MatrixOp:
    """sum_b diag(f_b(p_i)) @ D^b with f_b evaluated exactly, summed
    straight into the diagonals; a real band when no entry has a nonzero
    imaginary part, else a complex one.  Coefficients past float range on
    the grid raise ValueError naming the non-finite entries.

    D^2 uses the dedicated second-derivative stencil rather than the
    square of the first-derivative matrix, which would decouple even and
    odd sublattices.  Derivative orders above 2 are rejected.
    """
    if op.beta != grid.beta:
        raise ValueError("operator and grid beta differ")
    bw = fd_order // 2
    band = np.zeros((2 * bw + 1, grid.n), dtype=complex)
    # coefficients past float range read inf or nan, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        for b, fn in op.terms:
            values = np.asarray(fn(grid.points), dtype=complex)
            if b == 0:
                band[bw] += values
            else:
                band += values * derivative_matrix(grid, b, fd_order).matrix
    # a copy: the .real view would keep the complex buffer alive
    out = MatrixOp(band if np.any(band.imag) else band.real.copy(), grid)
    _refuse_non_finite(out, "operator")
    return out


def _refuse_non_finite(a: MatrixOp, what: str) -> None:
    """Raise ValueError naming the first five non-finite entries (i, j)."""
    bad = ~np.isfinite(a.matrix)
    if np.any(bad):
        cols, _ = a.slot_cols()
        slot, rows = np.nonzero(bad)
        where = list(zip(rows[:5].tolist(), cols[slot, rows][:5].tolist()))
        raise ValueError(f"non-finite {what} entries at {where}")


def weighted_adjoint(a: MatrixOp) -> MatrixOp:
    """Adjoint with respect to the grid's weighted inner product:
    W^(-1) @ A^H @ W with W = diag(weights)."""
    w = a.grid.weights
    cols, inside = a.slot_cols()
    return MatrixOp(_conj_transpose(a.matrix, cols, inside) * (w[cols] / w),
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
    cols, _ = a.slot_cols()
    # overflow to inf, and inf - inf or 0 * inf to nan, are caught below
    with np.errstate(over="ignore", invalid="ignore"):
        log_diag = metric_log_diagonal(exponent, a.grid)
        ratio = np.where(a.matrix != 0, log_diag - log_diag[cols], 0.0)
        out = MatrixOp(a.matrix * np.exp(ratio), a.grid)
    _refuse_non_finite(out, "transformed")
    return out


@dataclass(frozen=True)
class Spectrum:
    """Low-lying eigenvalues sorted by (Re, Im) ascending, and the solver
    that produced them, for either kind of eigs: "dense" (n <=
    DIRECT_MAX_N; two parity sectors when the band equals its reversal),
    "shift-invert" (certified) or "dense-fallback" (shift-invert
    impossible, unconverged or uncertified; the full matrix).
    Self-adjoint eigenvalues are real.  Values repeat bit for bit per
    host and BLAS thread count.  On the sweep's nearly normal deformed
    grids (n <= 201, p_max <= 20, beta up to 3) the "dense" levels, from
    the sectors, were also bit for bit the same at one and two BLAS
    threads, and within 0.41 eps*||A||_F of the full matrix's.  Far from
    normal (omega < lambda + delta) the levels are ill-conditioned, yet at
    (1, 1.3, -0.2), n = 301, the lowest "dense-fallback" levels were still
    the same at one and two threads."""

    eigenvalues: np.ndarray
    solver: str


def _sorted_eigenvalues(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


def _hermitian_and_skew(a: MatrixOp) -> tuple[np.ndarray, np.ndarray]:
    """Bands of the Hermitian and skew-Hermitian parts of
    S = W^(1/2) A W^(-1/2), which is similar to A and Hermitian exactly
    when A is self-adjoint under the grid inner product."""
    sqrt_w = np.sqrt(a.grid.weights)
    cols, inside = a.slot_cols()
    sym = a.matrix * (sqrt_w / sqrt_w[cols])
    # halved before the sum, which cannot then overflow; in the normal
    # range the bits are the same
    sym, sym_h = 0.5 * sym, 0.5 * _conj_transpose(sym, cols, inside)
    return sym + sym_h, sym - sym_h


def _parity_sectors(band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even and odd sectors of the n x n matrix A whose band in
    MatrixOp layout is ``band``, for A = JAJ, J the reversal p -> -p and
    n = 2c + 1 odd.

    In the orthonormal basis e_c, (e_(c+k) + e_(c-k))/sqrt(2) (k = 1 ...
    c) of the even sector, A is the (c+1) x (c+1) matrix with A[c, c] at
    (0, 0), sqrt(2)*A[c, c+l] and sqrt(2)*A[c+k, c] in the rest of row 0
    and column 0, and A[c+k, c+l] + A[c+k, c-l] at (k, l).  In the basis
    (e_(c+k) - e_(c-k))/sqrt(2) of the odd sector it is the c x c matrix
    A[c+k, c+l] - A[c+k, c-l].  The reflected entries A[c+k, c-l] lie in
    the band only where k + l <= bw, so each sector is written out from
    band columns c ... n-1 (rows c ... n-1 of A) plus or minus that
    corner; the n x n matrix is never formed.  The basis is real and
    orthonormal, so a Hermitian A has Hermitian sectors."""
    bw, c = (band.shape[0] - 1) // 2, (band.shape[1] - 1) // 2
    even, odd = _to_dense(band[:, c:]), _to_dense(band[:, c + 1:])
    reach = np.arange(1, min(bw, c + 1))  # k, l <= c on a band this wide
    k, l = np.nonzero(np.add.outer(reach, reach) <= bw)
    k, l = k + 1, l + 1
    # A[c+k, c-l] sits in slot bw + k + l of band column c + k
    reflected = band[bw + k + l, c + k]
    even[k, l] += reflected
    odd[k - 1, l - 1] -= reflected
    even[0, 1:] *= math.sqrt(2.0)
    even[1:, 0] *= math.sqrt(2.0)
    return even, odd


def _dense_spectrum(a: MatrixOp, levels: int, solver: str,
                    hermitian: bool, by_parity: bool = False) -> Spectrum:
    """Every eigenvalue of the dense matrix (numpy's *syevd/*heevd when
    ``hermitian``, else *geev), the lowest ``levels`` kept and reported
    under ``solver``; refused above DENSE_MAX_N.  With ``by_parity``, a
    band equal to its reversal is solved as its two parity sectors
    (_parity_sectors), built from the band, and their values merged; any
    other band is solved whole."""
    n = a.grid.n
    if n > DENSE_MAX_N:
        raise np.linalg.LinAlgError(
            f"dense eigensolver refused at n = {n}: it needs "
            f"{a.matrix.itemsize * n * n} bytes, and n may be at most "
            f"{DENSE_MAX_N}")
    if by_parity and np.array_equal(a.matrix, a.matrix[::-1, ::-1]):
        matrices = _parity_sectors(a.matrix)
    else:
        matrices = (a.to_dense(),)
    solve = np.linalg.eigvalsh if hermitian else np.linalg.eigvals
    values = np.concatenate([solve(matrix) for matrix in matrices])
    return Spectrum(_sorted_eigenvalues(values)[:levels], solver)


def _matvec(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """blocks[p] @ x[p] for every p of a stack."""
    return (blocks @ x[..., None])[..., 0]


def _schur_solver(diag: np.ndarray, lower: np.ndarray, upper: np.ndarray,
                  definite: bool):
    """f -> M^(-1) f for the block tridiagonal M of b x b blocks given by
    the stacks ``diag`` (block row t, column t), ``lower`` (t, t-1) and
    ``upper`` (t, t+1), by nested Schur complements; None when
    ``definite`` and M is not Hermitian positive definite.  f may be
    shorter than M, standing for its leading rows with zeros below.

    The blocks are grouped into interiors of g = SCHUR_ROWS/b blocks, each
    followed by one separator block.  No two interiors touch, so all are
    inverted at once as one (P, g*b, g*b) stack; eliminating them leaves
    the separators' Schur complement, again block tridiagonal with b x b
    blocks and about 1/(g+1) as many, which is factored the same way.
    The recursion ends where no separator is left, solved by the identity.
    Every level is O(n), and a solve is a few stacked products per level.

    Without pivoting this needs every interior and every Schur complement
    to be invertible.  It is when the Hermitian part of M is positive
    definite, as it is for the shifts used here: Schur complements keep
    that property, and with it the growth of the elimination is bounded
    (Golub & Van Loan, Matrix Computations, 4th ed., sec. 4.4).  When M
    is Hermitian, it is positive definite exactly when every interior
    stack and the last Schur complement have a Cholesky factor (Sylvester's
    law of inertia), which ``definite`` tests.
    """
    count, b = diag.shape[:2]
    if count == 0:  # no separators below the last level
        return lambda f: f
    # the stacked products below round differently for stacks in other
    # memory orders, so every solve starts from C order
    diag, lower, upper = map(np.ascontiguousarray, (diag, lower, upper))
    g = min(count, max(1, SCHUR_ROWS // b))
    parts = -(-(count + 1) // (g + 1))
    # identity blocks fill the last interior, and one spare separator ends it
    pad = parts * (g + 1) - count
    eye = np.broadcast_to(np.eye(b, dtype=diag.dtype), (pad, b, b))
    zero = np.zeros((pad, b, b), dtype=diag.dtype)
    diag, lower, upper = (np.concatenate([stack, filler]).reshape(
        parts, g + 1, b, b) for stack, filler in ((diag, eye), (lower, zero),
                                                  (upper, zero)))
    interior = np.zeros((parts, g, b, g, b), dtype=diag.dtype)
    k = np.arange(g)
    interior[:, k, :, k] = diag[:, :g].swapaxes(0, 1)
    interior[:, k[1:], :, k[:-1]] = lower[:, 1:g].swapaxes(0, 1)
    interior[:, k[:-1], :, k[1:]] = upper[:, :g - 1].swapaxes(0, 1)
    interior = interior.reshape(parts, g * b, g * b)
    if definite:
        try:
            np.linalg.cholesky(interior)
        except np.linalg.LinAlgError:
            return None
    inverse = np.linalg.inv(interior)
    # couplings of each separator to the interiors before and after it, and
    # each interior's response to the separators before and after it
    sep_lower, sep_upper = lower[:-1, g], upper[:-1, g]
    before = inverse[:, :, :b] @ lower[:, 0]
    after = inverse[:, :, -b:] @ upper[:, g - 1]
    inner = _schur_solver(diag[:-1, g] - sep_lower @ after[:-1, -b:]
                          - sep_upper @ before[1:, :b],
                          -sep_lower @ before[:-1, -b:],
                          -sep_upper @ after[1:, :b], definite)
    if inner is None:
        return None

    def solve(f: np.ndarray) -> np.ndarray:
        x = np.zeros((parts, g + 1, b), dtype=np.result_type(f, inverse))
        x.reshape(-1)[:len(f)] = f
        y = _matvec(inverse, x[:, :g].reshape(parts, g * b))
        sep = inner((x[:-1, g] - _matvec(sep_lower, y[:-1, -b:])
                     - _matvec(sep_upper, y[1:, :b])).reshape(-1))
        sep = sep.reshape(parts - 1, b)
        y[1:] -= _matvec(before[1:], sep)
        y[:-1] -= _matvec(after[:-1], sep)
        x[:, :g] = y.reshape(parts, g, b)
        x[:-1, g] = sep
        return x.reshape(-1)[:len(f)]

    return solve


def _band_solver(band: np.ndarray, shift: float, definite: bool = False):
    """x -> (A - shift*I)^(-1) x for the band matrix A in MatrixOp layout,
    or None when ``definite`` and A - shift*I is not Hermitian positive
    definite (see _schur_solver).

    A - shift*I is factored as a block tridiagonal matrix of bw x bw
    blocks, with rows past n padded out as an identity.  Block row t is
    then band columns t*bw ... t*bw + bw - 1, and its entry (a, c) in
    block column t + o is band slot bw + a - c - o*bw of column t*bw + a.
    """
    bw = (band.shape[0] - 1) // 2
    n = band.shape[1]
    count = -(-n // bw)
    padded = np.zeros((2 * bw + 1, count * bw), dtype=band.dtype)
    padded[:, :n] = band
    padded[bw, :n] -= shift
    padded[bw, n:] = 1.0
    blocks = padded.reshape(2 * bw + 1, count, bw)
    row = np.arange(bw)[:, None]
    slot = bw + row - np.arange(bw)
    lower, diag, upper = (
        np.where(((s >= 0) & (s <= 2 * bw))[..., None],
                 blocks[np.clip(s, 0, 2 * bw), :, row], 0.0).transpose(2, 0, 1)
        for s in (slot + bw, slot, slot - bw))
    return _schur_solver(diag, lower, upper, definite)


def _arnoldi(solve, n: int, dtype, sizes):
    """Arnoldi factorizations of the operator ``solve`` on C^n (or R^n)
    from a fixed start vector: for each basis size m of the increasing
    ``sizes``, the (m+1) x m Hessenberg matrix, whose last row is zero
    once m = n (the basis spans the space and the factorization is
    exact)."""
    # a fixed start vector keeps reports reproducible within a process
    start = np.random.default_rng(0).standard_normal(n)
    basis = (start / np.linalg.norm(start)).astype(dtype)[None]
    hess = np.zeros((1, 0), dtype=dtype)
    m = 0
    for size in sizes:
        # grown per size, so memory follows the basis actually built
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
                if not norm > 0:  # its squares underflowed, or it is NaN
                    raise FloatingPointError(
                        f"Krylov vector {j + 1} has norm {norm}")
                basis[j + 1] = w / norm
        m = size
        yield hess


def _largest_ritz(hess: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k Ritz values of largest modulus of an (m+1) x m Arnoldi
    factorization, and their residuals |h[m, m-1] * y[m-1]|."""
    m = hess.shape[1]
    theta, vectors = np.linalg.eig(hess[:m])
    largest = np.argsort(-np.abs(theta), kind="stable")[:k]
    return theta[largest], np.abs(hess[m, m - 1] * vectors[m - 1, largest])


def _largest_ritz_values(solve, n: int, k: int, dtype) -> np.ndarray | None:
    """The k eigenvalues of largest modulus of the operator ``solve``, or
    None when they do not converge before the basis reaches its cap.

    The basis grows to 2k vectors, then by KRYLOV_STEP or an eighth at a
    time, and the Ritz values are checked at each of those sizes: they
    have converged when every residual is at most KRYLOV_RTOL*|theta|.
    The basis stops at KRYLOV_CAP*k vectors, or at n.  The sizes checked
    depend on n and k alone.
    """
    cap = min(n, KRYLOV_CAP * k)
    sizes = [min(cap, 2 * k)]
    while sizes[-1] < cap:
        sizes.append(min(cap, sizes[-1] + max(KRYLOV_STEP, sizes[-1] // 8)))
    for hess in _arnoldi(solve, n, dtype, sizes):
        theta, residual = _largest_ritz(hess, k)
        if np.all(residual <= KRYLOV_RTOL * np.abs(theta)):
            return theta
    return None


def _floor_tolerance(x: float) -> float:
    return FLOOR_RTOL * max(1.0, abs(x))


def _hermitian_floor(herm: np.ndarray) -> float | None:
    """A point x below every eigenvalue of the Hermitian band ``herm``, real
    or complex, certified by a Cholesky factorization of herm - x*I in its
    dtype, and within about _floor_tolerance of the lowest; None when the
    band is not finite or even the Gershgorin bound fails the test.

    The lowest eigenvalue lies between x, which starts a little below
    the Gershgorin bound, and an upper bound hi, which starts at the least
    diagonal entry.  After each new factorization, FLOOR_KRYLOV Arnoldi
    steps on (herm - x*I)^(-1) give its largest Ritz value theta with
    residual r: x + 1/theta is an upper bound, and x + 1/(theta + r)
    estimates the eigenvalue from below.  That estimate, at most
    hi - tolerance/2, is tested next.  Where the test passes it becomes x;
    where it fails it becomes hi, and the midpoint of x and hi is tested
    next.  The search stops when hi - x is within the tolerance or after
    FLOOR_FACTORS factorizations; x is certified either way.
    """
    n, bw = herm.shape[1], (herm.shape[0] - 1) // 2
    # Gershgorin radii; the least diagonal entry is a Rayleigh quotient,
    # so an upper bound
    radius = np.abs(herm).sum(axis=0) - np.abs(herm[bw])
    lo = float((herm[bw].real - radius).min())
    if not math.isfinite(lo):  # a non-finite band: the dense fallback fails
        return None
    lo -= _floor_tolerance(lo)
    hi = float(herm[bw].real.min())
    solve = _band_solver(herm, lo, definite=True)
    if solve is None:
        return None
    for _ in range(FLOOR_FACTORS - 1):
        if solve is not None and hi - lo > _floor_tolerance(hi):
            hess = next(_arnoldi(solve, n, herm.dtype, [min(n, FLOOR_KRYLOV)]))
            theta, residual = (float(v[0].real)
                               for v in _largest_ritz(hess, 1))
            hi = min(hi, lo + 1.0 / theta)
            trial = min(lo + 1.0 / (theta + residual),
                        hi - 0.5 * _floor_tolerance(hi))
        if hi - lo <= _floor_tolerance(hi):
            break
        solve = _band_solver(herm, trial, definite=True)
        if solve is None:
            hi, trial = trial, 0.5 * (lo + trial)
        else:
            lo = trial
    return lo


def _certified_shift_invert(herm: np.ndarray, skew: np.ndarray,
                            levels: int) -> Spectrum | None:
    """Lowest ``levels`` eigenvalues of S = herm + skew, the bands of its
    Hermitian and skew-Hermitian parts, by shift-invert Arnoldi; None
    when k = levels + KRYLOV_EXTRA is n - 1 or more, the floor lo cannot
    be certified, the Ritz values do not converge or the result cannot be
    certified.

    (S - sigma*I)^(-1) is applied through one band factorization
    (_band_solver), and its k eigenvalues theta of largest modulus give
    the k eigenvalues sigma + 1/theta of S nearest sigma.  Every
    eigenvalue has Re >= lo, a certified floor under the Hermitian part
    (_hermitian_floor), and |Im| <= s, a Gershgorin bound on the skew
    part.
    The shift sigma sits below lo, so herm - sigma*I >= SHIFT_DEPTH*s*I
    while ||skew|| <= s: the factored matrix has a positive definite
    Hermitian part and needs no pivoting.
    Every eigenvalue left out lies at distance >= r_k (the largest returned
    distance), hence has (Re - sigma)^2 >= r_k^2 - s^2.  When that exceeds
    (x_L - sigma)^2, x_L the real part of the last kept level, no
    eigenvalue left out can sort before the kept ones.
    """
    n = herm.shape[1]
    k = levels + KRYLOV_EXTRA
    if k >= n - 1:
        return None
    lo = _hermitian_floor(herm)
    if lo is None:
        return None
    s = float(np.abs(skew).sum(axis=0).max())
    sigma = lo - SHIFT_DEPTH * max(s, _floor_tolerance(lo))
    theta = _largest_ritz_values(_band_solver(herm + skew, sigma), n, k,
                                 herm.dtype)
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

    kind="general" solves A; kind="selfadjoint-weighted" requires
    S = W^(1/2) A W^(-1/2) to be Hermitian (A equal to its weighted
    adjoint) within a small relative slack, and returns real eigenvalues.
    Either kind picks its solver by grid size.  Up to DIRECT_MAX_N it
    solves the dense problem at once ("dense"), in its two parity sectors
    when the band equals its reversal: that finds every eigenvalue, so
    none can be missed; the self-adjoint kind solves the Hermitian part
    of S.  Above it, both kinds run the same certified
    shift-invert Arnoldi on the band of S ("shift-invert", see
    _certified_shift_invert), the self-adjoint kind keeping the real
    parts, and fall back to the dense solve ("dense-fallback") when that
    is impossible (levels close to n), unconverged or uncertified; above
    DENSE_MAX_N the dense solve raises LinAlgError instead.
    """
    levels = int(levels)
    if not 0 < levels <= a.grid.n:
        raise ValueError(f"levels must be between 1 and n = {a.grid.n}")
    if kind not in ("general", "selfadjoint-weighted"):
        raise ValueError(f"unknown eigensolver kind {kind!r}")
    hermitian = kind == "selfadjoint-weighted"
    if hermitian:
        herm, skew = _hermitian_and_skew(a)
        # largest entries: a sum of squares would overflow on a huge grid;
        # S - S^H = 2*skew, which is A - A^+_w itself at uniform weights
        gap = 2.0 * np.abs(skew).max()
        norm = np.abs(a.matrix).max()
        if gap > SELFADJOINT_RTOL * max(norm, 1.0):
            raise ValueError("matrix is not self-adjoint under the grid "
                             f"inner product (gap {gap:.3e}, norm {norm:.3e})")
        a = MatrixOp(herm, a.grid)
    if a.grid.n <= DIRECT_MAX_N:
        return _dense_spectrum(a, levels, "dense", hermitian, by_parity=True)
    if not hermitian:
        herm, skew = _hermitian_and_skew(a)
    spectrum = (_certified_shift_invert(herm, skew, levels)
                or _dense_spectrum(a, levels, "dense-fallback", hermitian))
    if hermitian:  # the gate above bounds the skew part
        return Spectrum(spectrum.eigenvalues.real, spectrum.solver)
    return spectrum


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
