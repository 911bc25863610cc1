"""The banded numeric core against the dense oracles it replaced.

Every numeric check (probe residual, interior row residual, low-lying
spectrum) is recomputed densely on grids of n <= 501 for the flat, the
deformed and the broken-reality (omega^2 < 4*lambda*delta) models, and
must agree to 1e-10 relative.  The general eigensolver's two paths are
checked against each other: the direct dense solve that small grids take
and the certified shift-invert Arnoldi on the sweep's grids.  Above
DIRECT_MAX_N its fallback to the dense solve is exercised and named for
each way it can fail: Ritz values that do not converge, too little room
beyond the levels and an uncertified result.  The self-adjoint kind
runs there on non-uniform weights, where S has a rounding-sized skew
part.  The kernels under
shift-invert are checked against dense solves: the band product, the
Schur-complement band solve, whose bits do not depend on the memory
order of its stacks, and the certified floor under the Hermitian part
that places the shift, also after a failed trial.  numpy's dense solve
is checked against scipy's on the sweep's grids, and child processes show
that no command loads any scipy module, numpy.random or hashlib's OpenSSL
module.
The direct solve's two parity sectors are checked against the explicit
even/odd basis and against the full solve on the sweep's grids, the
hermitized flat operator and the smallest grids, the fallback's against
the full solve on a nearly normal grid; a band off parity is solved
whole.
The banded assembly and transforms are checked to stay O(n) in memory,
and the Arnoldi basis to be held once and to stay below n vectors; a
whole-space request takes the dense path, which is refused above
DENSE_MAX_N without building a basis.
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from swanson.checks import (
    PROBE_CENTERS,
    PROBE_WIDTH,
    _hamiltonian_for,
    _metric_for,
    _spectrum_problem,
    check_numeric_residual,
    check_spectrum,
)
from swanson.cli import main
from swanson.grids import (
    DENSE_MAX_N,
    DIRECT_MAX_N,
    KRYLOV_EXTRA,
    SCHUR_ROWS,
    SHIFT_DEPTH,
    MatrixOp,
    _arnoldi,
    _band_solver,
    _certified_shift_invert,
    _floor_tolerance,
    _hermitian_and_skew,
    _hermitian_floor,
    _largest_ritz,
    _parity_sectors,
    _schur_solver,
    assemble_matrix,
    build_grid,
    derivative_matrix,
    eigs,
    gaussian_state,
    peak_bytes,
    similarity_transform,
    weighted_adjoint,
)
from swanson.model import (
    gaussian_alpha,
    h0_momentum,
    ladder_obstruction,
    make_params,
    with_beta,
)

from oracles import (
    PARITY_RTOL,
    dense_assemble,
    dense_eigs,
    dense_numeric_residual,
    from_dense,
    padded_arnoldi,
)

CASES = {
    "flat": (make_params(1.0, -0.5, 0.5), build_grid(501, 10.0)),
    "flat_off_regime": (make_params(2.0, 0.1, 0.4), build_grid(301, 8.0)),
    "deformed": (make_params(1.3, 0.2, -0.4, beta=0.05),
                 build_grid(501, 40.0 / 3.0, 0.05)),
    "deformed_reduced": (make_params(1.0, -0.5, 0.5, beta=0.1),
                         build_grid(301, 20.0, 0.1)),
    "broken_identity_metric": (make_params(0.5, 0.45, 0.45), build_grid(301, 10.0)),
    "broken_descending": (make_params(1.0, 0.6, 0.5), build_grid(301, 10.0)),
    "broken_ascending": (make_params(1.0, -0.9, -0.6), build_grid(301, 10.0)),
}


def _dense_spectrum(params, grid, levels):
    """The dense path: the hermitized operator's Hermitian eigenvalues
    where the ladder oracle applies, else the general eigenvalues of the
    untransformed operator."""
    if ladder_obstruction(params) is None:
        h0 = h0_momentum(params)
        hermitized = h0.conjugate_gaussian(gaussian_alpha(params) / 2.0)
        return dense_eigs(dense_assemble(hermitized, grid), grid,
                          "selfadjoint-weighted", levels)
    return dense_eigs(dense_assemble(_hamiltonian_for(params), grid), grid,
                      "general", levels)


def _levels(result):
    """The complex levels a spectrum check recorded."""
    return np.array(result.details["re"]) + 1j * np.array(result.details["im"])


@pytest.mark.parametrize("case", sorted(CASES))
def test_spectrum_matches_dense(case):
    params, grid = CASES[case]
    result = check_spectrum(params, grid, 4, 6)
    expected = _dense_spectrum(params, grid, 6)
    np.testing.assert_allclose(_levels(result), expected,
                               rtol=PARITY_RTOL, atol=PARITY_RTOL)
    # every case is above DIRECT_MAX_N, ladder (Hermitian) or not
    assert result.details["solver"] == "shift-invert"


@pytest.mark.parametrize("case", sorted(CASES))
def test_numeric_residual_matches_dense(case):
    params, grid = CASES[case]
    result = check_numeric_residual(params, grid)
    probes = [gaussian_state(grid, c, PROBE_WIDTH) for c in PROBE_CENTERS]
    probe_residuals, row_residual = dense_numeric_residual(
        _hamiltonian_for(params), _metric_for(params), grid, 4, probes)
    np.testing.assert_allclose(result.details["probe_residuals"], probe_residuals,
                               rtol=PARITY_RTOL, atol=0.0)
    np.testing.assert_allclose(result.details["interior_row_residual"],
                               row_residual, rtol=PARITY_RTOL, atol=0.0)


def _half_metric_image(params, grid):
    """The operator check_spectrum hands to the general eigensolver."""
    return similarity_transform(assemble_matrix(_hamiltonian_for(params), grid),
                                _metric_for(params) / 2.0)


def test_uncertified_spectrum_falls_back_to_dense(sector_calls):
    # omega < lambda + delta with a steep metric: the half-metric image is
    # far from normal on this grid, so the Gershgorin bound on the
    # imaginary parts is too wide to certify the shift-invert values.  Its
    # levels are not pinned: sigma_min(A - lambda*I) is below
    # 1e-50*eps*||A||_F at lambda = 0, -1e5, -1e6 and 1e5i alike (bounded
    # by band solves at 400 digits), so the eps*||A||_F-pseudospectrum
    # covers that whole region and every backward-stable solve, folded or
    # whole, may return any point of it.
    params = make_params(1.0, 1.3, -0.2)
    grid = build_grid(301, 10.0)
    assert grid.n > DIRECT_MAX_N
    operator = _half_metric_image(params, grid)
    assert _certified_shift_invert(*_hermitian_and_skew(operator), 6) is None
    result = check_spectrum(params, grid, 4, 6)
    assert result.details["solver"] == "dense-fallback"
    levels = _levels(result)
    assert levels.shape == (6,) and np.all(np.isfinite(levels))
    assert len(sector_calls) == 1


def test_nearly_normal_fallback_matches_the_full_solve(sector_calls):
    # P1 at beta = 0.01 cannot be certified on this grid, yet its
    # half-metric image is nearly normal: the folded fallback levels and
    # the full matrix's agree within eps*||A||_F, the backward error of
    # either solve (0.33 of it measured)
    params = make_params(1.0, -0.5, 0.5, beta=0.01)
    operator = _half_metric_image(params, build_grid(301, 20.0, 0.01))
    assert operator.grid.n > DIRECT_MAX_N
    backward = np.finfo(float).eps * np.linalg.norm(operator.matrix)
    spectrum = eigs(operator, "general", 6)
    assert spectrum.solver == "dense-fallback" and len(sector_calls) == 1
    np.testing.assert_allclose(
        spectrum.eigenvalues,
        dense_eigs(operator.to_dense(), operator.grid, "general", 6),
        rtol=0.0, atol=backward)


# The sweep-small-n grids: the suite grid (n = 201, p_max = 20) and the
# reality study's coarse grids at 1/3 and 2/3 of it.  At beta = 0.01 and
# 0.03 shift-invert cannot certify these grids, so there is nothing to
# compare.
SWEEP_GRIDS = ((69, 20.0 / 3.0), (135, 40.0 / 3.0), (201, 20.0))


@pytest.mark.parametrize("beta", (0.1, 0.3, 1.0, 3.0))
@pytest.mark.parametrize("n, p_max", SWEEP_GRIDS)
def test_direct_dense_matches_certified_shift_invert(beta, n, p_max):
    params = with_beta(make_params(1.0, -0.5, 0.5), beta)
    operator = _half_metric_image(params, build_grid(n, p_max, beta))
    # A backward-stable dense solve returns the eigenvalues of A + E with
    # ||E|| of order eps*||A||, and these levels are well conditioned
    # (eigenvector condition numbers below 2), so that is its absolute
    # accuracy as well.  It binds only at beta = 3 on n = 201, where
    # ||A||_F is 2e8 times the ground level and the two solvers differ
    # by 2e-9 relative, 0.05 eps*||A||_F.
    backward = np.finfo(float).eps * np.linalg.norm(operator.matrix)
    for levels in (3, 6):
        direct = eigs(operator, "general", levels)
        certified = _certified_shift_invert(*_hermitian_and_skew(operator),
                                            levels)
        assert direct.solver == "dense" and certified is not None
        np.testing.assert_allclose(direct.eigenvalues, certified.eigenvalues,
                                   rtol=PARITY_RTOL, atol=backward)


@pytest.mark.parametrize("beta", (0.01, 0.03, 0.1, 0.3, 1.0, 3.0))
@pytest.mark.parametrize("n, p_max", SWEEP_GRIDS)
def test_numpy_and_scipy_dense_solves_agree(beta, n, p_max):
    # The direct path calls numpy's *geev; scipy's is the reference, and
    # the two carry separate OpenBLAS builds.  On these nearly normal
    # grids their lowest levels agree within eps*||A||_F: bit for bit at
    # one BLAS thread, within 0.163 of the bound at two.  Far-from-normal
    # grids (omega < lambda + delta) are outside this bound: see
    # test_uncertified_spectrum_falls_back_to_dense.
    params = with_beta(make_params(1.0, -0.5, 0.5), beta)
    operator = _half_metric_image(params, build_grid(n, p_max, beta))
    dense = operator.to_dense().real
    assert not np.any(operator.matrix.imag)
    backward = np.finfo(float).eps * np.linalg.norm(operator.matrix)
    np.testing.assert_allclose(dense_eigs(dense, operator.grid, "general", 6),
                               np.sort_complex(scipy.linalg.eigvals(dense))[:6],
                               rtol=0.0, atol=backward)


@pytest.fixture
def sector_calls(monkeypatch):
    """Bands that eigs solved by parity sectors, recorded as it runs."""
    calls = []

    def record(band):
        calls.append(band)
        return _parity_sectors(band)

    monkeypatch.setattr("swanson.grids._parity_sectors", record)
    return calls


def _parity_basis(n):
    """The orthonormal even basis e_c, (e_(c+k) + e_(c-k))/sqrt(2) in its
    first c + 1 columns, then the odd one (e_(c+k) - e_(c-k))/sqrt(2)."""
    c = (n - 1) // 2
    basis = np.zeros((n, n))
    basis[c, 0] = 1.0
    k = np.arange(1, c + 1)
    basis[c + k, k] = basis[c - k, k] = basis[c + k, c + k] = np.sqrt(0.5)
    basis[c - k, c + k] = -np.sqrt(0.5)
    return basis


@pytest.mark.parametrize("beta", (0.01, 0.03, 0.1, 0.3, 1.0, 3.0))
@pytest.mark.parametrize("n, p_max", SWEEP_GRIDS)
def test_parity_sectors_match_the_full_solve(beta, n, p_max, sector_calls):
    # Each of the 18 sweep-small-n solves: the folded levels and the full
    # matrix's agree within eps*||A||_F, the backward error of either
    # solve (at most 0.41 of it measured, on the lowest six levels).
    params = with_beta(make_params(1.0, -0.5, 0.5), beta)
    operator = _half_metric_image(params, build_grid(n, p_max, beta))
    assert np.array_equal(operator.matrix, operator.matrix[::-1, ::-1])
    backward = np.finfo(float).eps * np.linalg.norm(operator.matrix)
    spectrum = eigs(operator, "general", 6)
    assert spectrum.solver == "dense" and len(sector_calls) == 1
    np.testing.assert_allclose(
        spectrum.eigenvalues,
        dense_eigs(operator.to_dense(), operator.grid, "general", 6),
        rtol=0.0, atol=backward)


@pytest.mark.parametrize("n, p_max", ((69, 6.0), (201, 6.0), (251, 10.0)))
def test_hermitian_parity_sectors_match_eigvalsh(n, p_max, sector_calls):
    # every level, levels = n: a Hermitian eigenvalue moves by at most the
    # norm of a perturbation, and each solve is backward stable (at most
    # 1.42 eps*||S||_F apart measured)
    params = make_params(1.0, -0.5, 0.5)
    h0 = h0_momentum(params)
    a = assemble_matrix(h0.conjugate_gaussian(gaussian_alpha(params) / 2.0),
                        build_grid(n, p_max))
    herm, _ = _hermitian_and_skew(a)
    spectrum = eigs(a, "selfadjoint-weighted", n)
    assert spectrum.solver == "dense" and len(sector_calls) == 1
    assert spectrum.eigenvalues.shape == (n,)
    np.testing.assert_allclose(
        spectrum.eigenvalues,
        np.linalg.eigvalsh(MatrixOp(herm, a.grid).to_dense()),
        rtol=0.0, atol=4.0 * np.finfo(float).eps * np.linalg.norm(herm))


@pytest.mark.parametrize("fd_order", (2, 4))
@pytest.mark.parametrize("n", (5, 7))
def test_parity_sectors_on_the_smallest_grids(n, fd_order, sector_calls):
    # here the reflected corner k + l <= bw covers all of each sector
    params = make_params(1.3, 0.2, -0.4, beta=0.05)
    grid = build_grid(n, 2.0, 0.05)
    operator = similarity_transform(
        assemble_matrix(_hamiltonian_for(params), grid, fd_order),
        _metric_for(params) / 2.0)
    dense = operator.to_dense()
    basis = _parity_basis(n)
    folded = basis.T @ dense @ basis
    even, odd = _parity_sectors(operator.matrix)
    c = (n - 1) // 2
    scale = np.finfo(float).eps * np.linalg.norm(dense)
    np.testing.assert_allclose(even, folded[:c + 1, :c + 1], atol=scale)
    np.testing.assert_allclose(odd, folded[c + 1:, c + 1:], atol=scale)
    np.testing.assert_allclose(folded[:c + 1, c + 1:], 0.0, atol=scale)
    spectrum = eigs(operator, "general", n)
    assert spectrum.solver == "dense" and len(sector_calls) == 1
    np.testing.assert_allclose(spectrum.eigenvalues,
                               dense_eigs(dense, grid, "general", n),
                               rtol=0.0, atol=8.0 * scale)


def test_band_off_parity_is_solved_whole(sector_calls):
    params = with_beta(make_params(1.0, -0.5, 0.5), 0.3)
    operator = _half_metric_image(params, build_grid(135, 40.0 / 3.0, 0.3))
    operator.matrix[1, 40] *= 1.0 + 1e-12
    spectrum = eigs(operator, "general", 6)
    assert spectrum.solver == "dense" and sector_calls == []
    np.testing.assert_array_equal(
        spectrum.eigenvalues,
        dense_eigs(operator.to_dense(), operator.grid, "general", 6))


def test_parity_sectors_find_the_closed_form_ground_level(tmp_path):
    # omega < lambda + delta: the full n = 101 solve of this far-from-normal
    # half-metric image returned -463.4 +- 62.6i.  The closed form of the
    # deformed ladder (Kempf, Mangano & Mann, Phys. Rev. D 52, 1108, 1995)
    # with K = m*hbar*omega*(omega - lambda - delta),
    # G = (omega^2 - 4*lambda*delta)/(2K) and
    # nu = 1/2 + sqrt(1/4 + (2G - omega*beta)/(K*beta^2)) is
    # E_0 = (beta*K/2)*nu^2 - G/beta + omega/2 = 0.10247.
    omega, lam, delta, beta = 1.0, 0.6, 0.399, 0.5
    k = omega * (omega - lam - delta)
    g = (omega ** 2 - 4.0 * lam * delta) / (2.0 * k)
    nu = 0.5 + np.sqrt(0.25 + (2.0 * g - omega * beta) / (k * beta ** 2))
    ground = beta * k / 2.0 * nu ** 2 - g / beta + omega / 2.0
    out = tmp_path / "report.json"
    main(["verify", "--omega", "1", "--lambda", "0.6", "--delta", "0.399",
          "--beta", "0.5", "--n", "101", "--out", str(out)])
    report = json.loads(out.read_text())
    checks = {check["name"]: check for check in report["checks"]}
    assert checks["spectrum"]["details"]["solver"] == "dense"
    assert report["spectra"]["spectrum"]["im"][0] == 0.0
    assert abs(report["spectra"]["spectrum"]["re"][0] - ground) < 1e-3
    assert checks["convergence_reality"]["passed"]


SRC = Path(__file__).resolve().parent.parent / "src"
LOADED_SCIPY = """
import sys
from swanson.cli import main
code = main(sys.argv[1:] + ["--out", "{out}"])
print(code, sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def _child(args):
    done = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("argv", [
    # every grid takes the dense general path
    pytest.param(["sweep", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--pmax", "20", "--n", "201", "--beta-grid", "0.01,1"],
                 id="small-sweep"),
    # the hermitized spectrum on a small grid: the dense Hermitian solve
    # (p_max 6: at the default 10 the n = 201 grid misses the ladder by
    # more than its 1e-4 tolerance)
    pytest.param(["verify", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--pmax", "6", "--n", "201"], id="flat-verify"),
    # the verify-flat workload: Hermitian shift-invert on n = 501..2001
    pytest.param(["verify", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--n", "2001"], id="flat-verify-large"),
    # general grids above DIRECT_MAX_N take certified shift-invert
    pytest.param(["verify", "--omega", "1.3", "--lambda", "0.2", "--delta", "-0.4",
                  "--beta", "0.05", "--pmax", "40", "--n", "501"],
                 id="deformed-verify"),
    pytest.param(["spectrum", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--beta", "0.1", "--pmax", "20", "--n", "401"],
                 id="deformed-spectrum"),
])
def test_no_command_loads_scipy(argv, tmp_path):
    script = LOADED_SCIPY.format(out=tmp_path / "report.json")
    assert _child(["-c", script, *argv]) == ["0", "[]"]


# A fresh process that runs these commands must not have numpy.random or
# hashlib's OpenSSL module (_hashlib) loaded by them: they add to every
# run's peak RSS, and the seeded draws and the Arnoldi start vector need
# neither.  The flat verify at n = 301 runs shift-invert Arnoldi (p_max 6,
# as for the flat-verify case above, so that every check passes).
LOADED_BY_MAIN = """
import sys
from swanson.cli import main
before = set(sys.modules)
codes = [main(argv + ["--out", "{out}"]) for argv in {argvs!r}]
print(*codes, sorted({{"numpy.random", "_hashlib"}} & (set(sys.modules) - before)))
"""


def test_commands_load_neither_numpy_random_nor_hashlib(tmp_path):
    p1 = ["--omega", "1", "--lambda", "-0.5", "--delta", "0.5"]
    argvs = [["verify", *p1, "--pmax", "6", "--n", "301"],
             ["verify", *p1, "--beta", "0.1", "--n", "401"],
             ["sweep", *p1, "--pmax", "20", "--n", "201",
              "--beta-grid", "0.01,1"]]
    script = LOADED_BY_MAIN.format(out=tmp_path / "report.json", argvs=argvs)
    assert _child(["-c", script]) == ["0", "0", "0", "[]"]


# Each module is imported from where it is defined, so importing one loads
# the swanson modules it builds on and no other, and none loads scipy.
LAYERS = {
    "algebra": ["algebra"],
    "model": ["algebra", "model"],
    "grids": ["algebra", "grids"],
    "checks": ["algebra", "checks", "grids", "model"],
    "cli": ["algebra", "checks", "cli", "grids", "model"],
}


@pytest.mark.parametrize("module", LAYERS)
def test_importing_a_module_loads_its_layers_only(module):
    script = (f"import sys, swanson.{module}; "
              "print(*sorted(m.removeprefix('swanson.') for m in sys.modules "
              "if m.startswith('swanson.'))); "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _child(["-c", script]) == [*LAYERS[module], "[]"]


def test_unconverged_ritz_values_fall_back_to_dense(monkeypatch):
    # no Ritz value meets a zero tolerance, so the basis reaches its cap
    params, grid = CASES["deformed"]
    monkeypatch.setattr("swanson.grids.KRYLOV_RTOL", 0.0)
    result = check_spectrum(params, grid, 4, 3)
    assert result.details["solver"] == "dense-fallback"
    np.testing.assert_allclose(_levels(result),
                               _dense_spectrum(params, grid, 3),
                               rtol=PARITY_RTOL, atol=PARITY_RTOL)


def test_zero_shift_depth_certifies_the_diagonal_operator(monkeypatch):
    # On a diagonal operator the Gershgorin bound is its lowest entry, 0.
    # The floor is certified strictly below it, so even at zero depth the
    # shifted band is nonsingular and shift-invert certifies the levels.
    grid = build_grid(261, 10.0)
    assert grid.n > DIRECT_MAX_N
    band = np.zeros((5, grid.n), dtype=complex)
    band[2] = np.arange(grid.n)
    operator = MatrixOp(band, grid)
    lo = _hermitian_floor(band)
    assert -_floor_tolerance(0.0) <= lo < 0.0
    monkeypatch.setattr("swanson.grids.SHIFT_DEPTH", 0.0)
    for kind in ("general", "selfadjoint-weighted"):
        spectrum = eigs(operator, kind, 3)
        assert spectrum.solver == "shift-invert"
        np.testing.assert_allclose(spectrum.eigenvalues, [0.0, 1.0, 2.0],
                                   rtol=0.0, atol=1e-10)


def _random_band(rng, bw, n, complex_entries):
    """A diagonally dominant band in MatrixOp layout, zero outside the
    matrix, and its dense image."""
    band = rng.standard_normal((2 * bw + 1, n))
    if complex_entries:
        band = band + 1j * rng.standard_normal((2 * bw + 1, n))
    band[bw] += 4.0 * bw + 4.0
    operator = MatrixOp(band, build_grid(n, 1.0))
    band[~operator.slot_cols()[1]] = 0.0
    return band, operator.to_dense()


# n = 5 and 13 fit in one interior of SCHUR_ROWS rows; 301 and 1201 are
# no multiple of an interior and its separator (SCHUR_ROWS + bw rows),
# and take three levels of Schur complements
@pytest.mark.parametrize("complex_entries", (False, True), ids=("real", "complex"))
@pytest.mark.parametrize("n", (5, 13, 301, 1201))
@pytest.mark.parametrize("bw", (1, 2))
def test_band_solve_matches_dense(bw, n, complex_entries):
    assert n < SCHUR_ROWS or n % (SCHUR_ROWS + bw)
    rng = np.random.default_rng(n + bw)
    band, dense = _random_band(rng, bw, n, complex_entries)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shift = 0.5
    expected = np.linalg.solve(dense - shift * np.eye(n), rhs)
    got = _band_solver(band, shift)(rhs)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", (5, 13, 301))
@pytest.mark.parametrize("bw", (1, 2))
def test_apply_and_row_sums_match_dense(bw, n):
    rng = np.random.default_rng(7 * n + bw)
    band, dense = _random_band(rng, bw, n, True)
    operator = MatrixOp(band, build_grid(n, 1.0))
    vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    product = operator.apply(vector)
    scale = np.abs(dense) @ np.abs(vector)
    assert np.all(np.abs(product - dense @ vector) <= 1e-14 * scale)
    np.testing.assert_allclose(operator.abs_row_sums(),
                               np.abs(dense).sum(axis=1), rtol=1e-15)
    # a row's product reads only the entries its band touches: the slots
    # outside the matrix, clipped onto an edge entry, are masked out
    for k in (0, n - 1):
        far = np.abs(np.arange(n) - k) > bw
        assert far.any()
        for bad in (np.inf, np.nan):
            poisoned = vector.copy()
            poisoned[k] = bad
            with np.errstate(invalid="ignore"):
                got = operator.apply(poisoned)
            np.testing.assert_array_equal(got[far], product[far])


def _flat_hermitian_band():
    """The Hermitian band of the hermitized P1 operator on the flat n = 501
    grid, real, and its grid."""
    params, grid = CASES["flat"]
    herm, _ = _hermitian_and_skew(
        assemble_matrix(_spectrum_problem(params)[0], grid))
    assert not np.any(herm.imag)
    return herm.real, grid


def test_schur_solve_is_independent_of_memory_order():
    # The stacks are cut from the dense matrix, padded out as an identity
    # to whole 2 x 2 blocks.  Stacked products round differently in other
    # memory orders; the solver starts from C order, so the same stacks in
    # C and in Fortran order give the same bits.
    herm, grid = _flat_hermitian_band()
    n, b = grid.n, 2
    count = -(-n // b)
    matrix = np.eye(count * b)
    matrix[:n, :n] = MatrixOp(herm, grid).to_dense() + np.eye(n)
    blocks = matrix.reshape(count, b, count, b)
    t = np.arange(count)
    diag = blocks[t, :, t]
    lower, upper = np.zeros_like(diag), np.zeros_like(diag)
    lower[1:] = blocks[t[1:], :, t[:-1]]
    upper[:-1] = blocks[t[:-1], :, t[1:]]
    rhs = np.random.default_rng(0).standard_normal(n)
    stacks = (diag, lower, upper)
    c_order = _schur_solver(*map(np.ascontiguousarray, stacks), False)(rhs)
    f_order = _schur_solver(*map(np.asfortranarray, stacks), False)(rhs)
    np.testing.assert_array_equal(f_order, c_order)


def test_hermitian_floor_recovers_from_a_failed_trial(monkeypatch):
    # The first Ritz value is halved, so its estimate 1/theta above the
    # floor is doubled and lands above the lowest eigenvalue, where the
    # Cholesky test fails; the search must still end on a certified floor.
    herm, grid = _flat_hermitian_band()
    calls, failed = [], []

    def overstated(hess, k):
        theta, residual = _largest_ritz(hess, k)
        calls.append(theta)
        return (0.5 * theta if len(calls) == 1 else theta), residual

    def recorded(band, shift, definite=False):
        solve = _band_solver(band, shift, definite)
        if solve is None:
            failed.append(shift)
        return solve

    monkeypatch.setattr("swanson.grids._largest_ritz", overstated)
    monkeypatch.setattr("swanson.grids._band_solver", recorded)
    lo = _hermitian_floor(herm)
    lowest = scipy.linalg.eigvalsh(MatrixOp(herm, grid).to_dense(),
                                   subset_by_index=(0, 0))[0]
    assert failed and min(failed) > lowest
    assert _band_solver(herm, lo, definite=True) is not None
    assert lo < lowest


@pytest.mark.parametrize("case", sorted(CASES))
def test_hermitian_floor_is_certified_and_tight(case):
    params, grid = CASES[case]
    operator = assemble_matrix(_spectrum_problem(params)[0], grid)
    if ladder_obstruction(params) is not None:
        operator = similarity_transform(operator, _metric_for(params) / 2.0)
    herm, _ = _hermitian_and_skew(operator)
    lowest = scipy.linalg.eigvalsh(MatrixOp(herm, grid).to_dense(),
                                   subset_by_index=(0, 0))[0]
    lo = _hermitian_floor(herm)
    assert lowest - _floor_tolerance(lowest) <= lo < lowest
    # the positive definite test is sharp: just above the lowest
    # eigenvalue the shifted band has no Cholesky factor
    assert _band_solver(herm, lo, definite=True) is not None
    above = lowest + 1e-6 * max(1.0, abs(lowest))
    assert _band_solver(herm, above, definite=True) is None


def test_levels_beyond_grid_rejected():
    grid = build_grid(11, 3.0)
    a = assemble_matrix(_hamiltonian_for(CASES["flat"][0]), grid)
    with pytest.raises(ValueError, match="levels"):
        eigs(a, "general", 12)
    assert len(eigs(a, "general", 11).eigenvalues) == 11


@pytest.mark.parametrize("spare, solver", [(0, "shift-invert"),
                                           (1, "dense-fallback")])
def test_shift_invert_needs_room_beyond_the_levels(spare, solver,
                                                   sector_calls):
    # shift-invert converges k = levels + KRYLOV_EXTRA eigenvalues from a
    # first basis of 2k vectors and needs that below n; at 2k >= n the
    # general solve falls back to dense.  At 2k = n - 1 the first basis
    # is the largest it builds.
    params = make_params(1.0, -0.5, 0.5, beta=0.1)
    grid = build_grid(261, 20.0, 0.1)
    assert grid.n > DIRECT_MAX_N
    operator = _half_metric_image(params, grid)
    levels = (grid.n - 1) // 2 - KRYLOV_EXTRA + spare
    spectrum = eigs(operator, "general", levels)
    assert spectrum.solver == solver
    # the image is J-symmetric, so the fallback solves it folded
    assert len(sector_calls) == spare
    np.testing.assert_allclose(
        spectrum.eigenvalues,
        dense_eigs(operator.to_dense(), grid, "general", levels),
        rtol=PARITY_RTOL, atol=PARITY_RTOL)


@pytest.mark.parametrize("levels, solver", [(6, "shift-invert"),
                                            (295, "dense-fallback")])
def test_selfadjoint_kind_on_nonuniform_weights(levels, solver,
                                                sector_calls):
    # A[i, j] = H[i, j]*sqrt(w_j/w_i) for a complex Hermitian pentadiagonal
    # H (a shifted oscillator), so S = W^(1/2) A W^(-1/2) is H up to
    # rounding: its skew part is of order eps*||H||, not 0, and the
    # certified solve on S = herm + skew returns complex values whose
    # real parts the self-adjoint kind keeps
    grid = build_grid(301, 20.0, 0.1)
    assert grid.n > DIRECT_MAX_N
    h = (np.diag(grid.points ** 2)
         - derivative_matrix(grid, 2).to_dense().real
         + 1j * derivative_matrix(grid, 1).to_dense().real)
    assert np.array_equal(h, h.conj().T)
    sqrt_w = np.sqrt(grid.weights)
    operator = from_dense(h * (sqrt_w / sqrt_w[:, None]), grid)
    assert np.any(_hermitian_and_skew(operator)[1])
    spectrum = eigs(operator, "selfadjoint-weighted", levels)
    assert spectrum.solver == solver
    # i*D_1 is odd under J, so the fallback solves the band whole
    assert sector_calls == []
    assert np.isrealobj(spectrum.eigenvalues)
    np.testing.assert_allclose(spectrum.eigenvalues,
                               np.linalg.eigvalsh(h)[:levels],
                               rtol=PARITY_RTOL)


def _shifted_solve(herm):
    """The shift-invert solve of a real Hermitian band with no skew part,
    at the shift _certified_shift_invert takes, and that shift."""
    lo = _hermitian_floor(herm)
    sigma = lo - SHIFT_DEPTH * _floor_tolerance(lo)
    return _band_solver(herm, sigma), sigma


def test_arnoldi_holds_one_basis():
    # a real band solve at n = 2001 driven to its last size: the basis is
    # allocated once for that size, where a basis grown by np.pad is held
    # twice while it grows, and the Hessenbergs keep their bits
    params = make_params(1.0, -0.5, 0.5)
    grid = build_grid(2001, 10.0)
    herm, _ = _hermitian_and_skew(
        assemble_matrix(_spectrum_problem(params)[0], grid))
    solve, _ = _shifted_solve(herm)
    sizes = [28, 44, 60, 76, 92, 112]
    expected = list(padded_arnoldi(solve, grid.n, herm.dtype, sizes))
    basis_bytes = (sizes[-1] + 1) * grid.n * herm.itemsize
    tracemalloc.start()
    try:
        for hess, reference in zip(_arnoldi(solve, grid.n, herm.dtype, sizes),
                                   expected, strict=True):
            np.testing.assert_array_equal(hess, reference)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * basis_bytes


def _unbuilt_arnoldi(*args):
    raise AssertionError("_arnoldi was called")


@pytest.mark.usefixtures("fresh_checks")
def test_whole_space_request_takes_the_dense_path(monkeypatch, sector_calls):
    # 2*(levels + KRYLOV_EXTRA) >= n: a first basis that large would span
    # the grid, so shift-invert declines before its floor search and the
    # levels come from the two parity sectors
    params, grid = make_params(1.0, -0.5, 0.5), build_grid(261, 10.0)
    levels = 251
    assert 2 * (levels + KRYLOV_EXTRA) >= grid.n > DIRECT_MAX_N
    monkeypatch.setattr("swanson.grids._arnoldi", _unbuilt_arnoldi)
    result = check_spectrum(params, grid, levels=levels)
    assert result.details["solver"] == "dense-fallback"
    assert len(sector_calls) == 1
    herm, _ = _hermitian_and_skew(
        assemble_matrix(_spectrum_problem(params)[0], grid))
    dense = np.sort(np.concatenate(
        [np.linalg.eigvalsh(sector) for sector in _parity_sectors(herm)]))
    # Weyl's bound on the levels of a backward-stable Hermitian solve
    bound = np.finfo(float).eps * np.linalg.norm(herm)
    assert np.all(np.abs(np.array(result.details["re"]) - dense[:levels])
                  <= bound)


@pytest.mark.parametrize("kind", ["general", "selfadjoint-weighted"])
@pytest.mark.parametrize("spare", [0, 1])
@pytest.mark.parametrize("n", [261, 301, 1001])
def test_no_arnoldi_basis_reaches_the_grid(n, spare, kind, monkeypatch):
    # levels + KRYLOV_EXTRA = (n - 1)/2 + spare: at spare = 0 the first
    # basis has n - 1 vectors, the most shift-invert builds, and one level
    # more sends the request to the dense path before any basis is built
    grid = build_grid(n, 10.0)
    operator = assemble_matrix(
        _spectrum_problem(make_params(1.0, -0.5, 0.5))[0], grid)
    requested = []

    def recorded(solve, n, dtype, sizes):
        requested.extend(sizes)
        return _arnoldi(solve, n, dtype, sizes)

    monkeypatch.setattr("swanson.grids._arnoldi", recorded)
    spectrum = eigs(operator, kind, (n - 1) // 2 - KRYLOV_EXTRA + spare)
    assert max(requested, default=0) < n
    assert bool(requested) == (spare == 0)
    assert spare == 0 or spectrum.solver == "dense-fallback"


@pytest.mark.parametrize("kind", ["general", "selfadjoint-weighted"])
def test_whole_space_request_above_dense_max_n_is_refused(kind, monkeypatch):
    grid = build_grid(4003, 10.0)
    assert grid.n > DENSE_MAX_N
    operator = assemble_matrix(
        _spectrum_problem(make_params(1.0, -0.5, 0.5))[0], grid)
    monkeypatch.setattr("swanson.grids._arnoldi", _unbuilt_arnoldi)
    with pytest.raises(np.linalg.LinAlgError,
                       match=f"n may be at most {DENSE_MAX_N}"):
        eigs(operator, kind, 2000)


def test_banded_assembly_and_transforms_are_linear_in_memory():
    params = make_params(1.3, 0.2, -0.4, beta=0.05)
    grid = build_grid(20001, 40.0, 0.05)
    h = _hamiltonian_for(params)
    exponent = _metric_for(params)
    tracemalloc.start()
    try:
        a = assemble_matrix(h, grid)
        transformed = similarity_transform(a, exponent)
        adjoint = weighted_adjoint(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transformed.matrix.shape == adjoint.matrix.shape == (5, 20001)
    assert peak < 50e6


P1_FLAGS = ["--omega", "1", "--lambda", "-0.5", "--delta", "0.5"]


@pytest.mark.usefixtures("fresh_checks")
@pytest.mark.parametrize("flags, levels", [
    (P1_FLAGS, 6),
    (["--omega", "1.3", "--lambda", "0.2", "--delta", "-0.4", "--beta",
      "0.05", "--pmax", "40"], 24)])
@pytest.mark.parametrize("n", [8001, 16001])
def test_peak_bytes_bounds_a_traced_spectrum_run(n, flags, levels):
    # above DENSE_MAX_N: the bands, the floor search and a shift-invert
    # basis that converges below its cap, hence the loose upper bound
    _assert_peak_bytes_bound(n, flags, levels, 0)


@pytest.mark.usefixtures("fresh_checks")
def test_peak_bytes_bounds_a_whole_space_dense_run():
    # 2*(levels + KRYLOV_EXTRA) >= n: the request takes the dense path,
    # whose two parity sectors the bound counts; the high levels miss the
    # ladder, so the run exits 1
    _assert_peak_bytes_bound(1001, P1_FLAGS, 900, 1)


def _assert_peak_bytes_bound(n, flags, levels, exit_code):
    tracemalloc.start()
    try:
        code = main(["spectrum", *flags, "--n", str(n), "--levels", str(levels)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == exit_code
    assert peak <= peak_bytes(n, levels) <= 4 * peak
