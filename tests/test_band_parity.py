"""The banded numeric core against the dense oracles it replaced.

Every numeric check (probe residual, interior row residual, low-lying
spectrum) is recomputed densely on grids of n <= 501 for the flat, the
deformed and the broken-reality (omega^2 < 4*lambda*delta) models, and
must agree to 1e-10 relative.  The general eigensolver's two paths are
checked against each other: the direct dense solve that small grids take
and certified ARPACK on the sweep's grids, and the fallback from ARPACK
to the dense solve above DIRECT_MAX_N is exercised and named.  numpy's
dense solve is checked against scipy's on the sweep's grids, and child
processes show which scipy modules each solver path loads.  The banded
assembly and transforms are checked to stay O(n) in memory.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from swanson.checks import (
    PROBE_CENTERS,
    PROBE_WIDTH,
    _hamiltonian_for,
    _metric_for,
    check_numeric_residual,
    check_spectrum,
)
from swanson.grids import (
    DIRECT_MAX_N,
    _certified_shift_invert,
    assemble_matrix,
    build_grid,
    eigs,
    gaussian_state,
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

from oracles import dense_assemble, dense_eigs, dense_numeric_residual

PARITY_RTOL = 1e-10

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
        _, h0 = h0_momentum(params)
        hermitized = h0.conjugate_gaussian(gaussian_alpha(params) / 2.0)
        return dense_eigs(dense_assemble(hermitized, grid), grid,
                          "selfadjoint-weighted", levels)
    return dense_eigs(dense_assemble(_hamiltonian_for(params), grid), grid,
                      "general", levels)


@pytest.mark.parametrize("case", sorted(CASES))
def test_spectrum_matches_dense(case):
    params, grid = CASES[case]
    result, spectrum = check_spectrum(params, grid, 4, 6)
    expected = _dense_spectrum(params, grid, 6)
    np.testing.assert_allclose(spectrum.eigenvalues, expected,
                               rtol=PARITY_RTOL, atol=PARITY_RTOL)
    ladder = ladder_obstruction(params) is None
    solver = "eig_banded" if ladder else "arpack-shift-invert"
    assert result.details["solver"] == spectrum.solver == solver


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


def test_uncertified_spectrum_falls_back_to_dense():
    # omega < lambda + delta with a steep metric: the half-metric image is
    # far from normal on this grid, so the Gershgorin bound on the
    # imaginary parts is too wide to certify ARPACK's values
    params = make_params(1.0, 1.3, -0.2)
    grid = build_grid(301, 10.0)
    assert grid.n > DIRECT_MAX_N
    operator = _half_metric_image(params, grid)
    assert _certified_shift_invert(operator, 6) is None
    result, spectrum = check_spectrum(params, grid, 4, 6)
    assert result.details["solver"] == spectrum.solver == "dense-fallback"
    expected = dense_eigs(operator.to_dense().real, grid, "general", 6)
    np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=PARITY_RTOL)


# The sweep-small-n grids: the suite grid (n = 201, p_max = 20) and the
# reality study's coarse grids at 1/3 and 2/3 of it.  At beta = 0.01 and
# 0.03 ARPACK cannot certify these grids, so there is nothing to compare.
SWEEP_GRIDS = ((69, 20.0 / 3.0), (135, 40.0 / 3.0), (201, 20.0))


@pytest.mark.parametrize("beta", (0.1, 0.3, 1.0, 3.0))
@pytest.mark.parametrize("n, p_max", SWEEP_GRIDS)
def test_direct_dense_matches_certified_arpack(beta, n, p_max):
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
        certified = _certified_shift_invert(operator, levels)
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


SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_MODULES = ("scipy", "scipy.linalg", "scipy.sparse")
LOADED_SCIPY = """
import sys
from swanson.cli import main
code = main(sys.argv[1:] + ["--out", "{out}"])
print(code, *(name in sys.modules for name in {modules}))
"""


def _child(args):
    done = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


@pytest.mark.parametrize("argv, loaded", [
    # every grid takes the dense general path, solved by numpy
    pytest.param(["sweep", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--pmax", "20", "--n", "201", "--beta-grid", "0.01,1"], (),
                 id="small-sweep"),
    # the hermitized spectrum needs eig_banded (p_max 6: at the default 10
    # the n = 201 grid misses the ladder by more than its 1e-4 tolerance)
    pytest.param(["verify", "--omega", "1", "--lambda", "-0.5", "--delta", "0.5",
                  "--pmax", "6", "--n", "201"], ("scipy", "scipy.linalg"),
                 id="flat-verify"),
    # grids above DIRECT_MAX_N take certified ARPACK
    pytest.param(["verify", "--omega", "1.3", "--lambda", "0.2", "--delta", "-0.4",
                  "--beta", "0.05", "--pmax", "40", "--n", "501"], SCIPY_MODULES,
                 id="deformed-verify"),
])
def test_krylov_stack_loads_only_above_the_direct_size(argv, loaded, tmp_path):
    script = LOADED_SCIPY.format(out=tmp_path / "report.json",
                                 modules=SCIPY_MODULES)
    assert _child(["-c", script, *argv]) == (
        ["0"] + [str(name in loaded) for name in SCIPY_MODULES])


def test_importing_the_cli_loads_no_scipy():
    script = ("import sys, swanson.cli; "
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _child(["-c", script]) == ["[]"]


def test_arpack_failure_falls_back_to_dense(monkeypatch):
    params, grid = CASES["deformed"]

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", [], [])

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    result, spectrum = check_spectrum(params, grid, 4, 3)
    assert result.details["solver"] == "dense-fallback"
    np.testing.assert_allclose(spectrum.eigenvalues,
                               _dense_spectrum(params, grid, 3),
                               rtol=PARITY_RTOL, atol=PARITY_RTOL)


def test_levels_beyond_grid_rejected():
    grid = build_grid(11, 3.0)
    a = assemble_matrix(_hamiltonian_for(CASES["flat"][0]), grid)
    with pytest.raises(ValueError, match="levels"):
        eigs(a, "general", 12)
    assert len(eigs(a, "general", 11).eigenvalues) == 11


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

