"""The banded numeric core against the dense oracles it replaced.

Every numeric check (probe residual, interior row residual, low-lying
spectrum) is recomputed densely on grids of n <= 501 for the flat, the
deformed and the broken-reality (omega^2 < 4*lambda*delta) models, and
must agree to 1e-10 relative.  The certified fallback to the dense
eigensolver is exercised and named, and the banded assembly and
transforms are checked to stay O(n) in memory.
"""

import tracemalloc

import numpy as np
import pytest
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
    has_real_ladder,
    make_params,
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
    if params.beta == 0.0 and has_real_ladder(params):
        _, h0 = h0_momentum(params)
        hermitized = h0.conjugate_gaussian(gaussian_alpha(params).exponent / 2.0)
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
    ladder = params.beta == 0.0 and has_real_ladder(params)
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


def test_uncertified_spectrum_falls_back_to_dense():
    # omega < lambda + delta with a steep metric: the half-metric image is
    # far from normal on this grid, so the Gershgorin bound on the
    # imaginary parts is too wide to certify ARPACK's values
    params = make_params(1.0, 1.3, -0.2)
    grid = build_grid(201, 10.0)
    result, spectrum = check_spectrum(params, grid, 4, 6)
    assert result.details["solver"] == spectrum.solver == "dense-fallback"
    operator = similarity_transform(assemble_matrix(_hamiltonian_for(params), grid),
                                    _metric_for(params), half=True)
    expected = dense_eigs(operator.to_dense().real, grid, "general", 6)
    np.testing.assert_allclose(spectrum.eigenvalues, expected, rtol=PARITY_RTOL)


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
    spec = _metric_for(params)
    tracemalloc.start()
    try:
        a = assemble_matrix(h, grid)
        transformed = similarity_transform(a, spec)
        adjoint = weighted_adjoint(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert transformed.matrix.shape == adjoint.matrix.shape == (5, 20001)
    assert peak < 50e6

