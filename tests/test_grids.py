"""Tests for grids, matrix assembly, weighted adjoints, metric transforms
and eigen-solutions."""

import math
import re

import numpy as np
import pytest
import scipy.linalg

import swanson.grids
from swanson.checks import NUMERIC_ERRORS, SuiteConfig, run_suite
from swanson.grids import (
    MatrixOp,
    _arnoldi,
    assemble_matrix,
    build_grid,
    derivative_matrix,
    eigs,
    gaussian_state,
    metric_log_diagonal,
    similarity_transform,
    weighted_adjoint,
    weighted_norm,
)
from swanson.model import (
    gaussian_alpha,
    h0_adjoint_expected,
    h0_momentum,
    h_deformed,
    h_quadratic,
    make_params,
    metric_exponent,
    oscillator_levels,
    with_beta,
)
from swanson.algebra import DiffOp, coeff_poly, identity_op, p_op

from oracles import (
    PARITY_RTOL,
    dense_assemble,
    from_dense,
    metric_diagonal,
    weighted_inner,
)

P1 = make_params(1.0, -0.5, 0.5)


class TestGrid:
    def test_flat_example(self):
        grid = build_grid(5, 2.0, 0.0)
        np.testing.assert_array_equal(grid.points, [-2, -1, 0, 1, 2])
        np.testing.assert_array_equal(grid.weights, np.ones(5))

    def test_deformed_weights(self):
        grid = build_grid(5, 2.0, 1.0)
        assert abs(grid.weights[-1] - 1.0 / 5.0) < 1e-15

    def test_parity_guard(self):
        with pytest.raises(ValueError, match="odd"):
            build_grid(4, 2.0)
        with pytest.raises(ValueError, match="odd"):
            build_grid(3, 2.0)

    def test_nonpositive_extent_rejected(self):
        with pytest.raises(ValueError, match="p_max"):
            build_grid(5, 0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_extent_rejected(self):
        with pytest.raises(ValueError, match="p_max"):
            build_grid(11, 1e200)
        with pytest.raises(ValueError, match="p_max"):
            build_grid(11, 1e100, 1.0)
        assert build_grid(11, 1e100).p_max == 1e100

    def test_symmetric_and_contains_zero_exactly(self):
        grid = build_grid(1001, 10.0)
        assert grid.points[500] == 0.0
        np.testing.assert_array_equal(grid.points, -grid.points[::-1])
        assert np.all(grid.weights > 0)


class TestDerivativeMatrix:
    def test_interior_antisymmetry_and_constants(self):
        grid = build_grid(41, 4.0)
        d1 = derivative_matrix(grid, 1, 2).to_dense()
        interior = d1[5:-5]
        np.testing.assert_allclose((interior + d1.T[5:-5]), 0.0, atol=1e-16)
        np.testing.assert_allclose(interior @ np.ones(41), 0.0, atol=1e-14)

    def test_first_derivative_of_square_is_exact_inside(self):
        grid = build_grid(41, 4.0)
        d1 = derivative_matrix(grid, 1, 2).to_dense()
        values = (d1 @ grid.points ** 2).real
        np.testing.assert_allclose(values[1:-1], 2 * grid.points[1:-1], atol=1e-12)

    @pytest.mark.parametrize("order,fd_order", [(1, 2), (1, 4), (2, 2), (2, 4)])
    def test_convergence_order(self, order, fd_order):
        errors = []
        for n in (201, 401):
            grid = build_grid(n, 4.0)
            d = derivative_matrix(grid, order, fd_order).to_dense()
            f = np.exp(-grid.points ** 2 / 2.0)
            exact = -grid.points * f if order == 1 else (grid.points ** 2 - 1) * f
            interior = np.abs(grid.points) <= 2.0
            errors.append(np.abs((d @ f).real - exact)[interior].max())
        measured = math.log2(errors[0] / errors[1])
        assert measured >= fd_order - 0.5

    @pytest.mark.parametrize("fd_order", [2, 4])
    def test_commutator_with_position_is_identity(self, fd_order):
        # D_fd diag(p) - diag(p) D_fd acts as identity + O(h^fd_order)
        errors = []
        for n in (201, 401):
            grid = build_grid(n, 4.0)
            d = derivative_matrix(grid, 1, fd_order).to_dense()
            pmat = np.diag(grid.points).astype(complex)
            bracket = d @ pmat - pmat @ d
            f = np.exp(-grid.points ** 2 / 2.0) * np.cos(grid.points)
            interior = np.abs(grid.points) <= 2.0
            errors.append(np.abs((bracket @ f).real - f)[interior].max())
        measured = math.log2(errors[0] / errors[1])
        assert measured >= fd_order - 0.5

    def test_constant_annihilated_exactly_inside(self):
        for n in (11, 101, 301):
            grid = build_grid(n, 3.0)
            d = derivative_matrix(grid, 1, 4).to_dense()
            values = d @ np.ones(n)
            assert np.abs(values[2:-2]).max() == 0.0

    def test_stencil_guard(self):
        grid = build_grid(5, 1.0)
        derivative_matrix(grid, 2, 4)  # width 5 just fits
        with pytest.raises(ValueError, match="order"):
            derivative_matrix(grid, 3, 4)


class TestAssembly:
    def test_identity(self):
        grid = build_grid(9, 3.0)
        mat = assemble_matrix(identity_op(), grid).to_dense()
        np.testing.assert_array_equal(mat, np.eye(9))

    def test_multiplication_operator_is_diagonal(self):
        grid = build_grid(9, 3.0)
        psq = DiffOp.from_dict(0.0, {0: coeff_poly((0, 0, 1.0))})
        mat = assemble_matrix(psq, grid).to_dense()
        np.testing.assert_array_equal(mat, np.diag(grid.points ** 2))

    def test_oscillator_ground_state(self):
        params = make_params(1.0, 0.0, 0.0)
        grid = build_grid(1001, 8.0)
        a = assemble_matrix(h_quadratic(params), grid, 4)
        psi = np.exp(-grid.points ** 2 / 2.0)
        residual = a.apply(psi) - 0.5 * psi
        interior = np.abs(grid.points) <= 4.0
        assert np.abs(residual[interior]).max() < 1e-7

    def test_beta_mismatch_rejected(self):
        grid = build_grid(9, 3.0, 0.1)
        with pytest.raises(ValueError, match="beta"):
            assemble_matrix(identity_op(), grid)

    def test_overflowing_coefficients_are_refused(self):
        # 1e308*p^2 leaves float range for |p| >= 1.5 on this grid
        psq = DiffOp.from_dict(0.0, {0: coeff_poly((0, 0, 1e308))})
        with pytest.raises(ValueError, match=re.escape(
                "non-finite operator entries at [(0, 0), (1, 1), (2, 2), "
                "(6, 6), (7, 7)]")):
            assemble_matrix(psq, build_grid(9, 3.0))

    def test_deterministic(self):
        grid = build_grid(101, 5.0)
        a = assemble_matrix(h_quadratic(P1), grid, 4).matrix
        b = assemble_matrix(h_quadratic(P1), grid, 4).matrix
        assert np.array_equal(a, b)

    def test_real_operators_have_real_bands(self):
        # x = i*hbar*(1+beta*p^2)*D gives the model's Hamiltonians real
        # coefficients, so their bands are float64; the transforms keep
        # the dtype, and an imaginary coefficient keeps the band complex
        cases = [(h0_momentum(P1), build_grid(101, 8.0)),
                 (h_deformed(with_beta(P1, 0.1)), build_grid(101, 8.0, 0.1))]
        real = [assemble_matrix(op, grid) for op, grid in cases]
        for (op, grid), a in zip(cases, real):
            assert a.matrix.dtype == np.float64 and a.matrix.flags.c_contiguous
            # the real part of the same sum taken in complex arithmetic
            np.testing.assert_array_equal(a.to_dense(),
                                          dense_assemble(op, grid).real)
        grid = build_grid(101, 8.0)
        assert derivative_matrix(grid, 1).matrix.dtype == np.float64
        assert derivative_matrix(grid, 2).matrix.dtype == np.float64
        imaginary = assemble_matrix(1j * p_op(), grid)
        assert imaginary.matrix.dtype == np.complex128
        for a in real + [imaginary]:
            assert similarity_transform(a, 0.3).matrix.dtype == a.matrix.dtype
            assert weighted_adjoint(a).matrix.dtype == a.matrix.dtype

    @pytest.mark.parametrize("kind", ["general", "selfadjoint-weighted"])
    def test_complex_band_solves_like_the_real_one(self, kind):
        # the solver computes in the band's own dtype: a real operator
        # stored complex must give the same levels
        if kind == "general":
            params, grid = with_beta(P1, 0.1), build_grid(301, 20.0, 0.1)
            a = similarity_transform(assemble_matrix(h_deformed(params), grid),
                                     metric_exponent(params) / 2.0)
        else:
            grid = build_grid(301, 10.0)
            h0 = h0_momentum(P1)
            a = assemble_matrix(h0.conjugate_gaussian(gaussian_alpha(P1) / 2.0),
                                grid)
        assert a.matrix.dtype == np.float64
        real = eigs(a, kind, 6)
        stored_complex = eigs(MatrixOp(a.matrix.astype(complex), grid), kind, 6)
        assert real.solver == stored_complex.solver == "shift-invert"
        np.testing.assert_allclose(stored_complex.eigenvalues, real.eigenvalues,
                                   rtol=PARITY_RTOL)


class TestWeightedAdjoint:
    def test_real_diagonal_fixed(self):
        grid = build_grid(9, 3.0, 0.5)
        a = from_dense(np.diag(grid.points ** 2).astype(complex), grid)
        np.testing.assert_array_equal(weighted_adjoint(a).to_dense(), a.to_dense())

    def test_flat_measure_is_conjugate_transpose(self):
        rng = np.random.default_rng(3)
        grid = build_grid(9, 3.0)
        mat = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        a = from_dense(mat, grid)
        np.testing.assert_array_equal(weighted_adjoint(a).to_dense(), mat.conj().T)

    def test_involution_and_product_reversal(self):
        rng = np.random.default_rng(4)
        grid = build_grid(9, 3.0, 0.7)
        a = from_dense(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), grid)
        b = from_dense(rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9)), grid)
        np.testing.assert_allclose(weighted_adjoint(weighted_adjoint(a)).to_dense(),
                                   a.to_dense(), atol=1e-14)
        lhs = weighted_adjoint(from_dense(a.to_dense() @ b.to_dense(), grid)).to_dense()
        rhs = weighted_adjoint(b).to_dense() @ weighted_adjoint(a).to_dense()
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_discrete_adjoint_consistency(self):
        # weighted adjoint of the assembled operator approaches the
        # assembled closed-form adjoint at the stencil order
        errors = []
        for n in (251, 501):
            grid = build_grid(n, 10.0)
            h0 = h0_momentum(P1)
            a = assemble_matrix(h0, grid, 2)
            expected = assemble_matrix(h0_adjoint_expected(P1), grid, 2)
            diff = weighted_adjoint(a).to_dense() - expected.to_dense()
            interior = np.abs(grid.points) <= 5.0
            scale = np.abs(expected.to_dense()[interior]).sum(axis=1).max()
            errors.append(np.abs(diff[interior]).sum(axis=1).max() / scale)
        assert math.log2(errors[0] / errors[1]) >= 1.5


class TestMetricDiagonal:
    def test_power_value(self):
        grid = build_grid(5, 2.0, 0.1)
        exponent = 10.0
        mat = metric_diagonal(exponent, grid)
        # entry at p = 1: (1 + 0.1)^10
        assert abs(mat[3, 3].real - 1.1 ** 10) < 1e-12
        assert abs(mat[3, 3].real - 2.5937424601) < 1e-9

    def test_gaussian_value(self):
        grid = build_grid(5, 2.0, 0.0)
        exponent = 1.0
        mat = metric_diagonal(exponent, grid)
        assert abs(mat[4, 4].real - math.exp(4.0)) < 1e-11

    def test_identity_family(self):
        grid = build_grid(5, 2.0, 0.0)
        exponent = 0.0
        np.testing.assert_array_equal(metric_diagonal(exponent, grid), np.eye(5))

    def test_half_power(self):
        grid = build_grid(5, 2.0, 0.0)
        exponent = 1.0
        mat = metric_diagonal(exponent, grid, half=True)
        assert abs(mat[4, 4].real - math.exp(2.0)) < 1e-12

    def test_overflow_guard(self):
        grid = build_grid(101, 30.0)
        exponent = 1.0  # log entries up to 900
        with pytest.raises(ValueError, match="log"):
            metric_diagonal(exponent, grid)
        log_diag = metric_log_diagonal(exponent, grid)  # log pathway stays finite
        assert np.isfinite(log_diag).all()


class TestSimilarityTransform:
    def test_identity_spec_is_noop(self):
        rng = np.random.default_rng(5)
        grid = build_grid(9, 3.0)
        a = from_dense(rng.normal(size=(9, 9)).astype(complex), grid)
        out = similarity_transform(a, 0.0)
        np.testing.assert_array_equal(out.to_dense(), a.to_dense())

    def test_diagonal_matrix_unchanged(self):
        grid = build_grid(9, 3.0)
        a = from_dense(np.diag(np.arange(9.0)).astype(complex), grid)
        out = similarity_transform(a, 1.0)
        np.testing.assert_array_equal(out.to_dense(), a.to_dense())

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        grid = build_grid(21, 2.0)
        a = from_dense(rng.normal(size=(21, 21)).astype(complex), grid)
        exponent = 0.8
        inverse = -0.8
        out = similarity_transform(similarity_transform(a, exponent), inverse)
        np.testing.assert_allclose(out.to_dense(), a.to_dense(), rtol=1e-12, atol=1e-13)

    def test_half_transform_preserves_spectrum(self):
        grid = build_grid(41, 3.0)
        a = assemble_matrix(h_quadratic(P1), grid, 4)
        exponent = 0.5
        before = eigs(a, "general", 41).eigenvalues
        after = eigs(similarity_transform(a, exponent / 2.0),
                     "general", 41).eigenvalues
        np.testing.assert_allclose(after, before, rtol=1e-8, atol=1e-8)

    def test_matches_materialized_metric(self):
        grid = build_grid(21, 2.0)
        a = assemble_matrix(h_quadratic(P1), grid, 4)
        exponent = 1.0
        eta = metric_diagonal(exponent, grid)
        expected = eta @ a.to_dense() @ np.linalg.inv(eta)
        out = similarity_transform(a, exponent)
        np.testing.assert_allclose(out.to_dense(), expected, rtol=1e-12, atol=1e-12)

    def test_discretized_conjugation_approaches_adjoint(self):
        grid = build_grid(1001, 10.0)
        a = assemble_matrix(h_quadratic(P1), grid, 4)
        out = similarity_transform(a, gaussian_alpha(P1))
        diff = out.to_dense() - weighted_adjoint(a).to_dense()
        interior = np.abs(grid.points) <= 5.0
        scale = np.abs(a.to_dense()[interior]).sum(axis=1).max()
        assert np.abs(diff[interior]).sum(axis=1).max() / scale < 1e-3


class TestEigs:
    def test_diagonal_spectrum(self):
        grid = build_grid(5, 2.0)
        a = from_dense(np.diag([3.0, 1.0, 2.0, 5.0, 4.0]).astype(complex), grid)
        spectrum = eigs(a, "general", 3)
        np.testing.assert_allclose(spectrum.eigenvalues, [1.0, 2.0, 3.0])

    def test_sorted_with_imaginary_tiebreak(self):
        grid = build_grid(5, 2.0)
        mat = np.diag([1.0 + 1j, 1.0 - 1j, 0.5, 2.0, 3.0])
        spectrum = eigs(from_dense(mat, grid), "general", 3)
        np.testing.assert_allclose(spectrum.eigenvalues, [0.5, 1.0 - 1j, 1.0 + 1j])

    def test_oscillator_ground_state(self):
        params = make_params(1.0, 0.0, 0.0)
        grid = build_grid(1001, 8.0)
        a = assemble_matrix(h_quadratic(params), grid, 4)
        spectrum = eigs(a, "selfadjoint-weighted", 3)
        assert abs(spectrum.eigenvalues[0].real - 0.5) < 1e-6
        np.testing.assert_allclose(spectrum.eigenvalues.real, [0.5, 1.5, 2.5],
                                   atol=1e-5)

    def test_selfadjoint_precondition(self):
        grid = build_grid(9, 3.0)
        mat = np.zeros((9, 9), dtype=complex)
        mat[0, 1] = 1.0  # plainly not symmetric
        with pytest.raises(ValueError, match="self-adjoint"):
            eigs(from_dense(mat, grid), "selfadjoint-weighted", 2)

    def test_selfadjoint_gap_is_the_weighted_adjoint_gap(self):
        # at uniform weights the gap of the symmetrized band is that of
        # A - A^+_w, entry for entry
        h0 = h0_momentum(P1)
        a = assemble_matrix(h0, build_grid(51, 5.0), 4)
        gap = np.abs(a.matrix - weighted_adjoint(a).matrix).max()
        with pytest.raises(ValueError, match=re.escape(f"gap {gap:.3e},")):
            eigs(a, "selfadjoint-weighted", 2)
        deformed = assemble_matrix(h_deformed(with_beta(P1, 0.1)),
                                   build_grid(51, 5.0, 0.1), 4)
        with pytest.raises(ValueError, match="self-adjoint"):
            eigs(deformed, "selfadjoint-weighted", 2)

    def test_unknown_kind(self):
        grid = build_grid(5, 2.0)
        with pytest.raises(ValueError, match="kind"):
            eigs(from_dense(np.eye(5, dtype=complex), grid), "sparse", 2)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_nonfinite_dense_solve_fails_as_a_numeric_error(self, bad):
        # numpy raises LinAlgError (scipy's solver raises ValueError); as
        # a numeric error it fails the check that meets it by name
        h0 = h0_momentum(P1)
        a = assemble_matrix(h0, build_grid(51, 5.0), 4)
        assert a.grid.n <= swanson.grids.DIRECT_MAX_N
        a.matrix[2, 25] = bad
        with pytest.raises(NUMERIC_ERRORS):
            eigs(a, "general", 3)

    @pytest.mark.parametrize("kind", ("general", "selfadjoint-weighted"))
    def test_nonfinite_band_above_the_direct_size_fails_in_the_fallback(
            self, kind):
        # shift-invert gives up on a band it cannot bound, and the dense
        # fallback raises numpy's LinAlgError, a numeric error
        h0 = h0_momentum(P1)
        grid = build_grid(301, 5.0)
        a = assemble_matrix(h0.conjugate_gaussian(gaussian_alpha(P1) / 2.0), grid)
        assert grid.n > swanson.grids.DIRECT_MAX_N
        a.matrix[2, 150] = math.nan
        with pytest.raises(np.linalg.LinAlgError):
            eigs(a, kind, 3)

    def test_underflowing_krylov_basis_fails_as_a_numeric_error(self):
        # a solve that scales a generic vector by 1e-300: the next Krylov
        # vector's squares underflow, and its norm reads 0
        scale = 1e-300 * np.linspace(1.0, 2.0, 50)
        factorizations = _arnoldi(lambda x: scale * x, 50, np.float64, [4])
        with pytest.raises(NUMERIC_ERRORS, match="Krylov vector 1 has norm 0.0"):
            next(factorizations)

    def test_tiny_mass_grid_falls_back_to_the_dense_levels(self):
        # at m = 1e-300 the p^2 term outweighs the rest by 1e300: the floor
        # certifies, the Ritz values do not converge, and the dense solve
        # returns the grid's levels, the lowest of them rounding-sized
        params = make_params(1.0, -0.5, 0.5, m=1e-300)
        h0 = h0_momentum(params)
        a = assemble_matrix(h0.conjugate_gaussian(gaussian_alpha(params) / 2.0),
                            build_grid(301, 10.0))
        spectrum = eigs(a, "selfadjoint-weighted", 6)
        assert spectrum.solver == "dense-fallback"
        dense = a.to_dense()  # at uniform weights S is A itself
        expected = scipy.linalg.eigvalsh(0.5 * (dense + dense.T))[:6]
        rounding = a.grid.n * np.finfo(float).eps * np.abs(dense).max()
        np.testing.assert_allclose(spectrum.eigenvalues, expected,
                                   rtol=1e-12, atol=rounding)

    def test_nonhermitized_general_spectrum_is_real(self):
        # pseudo-Hermiticity consequence: even without hermitizing, the
        # low-lying eigenvalues of the assembled operator are real and
        # sit on the closed-form ladder
        h0 = h0_momentum(P1)
        grid = build_grid(401, 8.0)
        spectrum = eigs(assemble_matrix(h0, grid, 4), "general", 4)
        assert np.abs(spectrum.eigenvalues.imag).max() < 1e-8
        np.testing.assert_allclose(spectrum.eigenvalues.real,
                                   oscillator_levels(P1, 4), atol=1e-4)

    def test_dense_fallback_refuses_large_grids(self, monkeypatch):
        h0 = h0_momentum(P1)
        a = assemble_matrix(h0, build_grid(301, 8.0), 4)
        assert a.grid.n > swanson.grids.DIRECT_MAX_N
        monkeypatch.setattr(swanson.grids, "_certified_shift_invert",
                            lambda *args: None)
        assert eigs(a, "general", 3).solver == "dense-fallback"
        monkeypatch.setattr(swanson.grids, "DENSE_MAX_N", 299)
        # the message names the bytes of the matrices the solve would form:
        # two parity sectors, 8*(151^2 + 150^2), for this J-symmetric band,
        # and the whole 8*301^2 for a band off parity
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"n = 301: it needs 362408 bytes.* at most 299"):
            eigs(a, "general", 3)
        off_parity = a.matrix.copy()
        off_parity[1, 40] *= 2.0
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"n = 301: it needs 724808 bytes.* at most 299"):
            eigs(MatrixOp(off_parity, a.grid), "general", 3)
        # inside the suite the spectrum check fails by name
        report = run_suite(with_beta(P1, 0.1), SuiteConfig(n=301, p_max=20.0))
        spectrum = {c.name: c for c in report.checks}["spectrum"]
        assert not spectrum.passed
        assert spectrum.details["error"].startswith(
            "LinAlgError: dense eigensolver refused at n = 301")

    def test_general_solver_is_chosen_by_grid_size(self, monkeypatch):
        direct_max = swanson.grids.DIRECT_MAX_N
        h0 = h0_momentum(P1)
        # the half-metric image is nearly normal, so shift-invert certifies it
        small, large = (similarity_transform(
            assemble_matrix(h0, build_grid(n, 8.0), 4), gaussian_alpha(P1) / 2.0)
            for n in (direct_max, direct_max + 2))
        assert eigs(large, "general", 3).solver == "shift-invert"

        def krylov(*args):
            raise AssertionError("shift-invert ran on a grid it must not see")

        monkeypatch.setattr(swanson.grids, "_certified_shift_invert", krylov)
        spectrum = eigs(small, "general", 3)
        assert spectrum.solver == "dense"
        np.testing.assert_allclose(spectrum.eigenvalues.real,
                                   oscillator_levels(P1, 3), atol=1e-4)
        # DENSE_MAX_N caps the direct solve as well
        monkeypatch.setattr(swanson.grids, "DENSE_MAX_N", direct_max - 2)
        with pytest.raises(np.linalg.LinAlgError,
                           match=rf"dense eigensolver refused at n = {direct_max}"):
            eigs(small, "general", 3)

    def test_hermitized_general_and_selfadjoint_agree(self):
        h0 = h0_momentum(P1)
        alpha = gaussian_alpha(P1)
        hermitized = h0.conjugate_gaussian(alpha / 2.0)
        grid = build_grid(501, 8.0)
        a = assemble_matrix(hermitized, grid, 4)
        sym = eigs(a, "selfadjoint-weighted", 4).eigenvalues.real
        gen = eigs(a, "general", 4).eigenvalues.real
        np.testing.assert_allclose(sym, gen, atol=1e-9)


class TestGaussianState:
    def test_unit_weighted_norm(self):
        for beta in (0.0, 0.5):
            grid = build_grid(501, 10.0, beta)
            psi = gaussian_state(grid, 0.0, 1.0)
            assert abs(weighted_norm(grid, psi) - 1.0) < 1e-12

    def test_norm_of_huge_entries_does_not_overflow(self):
        # the squares overflow; the norm is rescaled, or inf past float range
        grid = build_grid(501, 10.0, 0.5)
        psi = gaussian_state(grid, 0.0, 1.0)
        for scale in (1e200, -1e300j):
            norm = weighted_norm(grid, scale * psi)
            assert norm == pytest.approx(abs(scale), rel=1e-12)
        assert weighted_norm(grid, np.full(grid.n, 1e308)) == math.inf
        assert math.isnan(weighted_norm(grid, np.append(psi[1:], math.nan)))

    def test_disjoint_supports_overlap(self):
        grid = build_grid(1001, 10.0)
        left = gaussian_state(grid, -3.0, 0.4)
        right = gaussian_state(grid, 3.0, 0.4)
        assert abs(weighted_inner(grid, left, right)) < 1e-8

    def test_momentum_mean_is_center(self):
        grid = build_grid(1001, 10.0)
        psi = gaussian_state(grid, 1.5, 0.5)
        mean = weighted_inner(grid, psi, grid.points * psi).real
        assert abs(mean - 1.5) < 1e-9

    def test_width_guard(self):
        grid = build_grid(11, 3.0)
        with pytest.raises(ValueError, match="width"):
            gaussian_state(grid, 0.0, 0.0)
