"""Verification toolkit for the Swanson model's operator identities.

The package establishes, mechanically, the algebraic identities of the
non-Hermitian Swanson Hamiltonian with and without minimal-length
deformation: the equivalence of its ladder and quadratic forms, the
discrepancy between two reduced forms, the closed-form momentum-space
adjoint, and the Gaussian / power-law metric similarity relations --
symbolically where exact, numerically (spectra and residuals on momentum
grids) where not.
"""

from .algebra import (
    DEFAULT_TOL,
    PRUNE_EPS,
    CoeffFn,
    DiffOp,
    OpComparison,
    Poly,
    anticommutator,
    commutator,
    const_op,
    d_op,
    identity_op,
    operators_equal,
    p_op,
    zero_op,
)
from .model import (
    ModelParams,
    MomentumRepCoeffs,
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
    ladder_ops,
    make_params,
    metric_exponent,
    momentum_rep_coeffs,
    oscillator_levels,
    position_operator,
    reduced_variant_difference,
    with_beta,
)
from .grids import (
    Grid,
    MatrixOp,
    Spectrum,
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
from .checks import (
    CheckResult,
    Report,
    SuiteConfig,
    check_adjoint,
    check_expansion,
    check_metric_limit,
    check_numeric_residual,
    check_pseudo_symbolic,
    check_spectrum,
    check_variant_discrepancy,
    convergence_order,
    convergence_reality,
    draw_params,
    run_suite,
)

__version__ = "0.1.0"
