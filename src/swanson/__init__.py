"""Verification toolkit for the Swanson model's operator identities.

The package establishes, mechanically, the algebraic identities of the
non-Hermitian Swanson Hamiltonian with and without minimal-length
deformation: the equivalence of its ladder and quadratic forms, the
discrepancy between two reduced forms, the closed-form momentum-space
adjoint, and the Gaussian / power-law metric similarity relations --
symbolically where exact, numerically (spectra and residuals on momentum
grids) where not.
"""
