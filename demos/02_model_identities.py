"""The undeformed Swanson-model identities, verified symbolically.

Covers the ladder/quadratic expansion, the discrepancy between the two
reduced forms, the closed-form momentum-space adjoint, and the Gaussian
metric similarity relation.
"""

from swanson import (
    gaussian_alpha,
    h0_adjoint_expected,
    h0_momentum,
    h_ladder,
    h_quadratic,
    h_reduced,
    h_variant,
    make_params,
    momentum_rep_coeffs,
    operators_equal,
)

P1 = make_params(omega=1.0, lam=-0.5, delta=0.5)
print("parameters:", P1.to_dict())
print()

print("=" * 64)
print("Ladder form vs quadratic form")
print("=" * 64)
ladder = h_ladder(P1)
quadratic = h_quadratic(P1)
print("H (ladder)    =", ladder)
print("H (quadratic) =", quadratic)
print("residual      =", operators_equal(ladder, quadratic).residual)

print()
print("=" * 64)
print("Reduced form vs the full-strength anticommutator variant")
print("=" * 64)
reduced = h_reduced(P1)
variant = h_variant(P1)
difference = reduced - variant
print("H (reduced)  =", reduced)
print("H (variant)  =", variant)
print("difference   =", difference, "   <- exactly mu*p*D + mu/2, mu =", P1.mu)
print("the two operators agree only when mu = 0")

print()
print("=" * 64)
print("Momentum representation and its adjoint")
print("=" * 64)
coeffs, h0 = momentum_rep_coeffs(P1), h0_momentum(P1)
print("H0           =", h0)
print("(Q, R, S, T) =", (coeffs.Q, coeffs.R, coeffs.S, coeffs.T))
adjoint = h0.adjoint()
print("H0^+         =", adjoint)
print("closed form  =", h0_adjoint_expected(P1))
print("residual     =", operators_equal(adjoint, h0_adjoint_expected(P1)).residual)

print()
print("=" * 64)
print("Gaussian metric similarity")
print("=" * 64)
alpha = gaussian_alpha(P1)
conjugated = h0.conjugate_gaussian(alpha)
print("alpha                 =", alpha)
print("eta0 H0 eta0^(-1)     =", conjugated)
print("residual against H0^+ =", operators_equal(conjugated, adjoint).residual)
