"""Minimal-length deformation: power-law metric and its flat limit.

Builds the deformed Hamiltonian in the representation x = i*hbar*u*D,
u = 1 + beta*p^2, verifies that conjugation by (1+beta*p^2)^e reproduces
the deformed-measure adjoint, and tabulates how the power-law metric
approaches the Gaussian one as beta -> 0.
"""

import numpy as np

from swanson import (
    check_metric_limit,
    gaussian_alpha,
    h_deformed,
    make_params,
    metric_exponent,
    operators_equal,
    with_beta,
)

P1 = make_params(omega=1.0, lam=-0.5, delta=0.5)

print("=" * 64)
print("Deformed Hamiltonian and its power-law metric")
print("=" * 64)
for beta in (0.01, 0.1, 1.0):
    params = with_beta(P1, beta)
    h = h_deformed(params)
    exponent = metric_exponent(params)
    residual = operators_equal(h.conjugate_power_metric(exponent),
                               h.adjoint()).residual
    print(f"beta = {beta:<5}: exponent e = {exponent:8.3f},  "
          f"residual of eta H eta^(-1) - H^+ = {residual:.2e}")

params = with_beta(P1, 0.1)
print()
print("H (beta = 0.1) =", h_deformed(params))

print()
print("=" * 64)
print("Flat limit of the metric: (1+beta p^2)^e(beta) -> e^(alpha p^2)")
print("=" * 64)
alpha = gaussian_alpha(P1)
print("alpha =", alpha, " (exponent(beta) * beta = alpha exactly)")
print()
print(f"{'beta':>10} {'max rel deviation':>20} {'leading estimate':>20}")
for beta in (1e-6, 1e-5, 1e-4):
    result = check_metric_limit(with_beta(P1, beta))
    print(f"{beta:>10.0e} {result.residual:>20.4e} "
          f"{result.details['estimate']:>20.4e}")

deviations = [check_metric_limit(with_beta(P1, b)).residual
              for b in (1e-6, 1e-5, 1e-4)]
slope = np.polyfit(np.log([1e-6, 1e-5, 1e-4]), np.log(deviations), 1)[0]
print()
print(f"deviation ~ beta^{slope:.3f}  (linear in beta, as the second-order")
print("log expansion predicts: deviation ~ alpha*beta*p^4/2)")
