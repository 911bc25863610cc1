"""Numerical side: spectra, probe residuals and convergence orders.

Discretizes the model on momentum grids, hermitizes with the half-power
metric, compares the spectrum against the closed-form oscillator ladder,
and measures the discretization orders that back the numeric tolerances.
"""

from swanson.checks import (
    SuiteConfig,
    check_numeric_residual,
    check_spectrum,
    convergence_order,
    convergence_reality,
    run_suite,
)
from swanson.grids import build_grid
from swanson.model import make_params, oscillator_levels, with_beta

P1 = make_params(omega=1.0, lam=-0.5, delta=0.5)

print("=" * 64)
print("Hermitized spectrum vs (n+1/2)*sqrt(omega^2 - 4*lam*delta)")
print("=" * 64)
grid = build_grid(1501, 10.0)
result = check_spectrum(P1, grid, fd_order=4, levels=6)
oracle = oscillator_levels(P1, 6)
print(f"{'n':>3} {'computed':>18} {'oracle':>18} {'abs err':>12}")
for k, (value, expected) in enumerate(zip(result.details["re"], oracle)):
    print(f"{k:>3} {value:>18.12f} {expected:>18.12f} {abs(value-expected):>12.2e}")

print()
print("=" * 64)
print("Probe residual of the discrete metric conjugation")
print("=" * 64)
print(f"{'n':>6} {'h':>10} {'max probe residual':>20}")
grids = [build_grid(n, 10.0) for n in (501, 1001, 2001)]
residuals = [check_numeric_residual(P1, g).residual for g in grids]
for g, r in zip(grids, residuals):
    print(f"{g.n:>6} {g.h:>10.4f} {r:>20.3e}")
study = convergence_order("convergence_residual", grids, residuals)
print("fitted convergence order:", round(study.details["fitted_order"], 2))

print()
print("=" * 64)
print("Deformed model: how real is the truncated spectrum?")
print("=" * 64)
params = with_beta(P1, 0.1)
grids = [build_grid(n, pm, 0.1)
         for n, pm in ((401, 20.0), (801, 40.0), (1201, 60.0))]
study = convergence_reality(
    grids, [check_spectrum(params, g, levels=3) for g in grids])
print(f"{'p_max':>8} {'n':>6} {'lowest 3 Re(E)':>42} {'max |Im/Re|':>12}")
for pm, n, spec, ratio in zip(study.details["p_max"], study.details["n"],
                              study.details["spectra"],
                              study.details["reality_ratios"]):
    res = ", ".join(f"{v:.6f}" for v in spec["re"])
    print(f"{pm:>8.0f} {n:>6} {res:>42} {ratio:>12.2e}")

print()
print("=" * 64)
print("Full verification suite (undeformed defaults)")
print("=" * 64)
report = run_suite(P1, SuiteConfig())
width = max(len(c.name) for c in report.checks)
for check in report.checks:
    tol = "report-only" if check.tolerance is None else f"{check.tolerance:.2e}"
    print(f"{'PASS' if check.passed else 'FAIL'}  {check.name:<{width}}  "
          f"residual {check.residual:.3e}  tolerance {tol}")
print("overall:", "PASS" if report.passed else "FAIL")
