"""Tour of the momentum-space operator algebra.

Builds the elementary operators, composes them with the Leibniz rule,
takes adjoints under flat and deformed measures, and conjugates by the
two metric families.  Everything stays in exact normal-ordered form.
"""

from swanson import (
    CoeffFn,
    DiffOp,
    Poly,
    anticommutator,
    commutator,
    d_op,
    operators_equal,
    p_op,
)

print("=" * 64)
print("Elementary operators and composition")
print("=" * 64)

D = d_op()          # d/dp
P = p_op()          # multiplication by p

print("D o P        =", D * P)                  # p*D + 1
print("[D, P]       =", commutator(D, P))       # exactly 1
print("(pD)^2       =", (P * D) * (P * D))      # p^2 D^2 + p D

print()
print("=" * 64)
print("Adjoints: flat measure dp and deformed measure dp/(1+beta p^2)")
print("=" * 64)

print("D^+ (flat)   =", D.adjoint())             # -D
print("(pD)^+       =", (P * D).adjoint())       # -pD - 1

beta = 0.1
ud = DiffOp.from_dict(beta, {1: CoeffFn(Poly((1.0,)), 1, beta)})
print("u*D          =", ud)
print("(u*D)^+ under dp/(1+beta p^2) =", ud.adjoint())
print("  -> u*D is antisymmetric under the deformed measure, which is")
print("     why x = i*hbar*u*D is the natural deformed position operator")

print()
print("=" * 64)
print("Metric conjugations are algebra automorphisms")
print("=" * 64)

print("e^(p^2) D e^(-p^2)          =", D.conjugate_gaussian(1.0))
Dd = d_op(beta)
print("u^e D u^(-e) (e=1, beta=0.1) =", Dd.conjugate_power_metric(1.0))

X = (P * D) + DiffOp.from_dict(0.0, {0: CoeffFn(Poly((0.0, 0.0, 0.5)))})
lhs = (X * X).conjugate_gaussian(0.7)
rhs = X.conjugate_gaussian(0.7) * X.conjugate_gaussian(0.7)
print("automorphism residual on (pD + p^2/2)^2:",
      operators_equal(lhs, rhs).residual)

back = X.conjugate_gaussian(0.7).conjugate_gaussian(-0.7)
print("conjugate then un-conjugate residual:   ",
      operators_equal(back, X).residual)
