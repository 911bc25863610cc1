"""Tests for the momentum-space operator algebra.

Derived expectations are checked against independent oracles: exact
symbolic differentiation (sympy) for coefficient derivatives and operator
composition, quadrature for adjoints, and exact polynomial application
at beta = 0.
"""

import numpy as np
import pytest
import sympy as sp

from swanson.algebra import (
    CoeffFn,
    DiffOp,
    OpComparison,
    Poly,
    anticommutator,
    coeff_const,
    coeff_poly,
    commutator,
    const_op,
    d_op,
    identity_op,
    operators_equal,
    p_op,
    zero_op,
)

from oracles import apply_to_poly


def random_coeff(rng, beta, max_degree=2, upow_range=(-1, 1)):
    degree = rng.integers(0, max_degree + 1)
    coeffs = rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1)
    upow = int(rng.integers(*upow_range)) if beta > 0 else 0
    return CoeffFn(Poly(tuple(coeffs)), upow, beta)


def random_op(rng, beta, max_order=2, **kwargs):
    terms = {}
    for order in range(max_order + 1):
        if rng.random() < 0.8:
            terms[order] = random_coeff(rng, beta, **kwargs)
    if not terms:
        terms[0] = coeff_const(1.0, beta)
    return DiffOp.from_dict(beta, terms)


# ---------------------------------------------------------------- polynomials


class TestPoly:
    def test_binomial_identity(self):
        product = Poly((1, 1)) * Poly((1, -1))
        assert product == Poly((1, 0, -1))

    def test_power_rule(self):
        assert Poly((0, 0, 0, 1)).derivative() == Poly((0, 0, 3))

    def test_evaluate(self):
        assert Poly((1, 0, 1))(2.0) == 5.0

    def test_evaluate_array(self):
        values = Poly((1, 0, 1))(np.array([0.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 5.0])

    def test_trailing_zeros_pruned(self):
        assert Poly((1.0, 2.0, 0.0, 0.0)).coeffs == (1.0 + 0j, 2.0 + 0j)
        assert Poly((0.0, 0.0)).is_zero
        assert Poly(()).degree == -1

    def test_tiny_coefficients_snapped(self):
        assert Poly((1.0, 1e-16)).coeffs == (1.0 + 0j,)

    def test_cancellation(self):
        assert (Poly((1, 2)) - Poly((1, 2))).is_zero


# ---------------------------------------------------------- coefficient functions


class TestCoeffFn:
    def test_exponents_cancel(self):
        left = CoeffFn(Poly((0, 1)), 1, 0.1)
        right = CoeffFn(Poly((1,)), -1, 0.1)
        product = left * right
        assert product.upow == 0
        assert product.poly == Poly((0, 1))

    def test_derivative_of_inverse_u(self):
        # d/dp (1+beta p^2)^(-1) = -2 beta p (1+beta p^2)^(-2)
        fn = CoeffFn(Poly((1.0,)), -1, 0.1)
        derivative = fn.derivative()
        assert derivative.upow == -2
        assert derivative.poly == Poly((0.0, -0.2))

    def test_derivative_against_symbolic_oracle(self):
        rng = np.random.default_rng(7)
        t = sp.Symbol("t", real=True)
        for _ in range(20):
            fn = random_coeff(rng, 0.3, upow_range=(-2, 3))
            oracle = sp.diff(coeff_to_sympy(fn, t), t)
            derivative = fn.derivative()
            for p0 in (-1.3, 0.2, 2.1):
                expected = complex(oracle.subs(t, p0).evalf())
                assert abs(derivative(p0) - expected) < 1e-10

    def test_addition(self):
        total = coeff_poly((0, 0, 1)) + coeff_const(1.0)
        assert total.poly == Poly((1, 0, 1))
        assert total.upow == 0

    def test_addition_common_upow(self):
        # (1, k=1) + (1, k=-1) lands at k=-1 with poly (1+beta p^2)^2 + 1
        a = CoeffFn(Poly((1.0,)), 1, 0.5)
        b = CoeffFn(Poly((1.0,)), -1, 0.5)
        total = a + b
        assert total.upow == -1
        assert total.poly == Poly((2.0, 0.0, 1.0, 0.0, 0.25))

    def test_beta_zero_normalizes_upow(self):
        assert CoeffFn(Poly((1.0,)), 3, 0.0).upow == 0

    def test_beta_mismatch_rejected(self):
        with pytest.raises(ValueError, match="beta mismatch"):
            coeff_const(1.0, 0.1) + coeff_const(1.0, 0.2)

    def test_evaluate_matches_factors(self):
        fn = CoeffFn(Poly((1.0, 2.0)), -2, 0.4)
        p = 1.7
        expected = (1.0 + 2.0 * p) * (1.0 + 0.4 * p * p) ** -2
        assert abs(fn(p) - expected) < 1e-14


# ----------------------------------------------------------------- linear structure


class TestLinear:
    def test_cancellation(self):
        assert (d_op() - d_op()).is_zero

    def test_scaling(self):
        doubled = 2.0 * p_op()
        assert doubled.coeff(0).poly == Poly((0, 2))

    def test_disjoint_terms(self):
        mixed = DiffOp.from_dict(0.0, {1: coeff_poly((0, 1))}) + \
            DiffOp.from_dict(0.0, {0: coeff_poly((0, 0, 1))})
        assert mixed.coeff(1).poly == Poly((0, 1))
        assert mixed.coeff(0).poly == Poly((0, 0, 1))

    def test_beta_mismatch_rejected(self):
        with pytest.raises(ValueError, match="beta mismatch"):
            d_op(0.1) + d_op(0.2)


# --------------------------------------------------------------------- composition


def coeff_to_sympy(fn, t):
    poly = sum(sp.nsimplify(c, rational=False) * t ** j
               for j, c in enumerate(fn.poly.coeffs))
    return poly * (1 + fn.beta * t ** 2) ** fn.upow


def apply_symbolic(op, expr, t):
    """Independent evaluation of (op f) as a sympy expression."""
    return sum(coeff_to_sympy(fn, t) * sp.diff(expr, t, order)
               for order, fn in op.terms)


class TestComposition:
    def test_canonical_commutator(self):
        assert operators_equal(d_op() * p_op(),
                               DiffOp.from_dict(0.0, {1: coeff_poly((0, 1)),
                                                      0: coeff_const(1.0)})).passed

    def test_commutator_is_exactly_one(self):
        bracket = commutator(d_op(), p_op())
        assert bracket.as_dict() == {0: coeff_const(1.0)}

    def test_euler_operator_squared(self):
        # (pD)(pD) = p^2 D^2 + p D, by hand via the product rule
        euler = p_op() * d_op()
        squared = euler * euler
        expected = DiffOp.from_dict(0.0, {2: coeff_poly((0, 0, 1)),
                                          1: coeff_poly((0, 1))})
        assert operators_equal(squared, expected).passed

    def test_multiplication_operators(self):
        assert operators_equal(p_op() * p_op(),
                               DiffOp.from_dict(0.0, {0: coeff_poly((0, 0, 1))})).passed

    def test_poly_application_factorizes(self):
        rng = np.random.default_rng(11)
        f = Poly((0.5, -1.0, 0.0, 2.0))
        for _ in range(10):
            x = random_op(rng, 0.0, upow_range=(0, 1))
            y = random_op(rng, 0.0, upow_range=(0, 1))
            lhs = apply_to_poly(x * y, f)
            rhs = apply_to_poly(x, apply_to_poly(y, f))
            assert (lhs - rhs).max_abs() < 1e-10

    def test_composition_against_symbolic_oracle(self):
        rng = np.random.default_rng(12)
        t = sp.Symbol("t", real=True)
        smooth = sp.exp(-t ** 2 / 4 + t / 3)
        for beta in (0.0, 0.3):
            x = random_op(rng, beta, max_order=2)
            y = random_op(rng, beta, max_order=2)
            expected = apply_symbolic(x, apply_symbolic(y, smooth, t), t)
            got = apply_symbolic(x * y, smooth, t)
            for p0 in (-0.8, 0.6):
                diff = complex((expected - got).subs(t, p0).evalf())
                assert abs(diff) < 1e-10

    def test_associativity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = random_op(rng, 0.0, max_order=3, max_degree=3)
            y = random_op(rng, 0.0, max_order=3, max_degree=3)
            z = random_op(rng, 0.0, max_order=3, max_degree=3)
            assert operators_equal((x * y) * z, x * (y * z)).residual < 1e-12

    def test_associativity_deformed(self):
        # coefficient magnitudes grow under u-power lifting, so the bound
        # is relative to the largest coefficient that appears
        rng = np.random.default_rng(14)
        for _ in range(10):
            x = random_op(rng, 0.7, max_order=3, max_degree=3)
            y = random_op(rng, 0.7, max_order=3, max_degree=3)
            z = random_op(rng, 0.7, max_order=3, max_degree=3)
            left = (x * y) * z
            right = x * (y * z)
            scale = max(left.max_abs_coeff(), right.max_abs_coeff(), 1.0)
            assert operators_equal(left, right).residual < 1e-12 * scale


# ----------------------------------------------------------- commutators of x and p


class TestCanonicalPairs:
    def test_position_momentum_commutator(self):
        x = DiffOp.from_dict(0.0, {1: coeff_const(1j)})  # i*D at hbar = 1
        bracket = commutator(x, p_op())
        assert operators_equal(bracket, const_op(1j)).passed

    def test_position_momentum_anticommutator(self):
        x = DiffOp.from_dict(0.0, {1: coeff_const(1j)})
        expected = DiffOp.from_dict(0.0, {1: coeff_poly((0, 2j)),
                                          0: coeff_const(1j)})
        assert operators_equal(anticommutator(x, p_op()), expected).passed

    def test_self_commutator_vanishes(self):
        assert commutator(p_op(), p_op()).is_zero


# ------------------------------------------------------------------------ adjoints


class TestAdjoint:
    def test_derivative_is_antisymmetric(self):
        assert operators_equal(d_op().adjoint(), -1.0 * d_op()).passed

    def test_euler_operator(self):
        # (pD)^+ = -pD - 1, i.e. -D o p normal-ordered
        euler = p_op() * d_op()
        expected = DiffOp.from_dict(0.0, {1: coeff_poly((0, -1)),
                                          0: coeff_const(-1.0)})
        assert operators_equal(euler.adjoint(), expected).passed

    def test_deformed_position_antisymmetric_flat(self):
        # u*D is deformed-measure antisymmetric: ((1+bp^2)D)^+ = -(1+bp^2)D
        beta = 0.1
        ud = DiffOp.from_dict(beta, {1: CoeffFn(Poly((1.0,)), 1, beta)})
        assert operators_equal(ud.adjoint(), -1.0 * ud).residual < 1e-15

    def test_involution_and_product_reversal(self):
        rng = np.random.default_rng(21)
        for beta in (0.0, 0.4):
            for _ in range(8):
                x = random_op(rng, beta)
                y = random_op(rng, beta)
                assert operators_equal(x.adjoint().adjoint(), x).residual < 1e-11
                lhs = (x * y).adjoint()
                rhs = y.adjoint() * x.adjoint()
                assert operators_equal(lhs, rhs).residual < 1e-11

    def test_real_multiplication_operator_fixed(self):
        for beta in (0.0, 0.5):
            mult = DiffOp.from_dict(beta, {0: coeff_poly((1.0, 0.0, 2.5), beta)})
            assert operators_equal(mult.adjoint(), mult).residual < 1e-15

    def test_quadrature_oracle(self):
        # <A f, g> == <f, A^+ g> under dp/(1+beta*p^2) by numerical
        # integration over Gaussian probes with analytic derivatives
        rng = np.random.default_rng(22)
        p = np.linspace(-12, 12, 4001)

        def gaussian_derivs(center, s2):
            base = np.exp(-((p - center) ** 2) / (2 * s2))
            d1 = -(p - center) / s2 * base
            d2 = ((p - center) ** 2 / s2 ** 2 - 1.0 / s2) * base
            return [base, d1, d2]

        f = gaussian_derivs(0.4, 1.0)
        g = gaussian_derivs(-0.3, 1.25)
        for beta in (0.0, 0.3):
            weight = 1.0 / (1.0 + beta * p * p)
            op = random_op(rng, beta)
            adj = op.adjoint()

            def apply(operator, derivs):
                result = np.zeros_like(p, dtype=complex)
                for order, fn in operator.terms:
                    result += fn(p) * derivs[order]
                return result

            lhs = np.trapezoid(weight * np.conj(apply(op, f)) * g[0], p)
            rhs = np.trapezoid(weight * np.conj(f[0]) * apply(adj, g), p)
            assert abs(lhs - rhs) < 1e-9


# ------------------------------------------------------------------- conjugations


class TestGaussianConjugation:
    def test_derivative_image(self):
        expected = DiffOp.from_dict(0.0, {1: coeff_const(1.0),
                                          0: coeff_poly((0, -2.0))})
        assert operators_equal(d_op().conjugate_gaussian(1.0), expected).passed

    def test_multiplication_fixed(self):
        assert operators_equal(p_op().conjugate_gaussian(0.7), p_op()).passed

    def test_symbolic_sandwich_oracle(self):
        # e^(a p^2) X e^(-a p^2) f  ==  conjugated(X) f, exactly in sympy
        rng = np.random.default_rng(31)
        alpha = 0.6
        t = sp.Symbol("t", real=True)
        smooth = sp.exp(-t ** 2 / 3 + t / 5)
        x = random_op(rng, 0.0)
        conjugated = x.conjugate_gaussian(alpha)
        expected = sp.exp(alpha * t ** 2) \
            * apply_symbolic(x, sp.exp(-alpha * t ** 2) * smooth, t)
        got = apply_symbolic(conjugated, smooth, t)
        for p0 in (-0.9, 0.5):
            diff = complex((expected - got).subs(t, p0).evalf())
            assert abs(diff) < 1e-10

    def test_automorphism(self):
        rng = np.random.default_rng(32)
        alpha = 0.8
        for _ in range(8):
            x = random_op(rng, 0.0)
            y = random_op(rng, 0.0)
            lhs = (x * y).conjugate_gaussian(alpha)
            rhs = x.conjugate_gaussian(alpha) * y.conjugate_gaussian(alpha)
            assert operators_equal(lhs, rhs).residual < 1e-11
            back = x.conjugate_gaussian(alpha).conjugate_gaussian(-alpha)
            assert operators_equal(back, x).residual < 1e-11
            assert operators_equal(x.conjugate_gaussian(0.0), x).residual == 0.0

    def test_requires_flat_beta(self):
        with pytest.raises(ValueError, match="beta = 0"):
            d_op(0.1).conjugate_gaussian(1.0)


class TestPowerMetricConjugation:
    def test_derivative_image(self):
        beta = 0.1
        expected = DiffOp.from_dict(beta, {
            1: coeff_const(1.0, beta),
            0: CoeffFn(Poly((0.0, -0.2)), -1, beta),
        })
        assert operators_equal(d_op(beta).conjugate_power_metric(1.0),
                               expected).passed

    def test_multiplication_fixed(self):
        beta = 0.1
        psq = DiffOp.from_dict(beta, {0: coeff_poly((0, 0, 1.0), beta)})
        assert operators_equal(psq.conjugate_power_metric(4.2), psq).passed

    def test_integer_exponent_sandwich_oracle(self):
        # for integer e the metric u^e lives inside the algebra, so the
        # conjugation can be cross-checked as an exact operator product
        rng = np.random.default_rng(33)
        beta = 0.3
        for exponent in (1, 2, 3):
            metric = DiffOp.from_dict(beta, {0: CoeffFn(Poly((1.0,)), exponent, beta)})
            inverse = DiffOp.from_dict(beta, {0: CoeffFn(Poly((1.0,)), -exponent, beta)})
            for _ in range(5):
                x = random_op(rng, beta)
                direct = x.conjugate_power_metric(float(exponent))
                sandwich = metric * x * inverse
                assert operators_equal(direct, sandwich).residual < 1e-11

    def test_automorphism(self):
        rng = np.random.default_rng(34)
        beta, exponent = 0.2, 5.0
        for _ in range(8):
            x = random_op(rng, beta)
            y = random_op(rng, beta)
            lhs = (x * y).conjugate_power_metric(exponent)
            rhs = x.conjugate_power_metric(exponent) * y.conjugate_power_metric(exponent)
            assert operators_equal(lhs, rhs).residual < 1e-10
            back = x.conjugate_power_metric(exponent).conjugate_power_metric(-exponent)
            assert operators_equal(back, x).residual < 1e-10

    def test_requires_deformation(self):
        with pytest.raises(ValueError, match="beta > 0"):
            d_op().conjugate_power_metric(1.0)


# ------------------------------------------------------------------- equality


class TestEquality:
    def test_reflexive(self):
        rng = np.random.default_rng(41)
        x = random_op(rng, 0.5)
        cmp = operators_equal(x, x)
        assert cmp.passed and cmp.residual == 0.0

    def test_same_canonical_form(self):
        lhs = DiffOp.from_dict(0.0, {1: coeff_poly((0, 1)), 0: coeff_const(1.0)})
        assert operators_equal(lhs, d_op() * p_op()).residual == 0.0

    def test_difference_reported(self):
        cmp = operators_equal(p_op() * d_op(), zero_op())
        assert not cmp.passed
        assert cmp.residual == 1.0
        assert isinstance(cmp, OpComparison)
        assert cmp.difference.coeff(1).poly == Poly((0, 1))

    def test_beta_mismatch_rejected(self):
        with pytest.raises(ValueError, match="beta mismatch"):
            operators_equal(d_op(0.1), d_op(0.2))


# --------------------------------------------------------------------- printing


class TestPrinting:
    def test_zero(self):
        assert str(zero_op()) == "0"

    def test_quadratic_hamiltonian_layout(self):
        op = DiffOp.from_dict(0.0, {2: coeff_const(-0.5),
                                    1: coeff_poly((0, -1.0)),
                                    0: coeff_poly((-0.5, 0, 0.5))})
        assert str(op) == "(-0.5)·D^2 + (-1)·p·D + 0.5·p^2 + (-0.5)"

    def test_deformed_factor_rendered(self):
        beta = 0.1
        op = DiffOp.from_dict(beta, {1: CoeffFn(Poly((1.0,)), 1, beta)})
        assert "(1+0.1p^2)" in str(op)
