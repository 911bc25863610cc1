"""Tests for parameter validation and the named model operators."""

import math

import numpy as np
import pytest

from swanson.algebra import (
    CoeffFn,
    DiffOp,
    Poly,
    coeff_const,
    coeff_poly,
    commutator,
    operators_equal,
    p_op,
)
from swanson.checks import draw_params
from swanson.model import (
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

P1 = make_params(1.0, -0.5, 0.5)
P2 = make_params(2.0, 0.1, 0.4)


class TestParams:
    def test_mu_is_derived(self):
        assert P1.mu == 1.0
        assert abs(P2.mu - 0.3) < 1e-15

    def test_guard_rejects_omega_equal_lambda_plus_delta(self):
        with pytest.raises(ValueError, match="omega - lambda - delta"):
            make_params(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("kwargs,message", [
        (dict(omega=0.0, lam=0.0, delta=0.1), "omega"),
        (dict(omega=-1.0, lam=0.0, delta=0.1), "omega"),
        (dict(omega=1.0, lam=0.0, delta=0.1, m=0.0), "m must"),
        (dict(omega=1.0, lam=0.0, delta=0.1, hbar=-2.0), "hbar"),
        (dict(omega=1.0, lam=0.0, delta=0.1, beta=-0.5), "beta"),
        # m*hbar*omega*(omega-lam-delta) underflows to 0, or alpha overflows
        (dict(omega=1.0, lam=-0.5, delta=0.5, m=1e-200, hbar=1e-200),
         "metric exponent undefined"),
        (dict(omega=1.0, lam=-0.5, delta=0.5, m=1e-160, hbar=1e-160),
         "metric exponent undefined"),
        (dict(omega=1.0, lam=-0.5, delta=0.5, m=1e-310),
         "metric exponent undefined"),
    ])
    def test_named_violations(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            make_params(**kwargs)

    def test_with_beta_recomputes_nothing_else(self):
        deformed = with_beta(P1, 0.1)
        assert deformed.beta == 0.1
        assert deformed.mu == P1.mu

    def test_regime_detection(self):
        assert in_reduced_regime(P1)
        assert not in_reduced_regime(P2)
        assert not in_reduced_regime(make_params(1.0, -0.5, 0.5, m=2.0))


class TestLadder:
    def test_p1_annihilation_operator(self):
        a, _ = ladder_ops(P1)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(a.coeff(1).poly.coeffs[0] - inv_sqrt2) < 1e-15
        assert abs(a.coeff(0).poly.coeffs[1] - inv_sqrt2) < 1e-15

    def test_canonical_commutation(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            params = draw_params(rng)
            a, adag = ladder_ops(params)
            assert operators_equal(commutator(a, adag),
                                   DiffOp.from_dict(0.0, {0: coeff_const(1.0)})
                                   ).residual < 1e-12

    def test_creation_is_adjoint_of_annihilation(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            params = draw_params(rng)
            a, adag = ladder_ops(params)
            assert operators_equal(a.adjoint(), adag).residual < 1e-13

    def test_requires_flat_beta(self):
        with pytest.raises(ValueError, match="beta = 0"):
            ladder_ops(with_beta(P1, 0.1))


class TestExpansion:
    def test_p1_and_p2(self):
        for params in (P1, P2):
            cmp = operators_equal(h_ladder(params), h_quadratic(params))
            assert cmp.residual < 1e-12

    def test_random_draws(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            params = draw_params(rng)
            assert operators_equal(h_ladder(params),
                                   h_quadratic(params)).residual < 1e-12

    def test_hermitian_when_lambda_equals_delta(self):
        params = make_params(1.0, 0.3, 0.3)
        h = h_quadratic(params)
        assert operators_equal(h, h.adjoint()).residual < 1e-13

    def test_reduces_to_oscillator(self):
        params = make_params(1.0, 0.0, 0.0)
        expected = DiffOp.from_dict(0.0, {2: coeff_const(-0.5),
                                          0: coeff_poly((0.0, 0.0, 0.5))})
        assert operators_equal(h_quadratic(params), expected).residual < 1e-15


class TestReducedForms:
    def test_reduced_equals_quadratic(self):
        assert operators_equal(h_reduced(P1), h_quadratic(P1)).residual < 1e-12

    def test_difference_from_variant_is_mu_pd_plus_half_mu(self):
        difference = h_reduced(P1) - h_variant(P1)
        expected = DiffOp.from_dict(0.0, {1: coeff_poly((0.0, 1.0)),
                                          0: coeff_const(0.5)})
        assert operators_equal(difference, expected).residual < 1e-13
        assert operators_equal(difference,
                               reduced_variant_difference(P1)).residual < 1e-13

    def test_identical_when_mu_vanishes(self):
        params = make_params(1.3, 0.0, 0.0)
        assert operators_equal(h_reduced(params), h_variant(params)).passed

    def test_random_regime_draws(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            params = draw_params(rng, regime=True)
            assert operators_equal(h_reduced(params),
                                   h_quadratic(params)).residual < 1e-12
            difference = h_reduced(params) - h_variant(params)
            assert operators_equal(
                difference, reduced_variant_difference(params)).residual < 1e-12

    def test_regime_required(self):
        with pytest.raises(ValueError, match="lambda = -delta"):
            h_reduced(P2)
        with pytest.raises(ValueError, match="lambda = -delta"):
            h_variant(make_params(1.0, -0.5, 0.5, m=2.0))


class TestMomentumRepresentation:
    def test_p1_coefficients(self):
        c = momentum_rep_coeffs(P1)
        assert (c.Q, c.R, c.S, c.T) == (-0.5, -1.0, 0.5, -0.5)

    def test_p2_coefficients(self):
        c = momentum_rep_coeffs(P2)
        np.testing.assert_allclose([c.Q, c.R, c.S, c.T],
                                   [-1.5, -0.3, 0.625, -0.15], atol=1e-15)

    def test_t_is_half_r(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c = momentum_rep_coeffs(draw_params(rng))
            assert abs(c.T - c.R / 2.0) < 1e-15

    def test_operator_matches_quadratic_canonical_form(self):
        for params in (P1, P2):
            h0 = h0_momentum(params)
            assert operators_equal(h0, h_quadratic(params)).residual < 1e-12

    def test_adjoint_matches_closed_form(self):
        rng = np.random.default_rng(6)
        for params in [P1, P2] + [draw_params(rng) for _ in range(20)]:
            h0 = h0_momentum(params)
            assert operators_equal(h0.adjoint(),
                                   h0_adjoint_expected(params)).residual < 1e-12

    def test_self_adjoint_when_lambda_equals_delta(self):
        params = make_params(1.0, 0.3, 0.3)
        c, h0 = momentum_rep_coeffs(params), h0_momentum(params)
        assert c.R == 0.0 and c.T == 0.0
        assert operators_equal(h0, h0.adjoint()).residual < 1e-15


class TestDeformed:
    def test_p1_closed_form(self):
        # (omega+lam+delta)/(2 omega) p^2 - [(delta-lam)+beta omega (omega-lam-delta)] p u D
        # - (omega (omega-lam-delta)/2) u^2 D^2 - ((delta-lam+omega)/2) u + omega/2
        beta = 0.1
        params = with_beta(P1, beta)
        expected = (
            DiffOp.from_dict(beta, {0: coeff_poly((0.0, 0.0, 0.5), beta)})
            + DiffOp.from_dict(beta, {1: CoeffFn(Poly((0.0, -1.1)), 1, beta)})
            + DiffOp.from_dict(beta, {2: CoeffFn(Poly((-0.5,)), 2, beta)})
            + DiffOp.from_dict(beta, {0: CoeffFn(Poly((-1.0,)), 1, beta)})
            + DiffOp.from_dict(beta, {0: coeff_const(0.5, beta)})
        )
        assert operators_equal(h_deformed(params), expected).residual < 1e-13

    def test_flat_limit_matches_quadratic_termwise(self):
        tiny = 1e-12
        deformed = h_deformed(with_beta(P1, tiny))
        flat = h_quadratic(P1)
        samples = np.linspace(-3.0, 3.0, 7)
        for order in range(3):
            values = deformed.coeff(order)(samples)
            expected = flat.coeff(order)(samples)
            np.testing.assert_allclose(values, expected, atol=1e-8)

    def test_self_adjoint_when_lambda_equals_delta(self):
        params = make_params(1.0, 0.3, 0.3, beta=0.1)
        h = h_deformed(params)
        assert operators_equal(h, h.adjoint()).residual < 1e-13

    def test_requires_deformation(self):
        with pytest.raises(ValueError, match="beta > 0"):
            h_deformed(P1)

    def test_position_operator_symmetric_under_deformed_measure(self):
        params = with_beta(P1, 0.1)
        x = position_operator(params)
        assert operators_equal(x.adjoint(), x).residual < 1e-15

    def test_momentum_operator_symmetric(self):
        params = with_beta(P1, 0.1)
        p = p_op(params.beta)
        assert operators_equal(p.adjoint(), p).residual < 1e-15


class TestMetrics:
    def test_p1_power_exponent(self):
        assert abs(metric_exponent(with_beta(P1, 0.1)) - 10.0) < 1e-12

    def test_p1_gaussian_alpha(self):
        assert abs(gaussian_alpha(P1) - 1.0) < 1e-15

    def test_reduced_regime_alpha_is_mu_over_omega_squared(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            params = draw_params(rng, regime=True)
            alpha = gaussian_alpha(params)
            assert abs(alpha - params.mu / params.omega ** 2) < 1e-12

    def test_exponent_times_beta_is_alpha(self):
        rng = np.random.default_rng(9)
        for beta in (1e-6, 1e-3, 0.1, 1.0):
            for _ in range(10):
                params = draw_params(rng)
                alpha = gaussian_alpha(params)
                e = metric_exponent(with_beta(params, beta))
                assert abs(e * beta - alpha) < 1e-12 * max(1.0, abs(alpha))

    def test_identity_family_when_lambda_equals_delta(self):
        # omega < lam + delta makes the raw quotient 0.0/negative = -0.0
        for lam in (0.3, 0.6):
            flat = make_params(1.0, lam, lam)
            deformed = with_beta(flat, 0.1)
            for exponent in (gaussian_alpha(flat), metric_exponent(flat),
                             gaussian_alpha(deformed), metric_exponent(deformed)):
                assert exponent == 0.0 and math.copysign(1.0, exponent) == 1.0

    def test_beta_selects_the_exponent(self):
        # alpha at beta = 0, e = alpha/beta at beta > 0; alpha at any beta
        deformed = with_beta(P1, 0.1)
        assert metric_exponent(P1) == gaussian_alpha(P1)
        assert gaussian_alpha(deformed) == gaussian_alpha(P1)
        assert metric_exponent(deformed) == gaussian_alpha(P1) / 0.1


class TestOscillatorLevels:
    def test_p1_ladder(self):
        levels = oscillator_levels(P1, 3)
        np.testing.assert_allclose(
            levels, [math.sqrt(2) / 2, 3 * math.sqrt(2) / 2, 5 * math.sqrt(2) / 2],
            rtol=1e-15)

    def test_p2_ground_state(self):
        assert abs(oscillator_levels(P2, 1)[0] - 0.5 * math.sqrt(3.84)) < 1e-15

    def test_broken_reality_rejected(self):
        params = make_params(0.5, 0.45, 0.45)
        with pytest.raises(ValueError, match="omega\\^2"):
            oscillator_levels(params, 1)

    def test_descending_ladder_rejected(self):
        params = make_params(1.0, 1.3, -0.2)  # real ladder but omega < lam+delta
        with pytest.raises(ValueError, match="ascending"):
            oscillator_levels(params, 1)


class TestLadderObstruction:
    def test_ladder_applies(self):
        assert ladder_obstruction(P1) is None
        assert ladder_obstruction(P2) is None

    @pytest.mark.parametrize("params, reason", [
        (with_beta(P1, 0.1), "deformed model has no closed-form oracle here"),
        (make_params(0.5, 0.45, 0.45), "omega^2 <= 4*lambda*delta"),
        (make_params(1.0, 1.3, -0.2), "omega <= lambda + delta"),
        # both flat conditions fail: the first is named
        (make_params(1.0, 0.8, 0.5), "omega^2 <= 4*lambda*delta"),
        (make_params(1.0, 0.8, 0.5, beta=0.1),
         "deformed model has no closed-form oracle here"),
    ])
    def test_names_the_first_failing_condition(self, params, reason):
        assert ladder_obstruction(params) == reason
        # oscillator_levels refuses with the same reason, also at beta > 0
        with pytest.raises(ValueError) as raised:
            oscillator_levels(params, 1)
        assert str(raised.value).endswith(reason)
