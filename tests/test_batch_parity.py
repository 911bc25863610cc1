"""The randomized symbolic checks run all their draws as one batch through
the operator algebra; every per-draw residual must equal, bit for bit, the
scalar loop in ``oracles`` over the same draws."""

import numpy as np
import pytest

import swanson.checks as checks
from swanson.algebra import PRUNE_EPS, DiffOp, Poly, const_op, d_op, p_op
from swanson.model import h_deformed, make_params, stack_params, with_beta

import oracles

SEEDS = (0, 1, 42)


def per_draw(values, sample):
    """A batched residual or flag as one entry per draw of ``sample``; an
    identity whose difference vanished for every draw gives a scalar."""
    return np.broadcast_to(values, (len(sample),))


def similarity_residuals(sample):
    return per_draw(checks._similarity_residuals(sample), sample)


def deformed_residuals(bases):
    """The residuals of the base draws deformed by each of the oracle's
    betas, one batch per beta: one row per draw and one column per beta."""
    return np.stack([similarity_residuals([with_beta(b, beta) for b in bases])
                     for beta in (0.01, 0.1, 1.0)], axis=1)


def poisoned(builder, draw):
    """``builder`` with a NaN added to the constant term of one draw."""
    def build(params):
        nan_at = np.where(np.arange(len(params.omega)) == draw, np.nan, 0.0)
        return builder(params) + const_op(nan_at, params.beta)
    return build


class TestAlgebra:
    def test_batched_arithmetic_rounds_like_the_scalar_path(self):
        # numpy's own complex multiply and abs differ from Python's in the
        # last bit for a large share of such values
        rng = np.random.default_rng(7)
        draws = 200
        a = [rng.standard_normal(draws) + 1j * rng.standard_normal(draws)
             for _ in range(3)]
        b = [rng.standard_normal(draws) + 1j * rng.standard_normal(draws)
             for _ in range(2)]
        product = Poly(tuple(a)) * Poly(tuple(b))
        magnitudes = product.max_abs()
        for k in range(draws):
            scalar = Poly(tuple(c[k] for c in a)) * Poly(tuple(c[k] for c in b))
            assert [c[k] for c in product.coeffs] == list(scalar.coeffs)
            assert magnitudes[k] == scalar.max_abs()

    def test_pruning_is_per_draw_and_trimming_needs_every_draw(self):
        poly = Poly((np.array([1.0, 0.5 * PRUNE_EPS]),
                     np.array([0.5 * PRUNE_EPS, 0.0])))
        assert poly.degree == 0
        np.testing.assert_array_equal(poly.coeffs[0], [1.0, 0.0])
        kept = Poly((1.0, np.array([0.0, 2.0])))
        assert kept.degree == 1
        with pytest.raises(ValueError):
            kept.coeffs[1][0] = 3.0  # stored coefficients are read-only

    def test_array_times_operator_is_a_batch_of_operators(self):
        factors = np.array([2.0, -0.5, 0.0])
        op = factors * (p_op() * d_op())
        assert isinstance(op, DiffOp)
        np.testing.assert_array_equal(op.coeff(1).poly.coeffs[1], factors)
        np.testing.assert_array_equal(op.max_abs_coeff(), [2.0, 0.5, 0.0])

    def test_stack_requires_one_beta(self):
        # one kind of beta: every beta zero or every beta positive
        p1 = make_params(1.0, -0.5, 0.5)
        with pytest.raises(ValueError, match="beta"):
            stack_params([p1, with_beta(p1, 0.1)])
        with pytest.raises(ValueError, match="draw"):
            stack_params([])


class TestPerDrawParity:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_expansion(self, seed):
        sample = oracles.expansion_sample(seed)
        expected = [oracles.expansion_residual(p) for p in sample]
        residuals = checks._expansion_residual(stack_params(sample))
        assert np.array_equal(per_draw(residuals, sample), expected)
        worst, worst_params = oracles.first_strict_maximum(sample, expected)
        result = checks.check_expansion_randomized(seed)
        assert result.residual == worst
        assert result.details.get("worst_params") == (
            None if worst_params is None else worst_params.to_dict())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_variant_with_forced_mu_zero_draw(self, seed):
        sample = oracles.variant_sample(seed)
        assert sample[0].mu == 0.0
        expected = [oracles.variant_residual(p) for p in sample]
        r_reduction, r_difference, difference = checks._variant_parts(
            stack_params(sample))
        residuals = per_draw(np.maximum(r_reduction, r_difference), sample)
        identical = per_draw(difference.max_abs_coeff() <= checks.SYMBOLIC_TOL,
                             sample)
        assert np.array_equal(residuals, [r for r, _ in expected])
        assert np.array_equal(identical, [flag for _, flag in expected])
        assert identical[0] and not identical[1:].any()
        result = checks.check_variant_discrepancy_randomized(seed)
        assert result.residual == max(r for r, _ in expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gaussian(self, seed):
        sample = oracles.gaussian_sample(seed)
        expected = [oracles.gaussian_residual(p) for p in sample]
        assert np.array_equal(similarity_residuals(sample), expected)
        result = checks.check_gaussian_similarity_randomized(seed)
        assert result.residual == max(expected)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_deformed(self, seed):
        bases = oracles.deformed_sample(seed)
        expected = oracles.deformed_residuals(bases)
        batched = deformed_residuals(bases)
        assert np.array_equal(batched, expected)
        result = checks.check_deformed_similarity_randomized(seed)
        assert result.residual == expected.max()

    def test_mixed_beta_batch(self):
        # the identity holds at every beta, so no report can tell a draw
        # evaluated at the wrong beta: only these bits can
        betas = checks.DEFORMED_BETAS
        for seed in SEEDS:
            bases = oracles.deformed_sample(seed)
            sample = [with_beta(base, beta) for beta in betas for base in bases]
            batch = stack_params(sample)
            assert np.array_equal(batch.beta, np.repeat(betas, len(bases)))
            with pytest.raises(ValueError):
                batch.beta[0] = 0.5  # a read-only column like the others
            mixed = similarity_residuals(sample).reshape(len(betas), -1).T
            assert np.array_equal(mixed, deformed_residuals(bases))
            assert np.array_equal(mixed, oracles.deformed_residuals(bases))
        with pytest.raises(ValueError, match="beta"):
            stack_params(sample + [with_beta(bases[0], 0.0)])

    def test_identity_metric_draws_inside_a_batch(self):
        # lam = delta gives exponent 0: the D-image term of those draws
        # prunes to zero while the rest of the batch keeps it
        bases = oracles.deformed_sample(5)
        bases[3] = make_params(1.2, 0.3, 0.3)
        bases[10] = make_params(0.8, -0.4, -0.4)
        expected = oracles.deformed_residuals(bases)
        assert np.array_equal(deformed_residuals(bases), expected)
        assert np.array_equal(similarity_residuals(bases),
                              [oracles.gaussian_residual(p) for p in bases])


@pytest.mark.usefixtures("fresh_checks")
class TestAggregation:
    def test_worst_params_absent_when_every_residual_is_zero(self, monkeypatch):
        monkeypatch.setattr(checks, "h_quadratic", checks.h_ladder)
        result = checks.check_expansion_randomized(3)
        assert result.residual == 0.0 and result.passed
        assert "worst_params" not in result.details

    def test_nan_draw_fails_expansion(self, monkeypatch):
        monkeypatch.setattr(checks, "h_quadratic", poisoned(checks.h_quadratic, 7))
        result = checks.check_expansion_randomized(3)
        assert np.isnan(result.residual) and not result.passed
        sample = oracles.expansion_sample(3)
        assert result.details["worst_params"] == sample[7].to_dict()

    def test_deformed_check_builds_one_batch(self, monkeypatch):
        built = []

        def counted(params):
            built.append(len(params.omega))
            return h_deformed(params)

        monkeypatch.setattr(checks, "h_deformed", counted)
        checks.check_deformed_similarity_randomized(3)
        assert built == [checks.DEFORMED_DRAWS * len(checks.DEFORMED_BETAS)]

    def test_nan_draw_fails_deformed(self, monkeypatch):
        monkeypatch.setattr(checks, "h_deformed", poisoned(checks.h_deformed, 2))
        result = checks.check_deformed_similarity_randomized(3)
        assert np.isnan(result.residual) and not result.passed
