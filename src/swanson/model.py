"""Construction of the Swanson-model operators, parameters and metrics.

The model is the non-Hermitian quadratic Hamiltonian

    H = omega * adag a + lam * a^2 + delta * adag^2 + omega/2,

with real lam != delta, built over the harmonic-oscillator ladder pair.
In the momentum representation the position operator is realized as
x = i*hbar*(1+beta*p^2)*D with p acting by multiplication; beta = 0 is
the undeformed case and beta > 0 the minimal-length deformation, whose
natural scalar product carries the weight 1/(1+beta*p^2).  With that
representation x is symmetric under the deformed measure, which is what
singles it out.

Everything here is a pure constructor over validated immutable inputs.
The builders also accept a ParamBatch of draws (all at beta = 0 or all at
beta > 0); the operators they return then carry one array per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .algebra import (
    CoeffFn,
    DiffOp,
    Poly,
    _is_zero,
    anticommutator,
    coeff_const,
    coeff_poly,
    commutator,
    const_op,
    p_op,
)

# Guards the metric-exponent denominator omega - lam - delta.
GUARD_EPS = 1e-9

# Tolerance used when deciding whether parameters sit in the reduced
# regime m = hbar = 1, lam = -delta.
REGIME_EPS = 1e-12
_REDUCED_REGIME = "m = hbar = 1 and lambda = -delta"


@dataclass(frozen=True)
class ModelParams:
    """Validated model parameters; ``mu`` is always delta - lam."""

    omega: float
    lam: float
    delta: float
    m: float = 1.0
    hbar: float = 1.0
    beta: float = 0.0
    mu: float = field(init=False)

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.omega, self.lam, self.delta,
                                              self.m, self.hbar, self.beta)):
            raise ValueError("parameters must be finite")
        if not self.omega > 0:
            raise ValueError("omega must be > 0")
        if not self.m > 0:
            raise ValueError("m must be > 0")
        if not self.hbar > 0:
            raise ValueError("hbar must be > 0")
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        object.__setattr__(self, "mu", self.delta - self.lam)
        try:  # gaussian_alpha(self) and metric_exponent(self), untraced
            # by perfbench; alpha/beta overflows for a tiny enough beta
            exponents = (_metric_exponent(self, 1.0),
                         _metric_exponent(self, self.beta or 1.0))
        except ZeroDivisionError:  # a denominator underflowed to 0
            exponents = (math.nan,)
        if (abs(self.omega - self.lam - self.delta) <= GUARD_EPS
                or not all(map(math.isfinite, exponents))):
            raise ValueError("m*hbar*omega*(omega - lambda - delta) too close "
                             "to zero (metric exponent undefined)")

    def to_dict(self) -> dict:
        """Every field in order, ``lam`` under its flag name ``lambda``."""
        return {"lambda" if f.name == "lam" else f.name: getattr(self, f.name)
                for f in fields(self)}


def make_params(omega, lam, delta, m=1.0, hbar=1.0, beta=0.0) -> ModelParams:
    """Validate raw reals into ModelParams; raises ValueError naming the
    violated invariant."""
    return ModelParams(float(omega), float(lam), float(delta),
                       float(m), float(hbar), float(beta))


def with_beta(params: ModelParams, beta: float) -> ModelParams:
    return replace(params, beta=float(beta))


@dataclass(frozen=True)
class ParamBatch:
    """ModelParams draws stacked field by field: every field, beta too, is
    a read-only 1-D array over the draws."""

    omega: np.ndarray
    lam: np.ndarray
    delta: np.ndarray
    m: np.ndarray
    hbar: np.ndarray
    beta: np.ndarray
    mu: np.ndarray


def stack_params(draws) -> ParamBatch:
    """Stack ModelParams, all at beta = 0 or all at beta > 0, into a batch."""
    if len({params.beta == 0.0 for params in draws}) != 1:
        raise ValueError("a batch needs draws, all at beta = 0 or all at beta > 0")
    columns = {}
    for name in (f.name for f in fields(ParamBatch)):
        columns[name] = np.array([getattr(params, name) for params in draws])
        columns[name].setflags(write=False)
    return ParamBatch(**columns)


def in_reduced_regime(params: ModelParams | ParamBatch) -> bool:
    """True when m = hbar = 1 and lam = -delta (for every draw of a batch)."""
    return bool(np.all((abs(params.m - 1.0) <= REGIME_EPS)
                       & (abs(params.hbar - 1.0) <= REGIME_EPS)
                       & (abs(params.lam + params.delta) <= REGIME_EPS)))


def _require(holds: bool, what: str, condition: str) -> None:
    if not holds:
        raise ValueError(f"{what} requires {condition}")


# -- elementary operators -----------------------------------------------------


def position_operator(params: ModelParams) -> DiffOp:
    """x = i*hbar*(1+beta*p^2)*D; the factor is identically 1 at beta = 0."""
    fn = CoeffFn(Poly((1j * params.hbar,)), 1, params.beta)
    return DiffOp.from_dict(params.beta, {1: fn})


def ladder_ops(params: ModelParams) -> tuple[DiffOp, DiffOp]:
    """Annihilation/creation pair (a, adag) with [a, adag] = 1.

    a    = (p - i*omega*m*x) / sqrt(2*m*hbar*omega)
    adag = (p + i*omega*m*x) / sqrt(2*m*hbar*omega)
    """
    _require(_is_zero(params.beta), "ladder_ops", "beta = 0")
    # np.sqrt is correctly rounded like math.sqrt, and takes a batch too
    c = 1.0 / np.sqrt(2.0 * params.m * params.hbar * params.omega)
    p = p_op(params.beta)
    x = position_operator(params)
    a = c * (p - (1j * params.omega * params.m) * x)
    adag = c * (p + (1j * params.omega * params.m) * x)
    return a, adag


# -- Hamiltonians ---------------------------------------------------------------


def h_ladder(params: ModelParams) -> DiffOp:
    """omega*adag*a + lam*a^2 + delta*adag^2 + omega/2, expanded by
    operator composition."""
    _require(_is_zero(params.beta), "h_ladder", "beta = 0")
    a, adag = ladder_ops(params)
    return (params.omega * (adag * a)
            + params.lam * (a * a)
            + params.delta * (adag * adag)
            + const_op(params.omega / 2.0, params.beta))


def _quadratic_form(params: ModelParams) -> DiffOp:
    """The quadratic form in x and p equivalent to the ladder form:

    (1/(2 m hbar omega)) * [ (omega+lam+delta) p^2
                             + i m omega (delta-lam-omega) p x
                             + i m omega (delta-lam+omega) x p
                             + m^2 omega^2 (omega-lam-delta) x^2 ] + omega/2
    """
    om, lm, dl = params.omega, params.lam, params.delta
    m, hbar = params.m, params.hbar
    p = p_op(params.beta)
    x = position_operator(params)
    core = ((om + lm + dl) * (p * p)
            + (1j * m * om * (dl - lm - om)) * (p * x)
            + (1j * m * om * (dl - lm + om)) * (x * p)
            + (m * m * om * om * (om - lm - dl)) * (x * x))
    return (1.0 / (2.0 * m * hbar * om)) * core + const_op(om / 2.0, params.beta)


def h_quadratic(params: ModelParams) -> DiffOp:
    """Undeformed quadratic form; equals h_ladder identically."""
    _require(_is_zero(params.beta), "h_quadratic", "beta = 0")
    return _quadratic_form(params)


def h_deformed(params: ModelParams) -> DiffOp:
    """Quadratic form with the minimal-length position operator substituted.

    For m = hbar = 1 the expansion collapses to

        (omega+lam+delta)/(2 omega) * p^2
        - [(delta-lam) + beta*omega*(omega-lam-delta)] * p*u*D
        - (omega*(omega-lam-delta)/2) * u^2*D^2
        - ((delta-lam+omega)/2) * u + omega/2,     u = 1 + beta*p^2.
    """
    _require(not _is_zero(params.beta), "h_deformed", "beta > 0")
    return _quadratic_form(params)


def h_reduced(params: ModelParams) -> DiffOp:
    """Reduced Hamiltonian for m = hbar = 1, lam = -delta:

    p^2/2 + omega^2 x^2/2 + i(mu/2){x,p} + i(omega/2)[x,p] + omega/2.

    The commutator term contributes -omega/2 and cancels the additive
    omega/2, which fixes the sign convention x = +i*hbar*u*D.
    """
    _require(in_reduced_regime(params), "h_reduced", _REDUCED_REGIME)
    om, mu = params.omega, params.mu
    p = p_op(params.beta)
    x = position_operator(params)
    return (0.5 * (p * p)
            + (0.5 * om * om) * (x * x)
            + (0.5j * mu) * anticommutator(x, p)
            + (0.5j * om) * commutator(x, p)
            + const_op(om / 2.0, params.beta))


def h_variant(params: ModelParams) -> DiffOp:
    """Companion reduced form carrying the anticommutator at full strength:

    p^2/2 + omega^2 x^2/2 + i*mu*{x,p}.

    Differs from h_reduced by mu*p*u*D + (mu/2)*u (= mu*p*D + mu/2 at
    beta = 0); the two coincide exactly when mu = 0.
    """
    _require(in_reduced_regime(params), "h_variant", _REDUCED_REGIME)
    om, mu = params.omega, params.mu
    p = p_op(params.beta)
    x = position_operator(params)
    return (0.5 * (p * p)
            + (0.5 * om * om) * (x * x)
            + (1j * mu) * anticommutator(x, p))


def reduced_variant_difference(params: ModelParams) -> DiffOp:
    """Closed form of h_reduced - h_variant: mu*p*u*D + (mu/2)*u."""
    _require(in_reduced_regime(params), "reduced_variant_difference", _REDUCED_REGIME)
    mu, beta = params.mu, params.beta
    return DiffOp.from_dict(beta, {
        1: CoeffFn(Poly((0.0, mu)), 1, beta),
        0: CoeffFn(Poly((0.5 * mu,)), 1, beta),
    })


# -- momentum representation of the undeformed Hamiltonian -----------------------


@dataclass(frozen=True)
class MomentumRepCoeffs:
    """Coefficients of H0 = Q*D^2 + R*p*D + S*p^2 + T; T = R/2 always."""

    Q: float
    R: float
    S: float
    T: float


def momentum_rep_coeffs(params: ModelParams) -> MomentumRepCoeffs:
    om, lm, dl = params.omega, params.lam, params.delta
    m, hbar = params.m, params.hbar
    return MomentumRepCoeffs(
        Q=-(m * hbar * om / 2.0) * (om - lm - dl),
        R=lm - dl,
        S=(om + lm + dl) / (2.0 * m * hbar * om),
        T=(lm - dl) / 2.0,
    )


def _momentum_form(Q, R, S, T) -> DiffOp:
    """Q*D^2 + R*p*D + S*p^2 + T at beta = 0."""
    return DiffOp.from_dict(0.0, {
        2: coeff_const(Q),
        1: coeff_poly((0.0, R)),
        0: coeff_poly((T, 0.0, S)),
    })


def h0_momentum(params: ModelParams) -> DiffOp:
    """Undeformed Hamiltonian assembled directly from its printed
    momentum-space coefficients."""
    _require(_is_zero(params.beta), "h0_momentum", "beta = 0")
    c = momentum_rep_coeffs(params)
    return _momentum_form(c.Q, c.R, c.S, c.T)


def h0_adjoint_expected(params: ModelParams) -> DiffOp:
    """Flat-measure adjoint of H0 in closed form: Q*D^2 - R*p*D + S*p^2 - T."""
    _require(_is_zero(params.beta), "h0_adjoint_expected", "beta = 0")
    c = momentum_rep_coeffs(params)
    return _momentum_form(c.Q, -c.R, c.S, -c.T)


# -- metric operators --------------------------------------------------------------


def _metric_exponent(params: ModelParams | ParamBatch, beta_factor: float):
    """mu / (m*hbar*omega*(omega-lam-delta)*beta_factor).  Adding 0.0 turns
    the -0.0 of lam = delta, omega < lam + delta into 0.0."""
    return params.mu / (params.m * params.hbar * params.omega
                        * (params.omega - params.lam - params.delta)
                        * beta_factor) + 0.0


def gaussian_alpha(params: ModelParams | ParamBatch):
    """Gaussian metric coefficient alpha = mu / (m*hbar*omega*(omega-lam-delta)),
    at any beta: the beta -> 0 limit of the power-law family
    (metric_exponent(params)*beta = alpha).

    In the reduced regime alpha = mu / omega^2.
    """
    return _metric_exponent(params, 1.0)


def metric_exponent(params: ModelParams | ParamBatch):
    """Exponent of the metric mapping H to its adjoint under dp/(1+beta*p^2):
    alpha of the Gaussian e^(alpha*p^2) at beta = 0, e = alpha/beta of the
    power law (1+beta*p^2)^e at beta > 0; 0 (lam = delta) is the identity."""
    return _metric_exponent(params, 1.0 if _is_zero(params.beta) else params.beta)


def ladder_obstruction(params: ModelParams) -> str | None:
    """None where the hermitized H0 is an oscillator with a real ascending
    ladder (beta = 0, omega^2 > 4*lam*delta, omega > lam + delta), so
    oscillator_levels applies; otherwise the first condition that fails."""
    if params.beta != 0.0:
        return "deformed model has no closed-form oracle here"
    # a product overflows to inf where ** would raise OverflowError
    if not params.omega * params.omega > 4.0 * params.lam * params.delta:
        return "omega^2 <= 4*lambda*delta"
    if not params.omega - params.lam - params.delta > 0.0:
        return "omega <= lambda + delta"
    return None


def oscillator_levels(params: ModelParams, count: int):
    """Closed-form low-lying spectrum (n + 1/2)*sqrt(omega^2 - 4*lam*delta).

    Obtained by hermitizing H0 with the half-power Gaussian metric, which
    removes the p*D term and leaves Q*D^2 + (S - R^2/(4Q))*p^2 with
    |Q|*(S - R^2/(4Q)) = (omega^2 - 4*lam*delta)/4; m and hbar cancel.
    Raises ValueError naming ladder_obstruction(params) if there is one.
    """
    obstruction = ladder_obstruction(params)
    if obstruction is not None:
        raise ValueError(f"no real ascending oscillator ladder: {obstruction}")
    root = math.sqrt(params.omega * params.omega
                     - 4.0 * params.lam * params.delta)
    return [(n + 0.5) * root for n in range(count)]
