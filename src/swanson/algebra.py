"""Exact algebra of momentum-space differential operators.

Everything in this module is a finite sum

    A = sum_b  f_b(p) * D^b,        D = d/dp,

whose coefficient functions have the closed form

    f_b(p) = P(p) * (1 + beta*p^2)^k

with ``P`` a complex polynomial and ``k`` an integer (negative powers
allowed).  This class is closed under all the operations the toolkit
needs: linear combinations, composition, formal adjoints with respect to
the measure dp/(1+beta*p^2) (the flat dp at beta = 0), and
conjugation by the Gaussian metric e^(alpha*p^2) or the power-law metric
(1+beta*p^2)^e.

Operators are kept normal-ordered (coefficient functions to the left,
derivative powers to the right), so identity of two operators reduces to
coefficient-wise comparison of their canonical forms.  Coefficients are
complex floats and comparisons are tolerance based; parameters such as
1/sqrt(2*m*hbar*omega) are irrational, so exact rational arithmetic would
not cover them.

A coefficient may also be a 1-D complex array over a batch of parameter
draws that share beta: one operator then stands for one operator per
draw, and the randomized checks build and compare all their draws in one
pass.  Every arithmetic step rounds each draw exactly as the scalar path
does (products are formed from real and imaginary parts, magnitudes with
hypot), pruning acts per draw, and a coefficient, term or trailing power
is dropped only when it vanishes for every draw.  Operators over a batch
are only compared, never evaluated on a grid or printed.

All values are immutable; operations are pure functions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import comb
from typing import Iterable, Mapping

import numpy as np

# Stored coefficients at or below this magnitude are snapped to exact zero.
# Distinct from comparison tolerances: this only keeps canonical forms free
# of numerical dust.
PRUNE_EPS = 1e-15

# Absolute tolerance of every operator comparison.
DEFAULT_TOL = 1e-12


# What may multiply a Poly, CoeffFn or DiffOp: a number, or an array over
# a batch of draws.
_SCALARS = (numbers.Number, np.ndarray)


def _require_same_beta(a: float, b: float) -> None:
    if a != b:
        raise ValueError(f"beta mismatch: {a!r} vs {b!r}")


def _complex(c):
    """A number as complex, an array over draws as a complex array."""
    if isinstance(c, np.ndarray):
        return np.asarray(c, dtype=complex)
    return complex(c)


def _coefficient(c):
    """Pruned stored coefficient: complex, or a read-only array per draw."""
    c = _complex(c)
    small = _magnitude(c) <= PRUNE_EPS
    if not isinstance(c, np.ndarray):
        return 0j if small else c
    c = np.where(small, 0j, c)
    c.setflags(write=False)
    return c


def _is_zero(c) -> bool:
    """True when the coefficient vanishes for every draw."""
    return not c.any() if isinstance(c, np.ndarray) else c == 0


def _product(a, b):
    """a*b, rounded per draw exactly like Python's complex product (numpy's
    complex multiply may fuse and round differently in the last bit)."""
    if not (isinstance(a, np.ndarray) or isinstance(b, np.ndarray)):
        return a * b
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def _magnitude(c):
    return np.hypot(c.real, c.imag) if isinstance(c, np.ndarray) else abs(c)


def _largest(values):
    """Maximum of non-negative values, 0.0 when there are none; per draw
    over batched values.  A NaN propagates instead of being skipped."""
    out = 0.0
    for value in values:
        out = np.maximum(out, value)
    return out if isinstance(out, np.ndarray) else float(out)


@dataclass(frozen=True)
class Poly:
    """Complex polynomial in p; ``coeffs[j]`` multiplies p**j.

    Trailing (near-)zero coefficients are pruned on construction so the
    stored degree is minimal; the zero polynomial is the empty tuple.
    """

    coeffs: tuple = ()

    __array_ufunc__ = None  # ndarray * Poly defers to __rmul__

    def __post_init__(self):
        cleaned = [_coefficient(c) for c in self.coeffs]
        while cleaned and _is_zero(cleaned[-1]):
            cleaned.pop()
        object.__setattr__(self, "coeffs", tuple(cleaned))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0j] * (n - len(self.coeffs))
        for j, c in enumerate(other.coeffs):
            a[j] = a[j] + c
        return Poly(tuple(a))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.is_zero or other.is_zero:
                return Poly()
            out = [0j] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + _product(a, b)
            return Poly(tuple(out))
        if isinstance(other, _SCALARS):
            factor = _complex(other)
            return Poly(tuple(_product(factor, c) for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = Poly((1.0,))
        for _ in range(k):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        return Poly(tuple(j * c for j, c in enumerate(self.coeffs) if j > 0))

    def conjugate(self) -> "Poly":
        return Poly(tuple(c.conjugate() for c in self.coeffs))

    def __call__(self, p):
        """Evaluate at a scalar or numpy array by Horner's rule."""
        out = 0j if not hasattr(p, "shape") else p * 0j
        for c in reversed(self.coeffs):
            out = out * p + c
        return out

    def max_abs(self):
        return _largest(_magnitude(c) for c in self.coeffs)


@dataclass(frozen=True)
class CoeffFn:
    """Coefficient function P(p) * (1 + beta*p^2)**upow.

    The pair (poly, upow) is canonical for fixed beta: sums are reduced to
    the minimal power of u = 1 + beta*p^2 among the operands by expanding
    the (polynomial) excess powers.  At beta = 0, u is identically 1 and
    upow is normalized to 0.
    """

    poly: Poly
    upow: int = 0
    beta: float = 0.0

    __array_ufunc__ = None  # ndarray * CoeffFn defers to __rmul__

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
        if self.beta == 0.0 or self.poly.is_zero:
            object.__setattr__(self, "upow", 0)

    def _u(self) -> Poly:
        return Poly((1.0, 0.0, self.beta))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def _lifted(self, target_upow: int) -> Poly:
        # rewrite at a smaller upow by multiplying the excess u powers in
        excess = self.upow - target_upow
        if excess < 0:
            raise ValueError("can only lift toward smaller upow")
        return self.poly * (self._u() ** excess)

    def __add__(self, other: "CoeffFn") -> "CoeffFn":
        _require_same_beta(self.beta, other.beta)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        k = min(self.upow, other.upow)
        return CoeffFn(self._lifted(k) + other._lifted(k), k, self.beta)

    def __neg__(self) -> "CoeffFn":
        return CoeffFn(-self.poly, self.upow, self.beta)

    def __sub__(self, other: "CoeffFn") -> "CoeffFn":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CoeffFn):
            _require_same_beta(self.beta, other.beta)
            return CoeffFn(self.poly * other.poly, self.upow + other.upow, self.beta)
        if isinstance(other, _SCALARS):
            return CoeffFn(self.poly * other, self.upow, self.beta)
        return NotImplemented

    __rmul__ = __mul__

    def derivative(self) -> "CoeffFn":
        """d/dp [P * u^k] = (P' u + 2 k beta p P) * u^(k-1)."""
        if self.upow == 0:
            return CoeffFn(self.poly.derivative(), 0, self.beta)
        bump = Poly((0.0, 2.0 * self.upow * self.beta))
        return CoeffFn(self.poly.derivative() * self._u() + bump * self.poly,
                       self.upow - 1, self.beta)

    def conjugate(self) -> "CoeffFn":
        return CoeffFn(self.poly.conjugate(), self.upow, self.beta)

    def __call__(self, p):
        value = self.poly(p)
        if self.upow != 0:
            value = value * (1.0 + self.beta * p * p) ** self.upow
        return value

    def max_abs(self):
        return self.poly.max_abs()


def coeff_const(value, beta: float = 0.0) -> CoeffFn:
    return CoeffFn(Poly((value,)), 0, beta)


def coeff_poly(coeffs: Iterable, beta: float = 0.0) -> CoeffFn:
    return CoeffFn(Poly(tuple(coeffs)), 0, beta)


@dataclass(frozen=True)
class DiffOp:
    """Normal-ordered differential operator sum_b f_b(p) * D^b.

    ``terms`` maps derivative order b (a non-negative integer) to its
    CoeffFn; terms that vanish within the pruning tolerance are never
    stored, and every stored CoeffFn carries the operator's beta.
    """

    beta: float = 0.0
    terms: tuple = ()  # sorted ((order, CoeffFn), ...)

    __array_ufunc__ = None  # ndarray * DiffOp defers to __rmul__

    def __post_init__(self):
        kept = []
        last_order = None
        for order, fn in sorted(self.terms, key=lambda item: item[0]):
            order = int(order)
            if order < 0:
                raise ValueError("derivative order must be non-negative")
            if order == last_order:
                raise ValueError(f"duplicate term at derivative order {order}")
            last_order = order
            _require_same_beta(fn.beta, self.beta)
            if not fn.is_zero:
                kept.append((order, fn))
        object.__setattr__(self, "terms", tuple(kept))

    # -- construction helpers -------------------------------------------------

    @staticmethod
    def from_dict(beta: float, mapping: Mapping[int, CoeffFn]) -> "DiffOp":
        return DiffOp(beta, tuple(mapping.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def order(self) -> int:
        """Highest stored derivative order; -1 for the zero operator."""
        return self.terms[-1][0] if self.terms else -1

    def as_dict(self) -> dict:
        return dict(self.terms)

    def coeff(self, order: int) -> CoeffFn:
        for b, fn in self.terms:
            if b == order:
                return fn
        return CoeffFn(Poly(), 0, self.beta)

    # -- linear structure ------------------------------------------------------

    def __add__(self, other: "DiffOp") -> "DiffOp":
        if not isinstance(other, DiffOp):
            return NotImplemented
        _require_same_beta(self.beta, other.beta)
        out = self.as_dict()
        for b, fn in other.terms:
            out[b] = out[b] + fn if b in out else fn
        return DiffOp.from_dict(self.beta, out)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.beta, tuple((b, -fn) for b, fn in self.terms))

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, DiffOp):
            return self._compose(other)
        if isinstance(other, _SCALARS):
            return DiffOp(self.beta, tuple((b, fn * other) for b, fn in self.terms))
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, _SCALARS):
            return self.__mul__(other)
        return NotImplemented

    # -- composition -----------------------------------------------------------

    def _compose(self, other: "DiffOp") -> "DiffOp":
        """Operator product by the Leibniz rule.

        (f D^a)(g D^b) = sum_{j=0..a} C(a,j) * f * g^(j) * D^(a+b-j),
        which is the normal-ordered form of the composition.
        """
        _require_same_beta(self.beta, other.beta)
        out: dict = {}
        max_a = self.order
        for b, g in other.terms:
            g_derivs = [g]
            for _ in range(max_a):
                g_derivs.append(g_derivs[-1].derivative())
            for a, f in self.terms:
                for j in range(a + 1):
                    fn = f * g_derivs[j] * comb(a, j)
                    key = a + b - j
                    out[key] = out[key] + fn if key in out else fn
        return DiffOp.from_dict(self.beta, out)

    # -- adjoints ----------------------------------------------------------------

    def adjoint(self) -> "DiffOp":
        """Formal adjoint under the operator's own measure dp/(1+beta*p^2),
        which is the flat measure dp at beta = 0.

        Built from the flat-measure rule (f D^b)^+ = (-1)^b D^b o conj(f),
        followed at beta > 0 by the sandwich u o A^+ o u^(-1) with
        u = 1 + beta*p^2.
        """
        flat = zero_op(self.beta)
        for b, fn in self.terms:
            d_power = DiffOp.from_dict(self.beta, {b: coeff_const(1.0, self.beta)})
            mult = DiffOp.from_dict(self.beta, {0: fn.conjugate()})
            flat = flat + (-1) ** b * (d_power * mult)
        if self.beta == 0.0:
            return flat
        u_plus = DiffOp.from_dict(self.beta, {0: CoeffFn(Poly((1.0,)), 1, self.beta)})
        u_minus = DiffOp.from_dict(self.beta, {0: CoeffFn(Poly((1.0,)), -1, self.beta)})
        return u_plus * flat * u_minus

    # -- metric conjugations -------------------------------------------------------

    def _substitute_derivative(self, d_image: "DiffOp") -> "DiffOp":
        """Apply the automorphism p -> p, D -> d_image term by term."""
        powers = [identity_op(self.beta)]
        for _ in range(max(self.order, 0)):
            powers.append(powers[-1] * d_image)
        out = zero_op(self.beta)
        for b, fn in self.terms:
            out = out + DiffOp.from_dict(self.beta, {0: fn}) * powers[b]
        return out

    def conjugate_gaussian(self, alpha: float) -> "DiffOp":
        """Conjugation by e^(alpha*p^2): multiplication operators are fixed
        and D maps to D - 2*alpha*p.  Only defined at beta = 0."""
        if self.beta != 0.0:
            raise ValueError("gaussian conjugation requires beta = 0; "
                             "use conjugate_power_metric")
        d_image = DiffOp.from_dict(0.0, {
            1: coeff_const(1.0),
            0: coeff_poly((0.0, -2.0 * alpha)),
        })
        return self._substitute_derivative(d_image)

    def conjugate_power_metric(self, exponent: float) -> "DiffOp":
        """Conjugation by (1+beta*p^2)^exponent: multiplication operators are
        fixed and D maps to D - 2*exponent*beta*p*(1+beta*p^2)^(-1).
        Only defined at beta > 0."""
        if self.beta == 0.0:
            raise ValueError("power-metric conjugation requires beta > 0; "
                             "use conjugate_gaussian")
        d_image = DiffOp.from_dict(self.beta, {
            1: coeff_const(1.0, self.beta),
            0: CoeffFn(Poly((0.0, -2.0 * exponent * self.beta)), -1, self.beta),
        })
        return self._substitute_derivative(d_image)

    # -- inspection ------------------------------------------------------------

    def max_abs_coeff(self):
        """Largest coefficient magnitude; an array per draw for a batch."""
        return _largest(fn.max_abs() for _, fn in self.terms)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        pieces = []
        for b, fn in sorted(self.terms, key=lambda item: -item[0]):
            for j in range(fn.poly.degree, -1, -1):
                c = fn.poly.coeffs[j]
                if c == 0:
                    continue
                factors = [_format_coefficient(c)]
                if j == 1:
                    factors.append("p")
                elif j > 1:
                    factors.append(f"p^{j}")
                if fn.upow == 1:
                    factors.append(f"(1+{self.beta:g}p^2)")
                elif fn.upow != 0:
                    factors.append(f"(1+{self.beta:g}p^2)^{fn.upow}")
                if b == 1:
                    factors.append("D")
                elif b > 1:
                    factors.append(f"D^{b}")
                pieces.append("·".join(factors))
        return " + ".join(pieces)


def _format_coefficient(c: complex) -> str:
    if c.imag == 0.0:
        text = format(c.real, "g")
        return f"({text})" if c.real < 0 else text
    return f"({c.real:g}{c.imag:+g}j)"


# -- operator builders ------------------------------------------------------------


def zero_op(beta: float = 0.0) -> DiffOp:
    return DiffOp(beta, ())


def identity_op(beta: float = 0.0) -> DiffOp:
    return DiffOp.from_dict(beta, {0: coeff_const(1.0, beta)})


def const_op(value, beta: float = 0.0) -> DiffOp:
    return DiffOp.from_dict(beta, {0: coeff_const(value, beta)})


def p_op(beta: float = 0.0) -> DiffOp:
    """Multiplication by p."""
    return DiffOp.from_dict(beta, {0: coeff_poly((0.0, 1.0), beta)})


def d_op(beta: float = 0.0) -> DiffOp:
    """The derivative d/dp."""
    return DiffOp.from_dict(beta, {1: coeff_const(1.0, beta)})


def commutator(x: DiffOp, y: DiffOp) -> DiffOp:
    return x * y - y * x


def anticommutator(x: DiffOp, y: DiffOp) -> DiffOp:
    return x * y + y * x


@dataclass(frozen=True)
class OpComparison:
    """Outcome of an operator identity check.

    ``residual`` is the maximum absolute coefficient of the canonical
    difference; zero means the operators are identical.  Over a batch of
    draws ``residual`` and ``passed`` are per-draw arrays, or scalars when
    the difference vanishes for every draw.
    """

    passed: bool
    residual: float
    difference: DiffOp


def operators_equal(x: DiffOp, y: DiffOp) -> OpComparison:
    _require_same_beta(x.beta, y.beta)
    difference = x - y
    residual = difference.max_abs_coeff()
    return OpComparison(residual <= DEFAULT_TOL, residual, difference)
