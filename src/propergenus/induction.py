"""Tracing equivariant series down to numerical q-series.

The trace functional on circle characters sends the weight-n line to
-|n - 1|.  Linear extension over Laurent monomials turns each grade of
an equivariant Lefschetz series into a rational number, producing the
averaged Witten genus of the induced bundle construction

    M = SL(2,R) x_(S^1) CP^(2l-1)

whose two computation routes (literal three-factor series, or the
rank-reduced Witten bundle of the weight-(+-2) adjoint character times
the Witten Lefschetz series) must agree exactly as series in lam and q,
before the trace.  The second route applies the bundle's binomial
factors onto the assembled Lefschetz series, which is the start of one
kernel run; the first folds them into every fixed point's twist before
the assembly.  The elliptic genera apply Theta1 and Theta2 of the
adjoint the same way, so no two series are multiplied here.

The generic formal-degree functional on a root datum,

    (-1)^(d/2) prod_(alpha > 0) (mu + rho_c, alpha) / (rho, alpha),

specialises on the circle inside SL(2,R) to the same trace up to an
overall sign choice of positive system, which is validated in absolute
value only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .core.laurent import LaurentPoly
from .core.qseries import RATIONAL, LaurentRing, QSeries
from .errors import DegenerateRootDatum, RingMismatch
from .lambda_ring import THETA, THETA1, THETA2, theta_bundle
from .lefschetz import (
    DIRAC,
    SIGNATURE,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
    validate_weights,
)


def pi_s1(n: int) -> int:
    """Trace of the weight-n line representation: -|n - 1|."""
    return -abs(n - 1)


def trace_char(p: LaurentPoly) -> Fraction | int:
    """Linear extension of the trace over Laurent monomials."""
    total = 0
    for e, c in p.coeffs.items():
        total += c * pi_s1(e)
    return total


def trace_series(s: QSeries) -> QSeries:
    """Trace every grade of an equivariant series.

    The input must be a series of genuine Laurent polynomials in the
    character variable; rational-function-valued input has no home here
    so that Laurent-certification failures surface upstream.
    """
    if not isinstance(s.ring, LaurentRing) or s.ring.var != "lam":
        raise RingMismatch("trace_series expects a series over Laurent polynomials in lam")
    return s.map_coefficients(trace_char, RATIONAL)


# the weight-(+-2) character of the two-dimensional slice of SL(2,R)
ADJOINT = LaurentPoly({2: 1, -2: 1})


def averaged_witten_genus(weights, N: int = 10) -> QSeries:
    """Trace of the two-variable Witten series of a weighted action.

    The literal product route and the factored route are both evaluated
    and must agree exactly as two-variable series, before the trace; a
    disagreement raises AssertionError.
    """
    literal = p_series(weights, N)
    if theta_bundle(ADJOINT, THETA, N, start=lefschetz_witten(weights, N)) != literal:
        raise AssertionError("the two Witten genus routes disagree")
    return trace_series(literal)


def averaged_elliptic_genera(weights, N: int = 8) -> tuple[QSeries, QSeries]:
    """Traces of the two elliptic-genus inductions; identically zero for
    every valid weight vector, since the twisted Lefschetz series vanish."""
    validate_weights(weights)
    spinor = LaurentPoly({1: 1, -1: 1})  # the spinor character lam + lam^-1
    phi1 = trace_series(theta_bundle(
        ADJOINT, THETA1, N, start=lefschetz_twisted(weights, SIGNATURE, THETA1, N) * spinor))
    phi2 = trace_series(theta_bundle(
        ADJOINT, THETA2, N, start=lefschetz_twisted(weights, DIRAC, THETA2, N)))
    return phi1, phi2


# -- formal degrees from a root datum ----------------------------------------

Vector = tuple[Fraction, ...]


def _vec(v) -> Vector:
    return tuple(Fraction(x) for x in v)


@dataclass
class RootDatum:
    """Data of a semisimple pair (G, K): dim G/K, positive roots of G,
    half-sums of positive and of compact positive roots, and an optional
    Gram matrix for the invariant inner product."""

    dim: int
    positive_roots: list[Vector]
    rho: Vector
    rho_c: Vector
    gram: list[list[Fraction]] | None = field(default=None)

    def __post_init__(self):
        if self.dim % 2 != 0:
            raise DegenerateRootDatum(f"dim G/K = {self.dim} must be even")
        self.positive_roots = [_vec(a) for a in self.positive_roots]
        self.rho = _vec(self.rho)
        self.rho_c = _vec(self.rho_c)
        for alpha in self.positive_roots:
            if self.inner(self.rho, alpha) == 0:
                raise DegenerateRootDatum(f"(rho, {alpha}) = 0")

    def inner(self, u, v) -> Fraction:
        u, v = _vec(u), _vec(v)
        if self.gram is None:
            return sum((a * b for a, b in zip(u, v)), start=Fraction(0))
        total = Fraction(0)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                total += a * Fraction(self.gram[i][j]) * b
        return total


def formal_degree(rd: RootDatum, mu) -> Fraction:
    """(-1)^(d/2) prod_(alpha > 0) (mu + rho_c, alpha) / (rho, alpha)."""
    mu = _vec(mu)
    shifted = tuple(m + r for m, r in zip(mu, rd.rho_c))
    value = Fraction(1)
    for alpha in rd.positive_roots:
        value *= rd.inner(shifted, alpha) / rd.inner(rd.rho, alpha)
    return Fraction(-1) ** (rd.dim // 2) * value


def sl2_root_datum() -> RootDatum:
    """The circle in SL(2,R): two-dimensional quotient, one positive
    root of weight 2, no compact roots."""
    return RootDatum(2, [(2,)], (1,), (0,))
