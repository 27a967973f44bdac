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
"""

from __future__ import annotations

from fractions import Fraction

from .core.laurent import LAMBDA, LaurentPoly
from .core.qseries import RATIONAL, LaurentRing, QSeries
from .errors import RingMismatch
from .lambda_ring import THETA, THETA1, THETA2, theta_bundle
from .lefschetz import (
    ADJOINT,
    DIRAC,
    SIGNATURE,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
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
    if not isinstance(s.ring, LaurentRing) or s.ring.var != LAMBDA:
        raise RingMismatch("trace_series expects a series over Laurent polynomials in lam")
    return s.map_coefficients(trace_char, RATIONAL)


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
    spinor = LaurentPoly({1: 1, -1: 1})  # the spinor character lam + lam^-1
    phi1 = trace_series(theta_bundle(
        ADJOINT, THETA1, N, start=lefschetz_twisted(weights, SIGNATURE, THETA1, N) * spinor))
    phi2 = trace_series(theta_bundle(
        ADJOINT, THETA2, N, start=lefschetz_twisted(weights, DIRAC, THETA2, N)))
    return phi1, phi2

