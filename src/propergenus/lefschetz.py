"""Equivariant Lefschetz numbers for weighted circle actions on odd
complex projective spaces.

A weight vector (a_0, ..., a_{2l-1}) of distinct integers with even sum
defines a circle action on CP^(2l-1) with 2l isolated fixed points.  At
the j-th fixed point the tangent weights are w_s = |a_s - a_j|, and the
even per-point weight sums mean the action lifts to the spin structure.

Local contributions are assembled exactly.  Working in mu with
lam = mu^2, the Dirac denominator of a point is

    prod_s (mu^(w_s) - mu^(-w_s)) = mu^(-W_j) prod_s (mu^(2 w_s) - 1),
    W_j = sum_s w_s,

so every q-grade of the sum is a single rational function with the
structured denominator D = prod_{s<t} (mu^(2|a_s - a_t|) - 1).  D is
monic and D(0) = +-1, so D is coprime to mu: a grade certifies as a
Laurent polynomial exactly when D divides its numerator shifted into a
polynomial, and the quotient is exact.  The reduced rational form is
built only for a failing grade and for lefschetz_grade_ratfunc.  The
sum collapses to a Laurent polynomial exactly when the orientation signs
sigma_j = (-1)^j (weights sorted ascending) are in place; the unsigned
literal formula is kept available for comparison and fails the
certificate already for the two-point case.

A mu-adic series expansion of the same sum provides an independent
cross-check strategy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core.laurent import LAMBDA, MU, LaurentPoly
from .core.qseries import LAMBDA_RING, MU_RING, QSeries
from .core.ratfunc import Poly, RationalFunc
from .errors import DuplicateWeights, NonIntegral, OddWeightSum
from .lambda_ring import THETA, THETA1, THETA2, VirtualChar, theta_bundle, theta_series

DIRAC = "dirac"
SIGNATURE = "signature"


@dataclass(frozen=True)
class FixedPointDatum:
    index: int
    weight: int
    tangent_weights: tuple[int, ...]
    sign: int


def validate_weights(weights) -> list[FixedPointDatum]:
    """Check and canonicalise a weight vector; enumerate fixed points.

    Weights are sorted ascending, so the orientation sign at the j-th
    point is (-1)^j.
    """
    ws = [int(a) for a in weights]
    if len(set(ws)) != len(ws):
        raise DuplicateWeights(f"weights {ws} are not distinct")
    if len(ws) < 2 or len(ws) % 2 != 0:
        raise ValueError(f"need an even number 2l >= 2 of weights, got {len(ws)}")
    if sum(ws) % 2 != 0:
        raise OddWeightSum(f"sum of weights {sum(ws)} is odd; the action is not spin")
    ws.sort()
    data = []
    for j, aj in enumerate(ws):
        tangent = tuple(abs(a - aj) for a in ws if a != aj)
        if sum(tangent) % 2 != 0:
            raise OddWeightSum(f"odd tangent weight sum at fixed point {j}")
        data.append(FixedPointDatum(j, aj, tangent, (-1) ** j))
    return data


def _tangent_char_mu(datum: FixedPointDatum) -> VirtualChar:
    """Complexified tangent character at a fixed point, in mu (lam = mu^2)."""
    char = LaurentPoly.zero(MU)
    for w in datum.tangent_weights:
        char = char + LaurentPoly.monomial(2 * w, 1, MU) + LaurentPoly.monomial(-2 * w, 1, MU)
    return VirtualChar(char)


def _spinor_char_mu(datum: FixedPointDatum) -> LaurentPoly:
    """Character of the full spinor bundle at a fixed point."""
    out = LaurentPoly.constant(1, MU)
    for w in datum.tangent_weights:
        out = out * (LaurentPoly.monomial(w, 1, MU) + LaurentPoly.monomial(-w, 1, MU))
    return out


def _twist_series(datum: FixedPointDatum, twist: str | None, N: int) -> QSeries:
    if twist is None or twist == "none":
        return QSeries.one(MU_RING, N)
    if twist in (THETA, THETA1, THETA2):
        return theta_bundle(_tangent_char_mu(datum), twist, N)
    raise ValueError(f"unknown twist {twist!r}")


def _pair_factor(w: int) -> Poly:
    """mu^(2w) - 1 as a dense polynomial."""
    return Poly([-1] + [0] * (2 * w - 1) + [1])


def _prefactors(data, operator: str, signed: bool) -> tuple[list[LaurentPoly], Poly]:
    """Per-point numerator prefactors over the common denominator D.

    The j-th contribution is sigma_j char_j mu^(W_j) C_j / D, where C_j
    collects the pair factors not containing j.  For the signature
    operator the spinor character supplies the mu^(-W_j) that turns the
    shifted cofactor into prod_s (mu^(2w)+1)/(mu^(2w)-1).
    """
    pairs: dict[tuple[int, int], Poly] = {}
    npts = len(data)
    for i in range(npts):
        for j in range(i + 1, npts):
            pairs[(i, j)] = _pair_factor(abs(data[i].weight - data[j].weight))
    denominator = Poly.one()
    for f in pairs.values():
        denominator = denominator * f
    prefactors = []
    for j, datum in enumerate(data):
        cofactor = Poly.one()
        for (i, k), f in pairs.items():
            if j not in (i, k):
                cofactor = cofactor * f
        pre = cofactor.to_laurent(-sum(datum.tangent_weights), MU)
        if signed and datum.sign < 0:
            pre = -pre
        if operator == SIGNATURE:
            pre = pre * _spinor_char_mu(datum)
        elif operator != DIRAC:
            raise ValueError(f"unknown operator {operator!r}")
        prefactors.append(pre)
    return prefactors, denominator


def _grade_numerator(point_series, prefactors, h: int) -> tuple[Poly, int]:
    """The numerator over D of grade h/2, embedded as (poly, shift)."""
    num = LaurentPoly.zero(MU)
    for series, pre in zip(point_series, prefactors):
        c = series.coeffs[h]
        if not c.is_zero():
            num = num + c * pre
    return Poly.from_laurent(num)


def _certify(poly: Poly, shift: int, denominator: Poly) -> LaurentPoly:
    """poly * mu^(-shift) / D as a Laurent polynomial in mu, by exact division."""
    quo, rem = divmod(poly, denominator)
    if not rem.is_zero():
        # D is coprime to mu, so the reduced form keeps a non-monomial
        # denominator and to_laurent raises NotLaurent naming it
        return RationalFunc(poly, denominator * Poly.monomial(shift)).to_laurent(MU)
    return quo.to_laurent(shift, MU)


def _assemble(data, point_series, operator: str, signed: bool) -> QSeries:
    """Sum local contributions exactly, grade by grade.

    point_series[j] is the twist-character q-series of the j-th point
    over the mu Laurent ring.  The result is converted to an integral
    Laurent polynomial in lam at every grade.
    """
    N = point_series[0].trunc
    prefactors, denominator = _prefactors(data, operator, signed)
    out = QSeries(LAMBDA_RING, N)
    for h in range(2 * N + 1):
        poly, shift = _grade_numerator(point_series, prefactors, h)
        if poly.is_zero():
            continue
        lam_poly = _certify(poly, shift, denominator).halve_exponents(LAMBDA)
        if not lam_poly.is_integral():
            raise NonIntegral(f"grade {Fraction(h, 2)} is not integral: {lam_poly}")
        out.coeffs[h] = lam_poly
    return out


def lefschetz_twisted(weights, operator: str = DIRAC, twist: str | None = THETA,
                      N: int = 10, signed: bool = True) -> QSeries:
    """Lefschetz number series of a twisted Dirac or signature operator.

    Each q-grade is an exact Laurent polynomial in lam; NotLaurent or
    NonIntegral flag a sign-convention or truncation error.
    """
    data = validate_weights(weights)
    point_series = [_twist_series(d, twist, N) for d in data]
    return _assemble(data, point_series, operator, signed)


def lefschetz_witten(weights, N: int = 10, signed: bool = True) -> QSeries:
    """Witten-bundle-twisted Dirac Lefschetz series (twist = Theta)."""
    return lefschetz_twisted(weights, DIRAC, THETA, N, signed)


def lefschetz_grade_ratfunc(weights, grade, operator: str = DIRAC,
                            twist: str | None = THETA, N: int | None = None,
                            signed: bool = True) -> RationalFunc:
    """One grade of the fixed-point sum as a reduced rational function in mu.

    Exposes the gcd-reduced value the certificate skips; useful for pole
    and cancellation inspection and for specialising lam -> 1.
    """
    data = validate_weights(weights)
    if N is None:
        N = max(1, int(Fraction(grade)) + 1)
    point_series = [_twist_series(d, twist, N) for d in data]
    prefactors, denominator = _prefactors(data, operator, signed)
    poly, shift = _grade_numerator(point_series, prefactors, int(Fraction(grade) * 2))
    return RationalFunc(poly, denominator * Poly.monomial(shift))


def p_series(weights, N: int = 10, signed: bool = True) -> QSeries:
    """The literal three-factor two-variable series of the weighted action.

    factor 1: prod_n (1 - q^n)^(4l)
    factor 2: prod_n of the geometric series in lam^2 q^n and lam^-2 q^n
    factor 3: the bare fixed-point sum, no rank normalisation

    Tensoring the rank-reduced Witten bundle of the weight-(+-2) adjoint
    character with the Witten Lefschetz series regroups the same factors,
    which is the factorisation identity checked in the tests.
    """
    data = validate_weights(weights)
    l2 = len(data)  # 2l
    one_minus = QSeries.one(LAMBDA_RING, N)
    for n in range(1, N + 1):
        one_minus = one_minus * QSeries.from_terms(LAMBDA_RING, N, {0: 1, n: -1}) ** (2 * l2)
    adjoint = VirtualChar.rep(2) + VirtualChar.rep(-2)
    middle = theta_series(adjoint, THETA, N)
    point_series = [theta_series(_tangent_char_mu(d), THETA, N) for d in data]
    bare_sum = _assemble(data, point_series, DIRAC, signed)
    return one_minus * middle * bare_sum


# -- mu-adic cross-check strategy --------------------------------------------

def _geometric_inverse_mu(w: int, bound: int) -> LaurentPoly:
    """Expansion of 1/(mu^w - mu^(-w)) = -mu^w (1 + mu^(2w) + ...) at mu = 0,
    exact for exponents <= bound."""
    coeffs = {}
    e = w
    while e <= bound:
        coeffs[e] = -1
        e += 2 * w
    return LaurentPoly(coeffs, MU)


def _truncate_above(p: LaurentPoly, bound: int) -> LaurentPoly:
    return LaurentPoly({e: c for e, c in p.coeffs.items() if e <= bound}, MU)


def lefschetz_series_strategy(weights, operator: str = DIRAC,
                              twist: str | None = THETA, N: int = 10,
                              signed: bool = True, degree_margin: int = 4) -> QSeries:
    """Recompute the Lefschetz series by mu-adic expansion of each local
    denominator.

    A truncated series cannot certify polynomiality on its own; this is
    the cross-check partner of the exact rational-function strategy.
    The expansion window at each grade covers 2 max_j W_j + margin and,
    beyond that, the numerator degree bound max_j(deg c_j - W_j) past
    which a true Laurent polynomial must have terminated.
    """
    data = validate_weights(weights)
    point_series = [_twist_series(d, twist, N) for d in data]
    base = 2 * max(sum(d.tangent_weights) for d in data) + degree_margin
    out = QSeries(LAMBDA_RING, N)
    for h in range(2 * N + 1):
        others: list[LaurentPoly | None] = []
        for j, datum in enumerate(data):
            c = point_series[j].coeffs[h]
            if c.is_zero():
                others.append(None)
                continue
            other = c if (not signed or datum.sign > 0) else -c
            if operator == SIGNATURE:
                other = other * _spinor_char_mu(datum)
            others.append(other)
        if all(o is None for o in others):
            continue
        bound = max(
            [base]
            + [o.max_exp() - sum(d.tangent_weights) + degree_margin
               for o, d in zip(others, data) if o is not None]
        )
        total = LaurentPoly.zero(MU)
        for datum, other in zip(data, others):
            if other is None:
                continue
            need = bound - min(0, other.min_exp())
            expansion = LaurentPoly.constant(1, MU)
            for w in datum.tangent_weights:
                expansion = _truncate_above(expansion * _geometric_inverse_mu(w, need), need)
            total = total + _truncate_above(expansion * other, bound)
        out.coeffs[h] = _truncate_above(total, bound).halve_exponents(LAMBDA)
    return out
