"""Equivariant Lefschetz numbers for weighted circle actions on odd
complex projective spaces.

A weight vector (a_0, ..., a_{2l-1}) of distinct integers with even sum
defines a circle action on CP^(2l-1) with 2l isolated fixed points.  At
the j-th fixed point the tangent weights are w_s = |a_s - a_j|, and the
even per-point weight sums mean the action lifts to the spin structure.

Local contributions are assembled exactly.  With lam = mu^2, a point's
twist is a Witten bundle of T_j = sum_s (lam^(w_s) + lam^(-w_s)), and
its Dirac denominator is

    prod_s (mu^(w_s) - mu^(-w_s)) = lam^(-W_j / 2) prod_s (lam^(w_s) - 1),
    W_j = sum_s w_s,

so every q-grade of the sum is a single rational function with the
structured denominator D = prod_{s<t} (lam^|a_s - a_t| - 1).  D is
monic and D(0) = +-1, so D is coprime to lam: a grade certifies as a
Laurent polynomial exactly when D divides its numerator shifted into a
polynomial, and the quotient is exact.

Each grade is certified by one integer division (Kronecker substitution:
Schoenhage 1982; von zur Gathen and Gerhard, Modern Computer Algebra,
8.4).  Its numerator, shifted into a polynomial P in lam, and D are
evaluated at lam = 2^B as big ints, and the quotient is read back, by
the one packed layout of ``core.qseries`` (``_pack``, ``_unpack``).  A
zero remainder and a quotient q' read as balanced base-2^B digits with

    max|q'_i| |D|_1 + N_h < 2^(B-1),   N_h = sum_j |c_j|_1 |pre_j|_1,

prove q' D = P: the difference vanishes at 2^B, and N_h bounds every
coefficient of P, so each of its coefficients is below 2^(B-1).  D is
monic, so a nonzero remainder proves that D does not divide P: the grade
raises NotLaurent, which names the pole of the reduced rational form in
mu.  A grade that B is too narrow to decide falls back once, to a
proven width B* at which an undecided grade has no Laurent quotient.
Each grade's rows, span and N_h, and each point's norms, are computed
once per call, and both widths are the ``core.qseries._width`` of a
bound.
The sum collapses to a Laurent polynomial exactly when the orientation
signs sigma_j = (-1)^j (weights sorted ascending) are in place, and the
assembly always applies them.  The literal unsigned sum, kept only for
comparison (``lefschetz_twisted(..., signed=False)``), first negates the
twist of each point with sigma_j = -1; it fails the certificate already
for the two-point case.

Witten-bundle factors outside the sum fold into every twist, since the
sum is linear in its twists and Theta multiplies: the literal series is
the sum over Theta(T_j + adjoint - 4l) (:func:`p_series`).  The tests
hold the certificate equal to Laurent products with dense polynomial
division, to a mu-adic series expansion of the same sum, to the
gcd-reduced rational function of each grade and to sympy's cancellation
of the literal sum.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import accumulate

from .core.laurent import LAMBDA, MU, LaurentPoly
from .core.qseries import LAMBDA_RING, QSeries, _apply, _pack, _unpack, _width
from .core.ratfunc import Poly, RationalFunc
from .errors import DuplicateWeights, NonIntegral, OddWeightSum
from .lambda_ring import THETA, THETA1, THETA2, theta_bundle, theta_series

DIRAC = "dirac"
SIGNATURE = "signature"

# the weight-(+-2) character of the two-dimensional slice of SL(2,R)
ADJOINT = LaurentPoly({2: 1, -2: 1})


@dataclass(frozen=True)
class FixedPointDatum:
    index: int
    weight: int
    tangent_weights: tuple[int, ...]
    sign: int


def validate_weights(weights) -> list[FixedPointDatum]:
    """Check and canonicalise a weight vector; enumerate fixed points.

    Weights are sorted ascending, so the orientation sign at the j-th
    point is (-1)^j.  An even sum of weights makes every tangent weight
    sum even: sum_s |a_s - a_j| = sum(a) - 2l a_j = sum(a) (mod 2).
    """
    ws = [int(a) for a in weights]
    if len(set(ws)) != len(ws):
        raise DuplicateWeights(f"weights {ws} are not distinct")
    if len(ws) < 2 or len(ws) % 2 != 0:
        raise ValueError(f"need an even number 2l >= 2 of weights, got {len(ws)}")
    if sum(ws) % 2 != 0:
        raise OddWeightSum(f"sum of weights {sum(ws)} is odd; the action is not spin")
    ws.sort()
    return [FixedPointDatum(j, aj, tuple(abs(a - aj) for a in ws if a != aj), (-1) ** j)
            for j, aj in enumerate(ws)]


def _tangent_char(datum: FixedPointDatum) -> LaurentPoly:
    """Complexified tangent character at a fixed point."""
    return LaurentPoly(Counter(sign * w for w in datum.tangent_weights for sign in (1, -1)))


def _twist_series(datum: FixedPointDatum, twist: str | None, N: int) -> QSeries:
    if twist is None:
        return QSeries.one(LAMBDA_RING, N)
    if twist in (THETA, THETA1, THETA2):
        return theta_bundle(_tangent_char(datum), twist, N)
    raise ValueError(f"unknown twist {twist!r}")


def _l1(p: LaurentPoly):
    return sum(map(abs, p.coeffs.values()))


def _factor_values(pairs, data, operator: str, B: int):
    """(B, D(2^B), [sigma_j P_j(2^B)]): one shift and one add per factor
    lam^w -+ 1.  Exact at any width: evaluation is a ring map."""
    den = 1
    for _, _, w in pairs:
        den = (den << B * w) - den
    values = []
    for j, datum in enumerate(data):
        v = 1
        for i, k, w in pairs:
            if j != i and j != k:
                v = (v << B * w) - v
        if operator == SIGNATURE:
            # the spinor character is mu^(-W_j) prod_s (lam^(w_s) + 1)
            for w in datum.tangent_weights:
                v = (v << B * w) + v
        values.append(v * datum.sign)
    return B, den, values


def _certificate_data(data, point_series, operator: str):
    """What the certificate of one call reads, computed once:
    (pairs, deg D, |D|_1, points, grades).

    In lam, pre_j = sigma_j lam^(low_j) P_j.  With C_j the product of the
    pair factors not containing j, P_j = C_j for the Dirac operator
    (low_j = W_j / 2) and P_j = C_j prod_s (lam^(w_s) + 1) for the
    signature operator (low_j = 0).  points[j] = (low_j, deg P_j,
    |P_j|_1).  grades[h] = (rows, lo, hi, N_h): rows holds (c_j, j) for
    the nonzero twist coefficients c_j of grade h, the numerator
    sum_j c_j pre_j spans lam^lo .. lam^hi, and N_h = sum_j |c_j|_1
    |P_j|_1 bounds its coefficients (a Fraction if a c_j is one).
    """
    if operator not in (DIRAC, SIGNATURE):
        raise ValueError(f"unknown operator {operator!r}")
    npts = len(data)
    pairs = [(i, k, abs(data[i].weight - data[k].weight))
             for i in range(npts) for k in range(i + 1, npts)]
    den_degree = sum(w for _, _, w in pairs)
    # D and every P_j are products of at most len(pairs) binomials of l1
    # norm 2, so no coefficient exceeds 2^len(pairs)
    B0 = _width(1 << len(pairs))
    _, den, values = _factor_values(pairs, data, operator, B0)
    points = []
    for datum, value in zip(data, values):
        W = sum(datum.tangent_weights)
        low, degree = (0, den_degree) if operator == SIGNATURE else (W // 2, den_degree - W)
        points.append((low, degree, _l1(_unpack(value, B0, 0, degree + 1, LAMBDA))))
    grades = []
    for h in range(len(point_series[0].coeffs)):
        rows = [(s.coeffs[h], j) for j, s in enumerate(point_series) if s.coeffs[h].coeffs]
        lo = min((points[j][0] + min(c.coeffs) for c, j in rows), default=0)
        hi = max((points[j][0] + max(c.coeffs) + points[j][1] for c, j in rows), default=0)
        grades.append((rows, lo, hi, sum(_l1(c) * points[j][2] for c, j in rows)))
    den_norm = _l1(_unpack(den, B0, 0, den_degree + 1, LAMBDA))
    return pairs, den_degree, den_norm, points, grades


def _proven_width(data, operator: str, cert) -> int:
    """B*, the :func:`_width` of max_h (M_h |D|_1 + N_h), at which every
    grade is decided; ``cert`` is what :func:`_certificate_data` returns.

    M_h bounds every coefficient of Q = P / D if D divides P.  P_j / D is
    one over the 2l - 1 pair factors lam^(w_s) - 1 at j, times
    prod_s (lam^(w_s) + 1) for the signature operator, so in powers of
    lam, pre_j / D = -sigma_j lam^(low_j) F_j, where

        F_j = prod_s (1 + lam^(w_s))^[signature] / prod_s (1 - lam^(w_s))

    has coefficients >= 0 (:func:`_apply` on plain ints).  If D | P, then
    lam^lo Q = num / D = -sum_j sigma_j lam^(low_j) c_j F_j, and every
    exponent of lam^(low_j) c_j is at least lo, so Q_i takes F_j only at
    t <= i < n_h = deg Q + 1:

        |Q_i| <= M_h = sum_j |c_j|_1 max_(t < n_h) F_(j,t).

    A nonzero grade has M_h >= 1, so N_h and |D|_1 are below 2^(B*-1).
    If D | P, the remainder at 2^B* is zero, Q unpacks as q' since every
    |Q_i| <= M_h < 2^(B*-1), and max|q'_i| |D|_1 + N_h < 2^(B*-1): the
    check holds.  So a grade that it does not prove at B* has no Laurent
    quotient.  int() keeps every integral bound; a Fraction grade raises
    NonIntegral before its bound is compared.
    """
    _, den_degree, den_norm, _, grades = cert
    spans = [max(hi - lo + 1 - den_degree, 1) for _, lo, hi, _ in grades]
    peaks = []
    for datum in data:
        F = [1] + [0] * (max(spans) - 1)
        for w in datum.tangent_weights:
            if operator == SIGNATURE:
                _apply(F, 1, w, False, 1)
            _apply(F, 1, w, True, 1)
        peaks.append(list(accumulate(F, max)))
    return _width(int(max(sum(_l1(c) * peaks[j][n - 1] for c, j in rows) * den_norm + bound
                          for (rows, _, _, bound), n in zip(grades, spans))))


def _raise_not_laurent(num: int, lo: int, hi: int, packed, den_degree: int):
    """Raise NotLaurent for lam^lo P / D, given P(2^B) = num with deg P <=
    hi - lo, once D is known not to divide P.

    N_h and |D|_1 are below 2^(B-1), so P and D unpack exactly from their
    values, straight onto even mu exponents (lam = mu^2).  They give the
    same rational function in mu as the Laurent sum, and its reduced form
    is unique (monic denominator, coprime to the numerator): the message
    names the same denominator whichever way the sum was formed.
    """
    B, den, _ = packed
    top, shift = Poly.from_laurent(_unpack(num, B, 2 * lo, hi - lo + 1, MU, 2))
    bottom, _ = Poly.from_laurent(_unpack(den, B, 0, den_degree + 1, MU, 2))
    # D is coprime to mu, so the reduced denominator keeps a factor of D
    RationalFunc(top, bottom * Poly.monomial(shift)).to_laurent(MU)
    raise AssertionError(f"({top}) / ({bottom}) reduced to a Laurent polynomial")


def _packed_grade(grade, packed, cert, proven: bool = False) -> LaurentPoly | None:
    """One grade of the sum, in lam, by one integer division at lam = 2^B.

    ``grade`` = (rows, lo, hi, N_h) and ``cert`` are what
    :func:`_certificate_data` computes for the call, and ``packed`` is
    what :func:`_factor_values` returns.  The numerator
    num = sum_j c_j pre_j, aligned on its lowest exponent lo, is the
    polynomial P = lam^(-lo) num, and P(2^B) is one big int
    (:func:`_pack`).  One divmod by D(2^B) and :func:`_unpack` give q'.
    The check is the proof: with a zero remainder and

        max|q'_i| |D|_1 + N_h < 2^(B-1),  N_h = sum_j |c_j|_1 |P_j|_1,

    the polynomial q' D - P vanishes at 2^B and has every coefficient
    below 2^(B-1), so it is zero and num / D = lam^lo q'.  N_h bounds
    every coefficient of P and of every c_j.

    D is monic, so D | P gives D(2^B) | P(2^B): a nonzero remainder, or
    a nonzero P of lower degree than D, proves that the grade is not
    Laurent and raises NotLaurent.  A coefficient that is not an int
    raises NonIntegral.  Returns None when B is too narrow to decide:
    N_h or |D|_1 reaches 2^(B-1), or the remainder is zero but q' fails
    the check.  When ``proven`` (B = B* of :func:`_proven_width`), an
    undecided grade has no Laurent quotient and raises instead.
    """
    rows, lo, hi, bound = grade
    if not rows:
        return LaurentPoly.zero(LAMBDA)
    # a Fraction coefficient makes the bound a Fraction
    if type(bound) is not int:
        raise NonIntegral("a twist coefficient is not integral")
    B, den, values = packed
    _, den_degree, den_norm, points, _ = cert
    limit = 1 << (B - 1)
    if bound >= limit or den_norm >= limit:
        if proven:
            raise AssertionError(f"N_h = {bound} or |D|_1 = {den_norm} does not fit 2^{B - 1}")
        return None
    num = sum(_pack(c, B, lo - points[j][0]) * values[j] for c, j in rows)
    if not num:  # P(2^B) = 0 and every |P_i| < 2^(B-1), so P = 0
        return LaurentPoly.zero(LAMBDA)
    n = hi - lo + 1 - den_degree  # digits of an exact quotient
    quo, rem = divmod(num, den)
    if rem or n < 1:
        _raise_not_laurent(num, lo, hi, packed, den_degree)
    try:
        q = _unpack(quo, B, lo, n, LAMBDA)
    except OverflowError:
        q = None
    if q is not None and max(map(abs, q.coeffs.values())) * den_norm + bound < limit:
        return q
    if proven:
        _raise_not_laurent(num, lo, hi, packed, den_degree)
    return None


def _assemble(data, point_series, operator: str) -> QSeries:
    """Sum local contributions exactly, grade by grade.

    point_series[j] is the twist-character q-series of the j-th point
    over the lam Laurent ring.  Every grade goes through the packed
    certificate, which proves it an integral Laurent polynomial in lam
    or raises.  The call's width B admits every quotient no larger than
    the largest N_h, since then max|q'_i| |D|_1 + N_h <= max_h N_h
    (|D|_1 + 1).  A grade that B is too narrow to decide falls back once,
    to the proven width B* (:func:`_proven_width`), packed at most once
    per call.
    """
    cert = _certificate_data(data, point_series, operator)
    pairs, _, den_norm, _, grades = cert
    # int() keeps every integral N_h; a grade with Fraction coefficients
    # raises NonIntegral at its own grade, before its bound is compared
    n_max = int(max(grade[3] for grade in grades))
    packed = _factor_values(pairs, data, operator, _width(n_max * (den_norm + 1)))
    wide = None
    out = QSeries(LAMBDA_RING, point_series[0].trunc)
    for h, grade in enumerate(grades):
        lam_poly = _packed_grade(grade, packed, cert)
        if lam_poly is None:
            if wide is None:
                B = _proven_width(data, operator, cert)
                wide = _factor_values(pairs, data, operator, B)
            lam_poly = _packed_grade(grade, wide, cert, proven=True)
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
    if not signed:  # the assembly signs every point, and sigma_j^2 = 1
        point_series = [-s if d.sign < 0 else s for d, s in zip(data, point_series)]
    return _assemble(data, point_series, operator)


def lefschetz_witten(weights, N: int = 10) -> QSeries:
    """Witten-bundle-twisted Dirac Lefschetz series (twist = Theta)."""
    return lefschetz_twisted(weights, DIRAC, THETA, N)


def p_series(weights, N: int = 10) -> QSeries:
    """The literal three-factor two-variable series of the weighted action:
    prod_n (1 - q^n)^(4l), times Theta(adjoint) = prod_n of the geometric
    series in lam^2 q^n and lam^-2 q^n, times the bare fixed-point sum of
    Theta(T_j), no rank normalisation.

    The two outer factors are Theta(adjoint - 4l), folded into every
    point's twist: one fixed-point sum over Theta(T_j + adjoint - 4l).
    Regrouped as Theta(adjoint~) times the Witten Lefschetz series, it is
    the second route of the Witten genus, which ``induction`` compares.
    """
    data = validate_weights(weights)
    outer = ADJOINT - 2 * len(data)  # adjoint - 4l over the 2l points
    point_series = [theta_series(_tangent_char(d) + outer, THETA, N) for d in data]
    return _assemble(data, point_series, DIRAC)
