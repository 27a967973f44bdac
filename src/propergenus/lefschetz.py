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
evaluated at lam = 2^B as big ints in the one packed layout of
``core.qseries``: D and the prefactors by one shift and one add per
factor (:func:`_factor_values`), and the quotient is read back by
``_unpack``.  Every twist is a Witten bundle of ``lambda_ring``, the
binomial kernel's one client; the twist-less 1 is Theta of the zero
bundle, the kernel's empty product.  Each enters as the kernel's packed
rows (``core.qseries.PackedSeries``), never unpacked here.  Each row's
lowest exponent and l1 norm are read from its digits, and P(2^B) is a
sum of shifted rows times the prefactors' values.  Every value reads as
many digits as its size needs, so no degree is kept.  A row at another
digit width or exponent step is re-laid at B by byte copies where its
one grade reads it (``PackedSeries.row``).  A zero
remainder and a quotient q' read as balanced base-2^B digits with

    max|q'_i| |D|_1 + N_h < 2^(B-1),   N_h = sum_j |c_j|_1 |pre_j|_1,

prove q' D = P: the difference vanishes at 2^B, and N_h bounds every
coefficient of P, so each of its coefficients is below 2^(B-1).  A grade
that the check leaves open takes one exact route: the coefficients of P
and D are below 2^(B-1), so they read exactly from their digits, and
``Poly``'s division by the monic D decides the grade on ints.  A nonzero
remainder proves that D does not divide P: the grade raises NotLaurent,
which names the pole of the reduced rational form in mu.  This route
alone reaches ``core.ratfunc``.  Each grade's rows, lowest exponent and
N_h, and each point's norm, are computed once per call, and the width is
the ``core.qseries._width`` of a bound.
The sum collapses to a Laurent polynomial exactly when the orientation
signs sigma_j = (-1)^j (weights sorted ascending) are in place, and the
assembly always applies them.  The literal unsigned sum, kept only for
comparison (``lefschetz_twisted(..., signed=False)``), sets every
point's sign to 1; it fails the certificate already for the two-point
case.

Witten-bundle factors outside the sum fold into every twist, since the
sum is linear in its twists and Theta multiplies: the literal series is
the sum over Theta((T_j + adjoint)~) (:func:`p_series`).  The tests
hold the certificate equal to Laurent products with dense polynomial
division, to a mu-adic series expansion of the same sum, to the
gcd-reduced rational function of each grade and to sympy's cancellation
of the literal sum.
"""

from __future__ import annotations

from collections import Counter, namedtuple

from .core.laurent import LAMBDA, MU, LaurentPoly
from .core.qseries import LAMBDA_RING, QSeries, _raw, _read, _span, _unpack, _width
from .core.ratfunc import Poly, RationalFunc
from .errors import DuplicateWeights, OddWeightSum
from .lambda_ring import THETA, theta_bundle, theta_series

DIRAC = "dirac"
SIGNATURE = "signature"

# the weight-(+-2) character of the two-dimensional slice of SL(2,R)
ADJOINT = LaurentPoly({2: 1, -2: 1})


# its field ``index`` shadows tuple.index
FixedPointDatum = namedtuple("FixedPointDatum", "index weight tangent_weights sign")


def validate_weights(weights) -> list[FixedPointDatum]:
    """Check and canonicalise a weight vector; enumerate fixed points.

    Weights are sorted ascending, so the orientation sign at the j-th
    point is (-1)^j.  An even sum of weights makes every tangent weight
    sum even: sum_s |a_s - a_j| = sum(a) - 2l a_j = sum(a) (mod 2).
    """
    ws = []
    for a in weights:
        if int(a) != a:
            raise ValueError(f"weight {a} is not an integer")
        ws.append(int(a))
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
    if twist is None:  # Theta of the zero bundle: the kernel's empty product
        return theta_series(LaurentPoly.zero(LAMBDA), THETA, N)
    return theta_bundle(_tangent_char(datum), twist, N)


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


def _certificate_data(data, twists, operator: str):
    """What the certificate of one call reads, computed once:
    (pairs, |D|_1, grades).

    In lam, pre_j = sigma_j lam^(low_j) P_j.  With C_j the product of the
    pair factors not containing j, P_j = C_j for the Dirac operator
    (low_j = W_j / 2) and P_j = C_j prod_s (lam^(w_s) + 1) for the
    signature operator (low_j = 0).  twists[j] is the twist c_j of point
    j as packed rows, and grades[h] = (terms, lo, N_h): terms holds
    (j, k, low_j) for each nonzero row k of a twist j on grade h, the
    numerator sum_j c_j pre_j starts at lam^lo, and
    N_h = sum_j |c_j|_1 |P_j|_1 bounds its coefficients.  The lowest
    exponent and |c_j|_1 of a row (``PackedSeries.spans``), and
    |D|_1 and |P_j|_1 from their values at 2^B0, are read from digits
    (``_span``), not unpacked.
    """
    npts = len(data)
    pairs = [(i, k, abs(data[i].weight - data[k].weight))
             for i in range(npts) for k in range(i + 1, npts)]
    # D and every P_j are products of at most len(pairs) binomials of l1
    # norm 2, so no coefficient exceeds 2^len(pairs)
    B0 = _width(1 << len(pairs))
    _, den, values = _factor_values(pairs, data, operator, B0)
    # per grade, (j, k, low_j) with the row's lowest exponent of the
    # numerator and its share of N_h
    rows = [[] for _ in range(2 * twists[0].trunc + 1)]
    for j, (datum, value, twist) in enumerate(zip(data, values, twists)):
        low, norm = 0 if operator == SIGNATURE else sum(datum.tangent_weights) // 2, _span(value, B0)[1]
        for h, k, first, l1 in twist.spans():
            rows[h].append(((j, k, low), low + first, l1 * norm))
    grades = [([t[0] for t in ts], min((t[1] for t in ts), default=0), sum(t[2] for t in ts))
              for ts in rows]
    return pairs, _span(den, B0)[1], grades


def _exact_grade(num: int, lo: int, packed) -> LaurentPoly:
    """lam^lo P / D, given P(2^B) = num, by exact division on ints of P by
    the monic D, both read exactly from their digits since N_h and |D|_1
    are below 2^(B-1).  Otherwise NotLaurent names the pole of the
    rational function in mu (lam = mu^2), whose reduced form is unique:
    the same whichever way the sum was formed.
    """
    B, den, _ = packed
    top, bottom = (_read(_raw(value, B), B) for value in (num, den))
    quo, rem = divmod(Poly(top), Poly(bottom))
    if rem.is_zero():
        return quo.to_laurent(-lo, LAMBDA)
    sides = []  # every exponent doubles, and mu^(2 lo) joins the side of its sign
    for digits, shift in ((top, 2 * lo), (bottom, -2 * lo)):
        side = [0] * (max(shift, 0) + 2 * len(digits) - 1)
        side[max(shift, 0)::2] = digits
        sides.append(Poly(side))
    # D is coprime to mu, so the reduced denominator keeps a factor of D
    RationalFunc(*sides).to_laurent(MU)
    raise AssertionError(f"({sides[0]}) / ({sides[1]}) reduced to a Laurent polynomial")


def _packed_grade(grade, twists, packed, den_norm: int) -> LaurentPoly:
    """One grade of the sum, in lam, by one integer division at lam = 2^B.

    ``grade`` = (terms, lo, N_h) and |D|_1 = ``den_norm`` are what
    :func:`_certificate_data` computes for the call, ``twists`` are the
    kernel's packed twists as they are, and ``packed`` is what
    :func:`_factor_values` returns.  The numerator num = sum_j c_j pre_j,
    aligned on its lowest exponent lo, is the polynomial
    P = lam^(-lo) num, and P(2^B) is one big int: over the terms
    (j, k, low_j), row k of twist j with lam^e at digit e + low_j - lo,
    the kernel's row read at width B (``PackedSeries.row``: re-laid
    when its width or step is not B's, then one shift), times
    sigma_j P_j(2^B).  No row is unpacked.  One divmod by D(2^B) and
    :func:`_unpack` give q'.  The check is the proof: with a zero remainder and

        max|q'_i| |D|_1 + N_h < 2^(B-1),  N_h = sum_j |c_j|_1 |P_j|_1,

    the polynomial q' D - P vanishes at 2^B and has every coefficient
    below 2^(B-1), so it is zero and num / D = lam^lo q'.  N_h bounds
    every coefficient of P and of every c_j.

    Every other grade is left open to :func:`_exact_grade`: a nonzero
    remainder, which a nonzero P of lower degree than D always leaves,
    since then |P(2^B)| < D(2^B), or a q' that fails the check.
    """
    terms, lo, bound = grade
    B, den, values = packed
    limit = 1 << (B - 1)
    if bound >= limit or den_norm >= limit:
        raise AssertionError(f"N_h = {bound} or |D|_1 = {den_norm} does not fit 2^{B - 1}")
    num = sum(twists[j].row(k, lo - low, B) * values[j] for j, k, low in terms)
    if not num:  # P(2^B) = 0 and every |P_i| < 2^(B-1), so P = 0
        return LaurentPoly.zero(LAMBDA)
    quo, rem = divmod(num, den)
    if not rem:
        q = _unpack(quo, B, lo, LAMBDA)
        if max(map(abs, q.coeffs.values())) * den_norm + bound < limit:
            return q
    return _exact_grade(num, lo, packed)


def _assemble(data, point_series, operator: str) -> QSeries:
    """Sum local contributions exactly, grade by grade.

    point_series[j] is the twist-character q-series of the j-th point
    over the lam Laurent ring, as the kernel's packed rows
    (``core.qseries.PackedSeries``).  Every grade goes
    through the packed certificate, which proves it an integral Laurent
    polynomial in lam or raises.  The call's width B holds every N_h and
    |D|_1, and it admits every quotient no larger than the largest N_h,
    since then max|q'_i| |D|_1 + N_h <= max_h N_h (|D|_1 + 1).  A row
    at another width or step is re-laid at B where its one grade reads
    it; B holds its digits, since N_h >= |c_j|_1.
    """
    pairs, den_norm, grades = _certificate_data(data, point_series, operator)
    packed = _factor_values(pairs, data, operator,
                            _width(max(grade[2] for grade in grades) * (den_norm + 1)))
    return QSeries(LAMBDA_RING, point_series[0].trunc,
                   [_packed_grade(grade, point_series, packed, den_norm) for grade in grades])


def lefschetz_twisted(weights, operator: str = DIRAC, twist: str | None = THETA,
                      N: int = 10, signed: bool = True) -> QSeries:
    """Lefschetz number series of a twisted Dirac or signature operator.

    Each q-grade is an exact Laurent polynomial in lam; NotLaurent or
    NonIntegral flag a sign-convention or truncation error.
    """
    data = validate_weights(weights)
    if operator not in (DIRAC, SIGNATURE):
        raise ValueError(f"unknown operator {operator!r}")
    if not signed:  # the assembly signs every point by its datum's sign
        data = [d._replace(sign=1) for d in data]
    return _assemble(data, [_twist_series(d, twist, N) for d in data], operator)


def lefschetz_witten(weights, N: int = 10) -> QSeries:
    """Witten-bundle-twisted Dirac Lefschetz series (twist = Theta)."""
    return lefschetz_twisted(weights, DIRAC, THETA, N)


def p_series(weights, N: int = 10) -> QSeries:
    """The literal three-factor two-variable series of the weighted action:
    prod_n (1 - q^n)^(4l), times Theta(adjoint) = prod_n of the geometric
    series in lam^2 q^n and lam^-2 q^n, times the bare fixed-point sum of
    Theta(T_j), no rank normalisation.

    The two outer factors are Theta(adjoint - 4l), folded into every
    point's twist: one fixed-point sum over Theta of the rank-reduced
    T_j + adjoint, whose rank is 4l.  Regrouped as Theta(adjoint~) times
    the Witten Lefschetz series, it is the second route of the Witten
    genus, which ``induction`` compares.
    """
    data = validate_weights(weights)
    point_series = [theta_bundle(_tangent_char(d) + ADJOINT, THETA, N) for d in data]
    return _assemble(data, point_series, DIRAC)
