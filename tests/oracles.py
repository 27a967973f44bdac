"""Independent second routes that the tests hold the package against.

Not collected by pytest (no ``test_`` prefix); test modules import it.
The package computes each of these quantities by one route; each
function here recomputes one of them by another.

- ``adams_total_power`` and ``adams_theta_series``: total symmetric and
  exterior powers, and the Witten-bundle products built from them, by
  the Adams-operation exponential

      S_t(E) = exp( sum_k  psi^k(E) t^k / k ),
      L_t(E) = exp( sum_k (-1)^(k-1) psi^k(E) t^k / k ),

  against the binomial products of ``lambda_ring``.
- ``line_factors``: a product of total powers of a character multiplied
  out into one binomial factor per line and power (``split_char`` splits
  the lines by sign), the flat list that the tests' dict-row kernel and
  ``factor_majorant`` read, against the binomial kernel, which reads
  the character and its powers.
- ``factor_majorant``: the bound behind the binomial kernel's digit
  width, one factor and one unit of multiplicity at a time over every
  half-grade, against the M of the cached ``core.qseries._scalars``.
- ``factor_pairs``: the Theta2 line pairs that run by Jacobi's triple
  product, found in the flat factor list, against the pair rule that
  the kernel reads from the character and its powers.
- ``lefschetz_series_strategy``: the fixed-point sum by mu-adic
  expansion of each local denominator, against the exact-division
  certificate of ``lefschetz``.
- ``lefschetz_grade_ratfunc``: one grade of the fixed-point sum as a
  gcd-reduced rational function in mu.
- ``packed_grade_ratfunc``: a grade given by packed values, P(2^B)
  over D(2^B), unpacked straight onto even mu exponents and reduced in
  mu, against the lam-side digits of ``lefschetz._exact_grade``, which
  doubles their exponents itself.
- ``dense_assemble``: the fixed-point sum by Laurent products and dense
  polynomial division, grade by grade, against the packed certificate
  of ``lefschetz._assemble``.
- ``quotient_bounds``: the certificate's bounds |D|_1 and N_h, and
  each grade's lowest exponent, from dense products, against
  ``lefschetz._certificate_data``, which reads them from packed rows.
- ``root_class_series``: A-hat and L from their definitions, as the
  product over Chern roots of one-variable series, against the closed
  forms of ``chern`` read at the roots' power sums (``power_sum_value``).
- ``class_product_part``: a product of two power-sum classes multiplied
  out over pairs of partitions, against the single exponential that
  ``chern.solve_cancellation`` reads its top weight from.
- ``fraction_product`` and ``fraction_solve``: a product of rational
  q-series by one Fraction multiply-add per pair of grades, and
  Gauss-Jordan elimination on Fractions, against the integer-numerator
  ``QSeries.__mul__`` and the forward substitution of
  ``chern.p2_decompose``.
- ``elimination_cancellation``: the cancellation report by elimination,
  the top weight at every partition against the basis at every stored
  grade and then the L-class scalars over every partition, against
  ``chern.solve_cancellation``, which decomposes each linear form once
  and solves the scalars forward.
- ``divisors`` and ``odd_divisor_sum``: the divisors of n by trial
  division up to its square root, against the sieve that
  ``theta_modforms.modform_qexp`` and ``chern`` read them from.
- ``sl2_formal_degree``: the formal degree of a discrete series of
  SL(2,R) by the Harish-Chandra product, against the trace
  ``induction.pi_s1`` in absolute value.

The prefactors, numerators and divisions of these routes are built here
from the weights alone, so no oracle shares assembly code with the
package route it checks; of ``lefschetz``'s private names only the
twist series, the common input of every route, is imported, and the
Chern-root oracles import nothing from ``chern``.  The
package builds the twists in lam; the oracles read them in mu, with
lam = mu^2 (``double_exponents``).

Below the routes sit helpers that only the tests need: the lam <-> mu
exponent maps, the dense polynomials that ``core.ratfunc.Poly`` does not
build (a monomial, a Laurent polynomial with its negative exponents
cleared, a product), the value of a dense polynomial at a rational
point, the value of a formal theta expansion at a point, and heuristic
estimates of the tail that a numeric evaluation truncated at q^N drops.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import factorial

from propergenus.core import (
    LAMBDA,
    LAMBDA_RING,
    MU,
    MU_RING,
    RATIONAL,
    LaurentPoly,
    LaurentRing,
    QSeries,
    half_units,
)
from propergenus.core.qseries import _unpack
from propergenus.core.ratfunc import Poly, RationalFunc
from propergenus.errors import InconsistentSystem, NonIntegral, SingularSystem
from propergenus.lambda_ring import THETA, THETA1, THETA2
from propergenus.lefschetz import DIRAC, SIGNATURE, _twist_series, validate_weights
from propergenus.theta_modforms import ThetaExpansion, modform_qexp, theta_eval

# -- Adams-operation exponential ---------------------------------------------


def adams_total_power(E: LaurentPoly, t_grade, sign: int, N: int, exterior: bool) -> QSeries:
    """S_t(E) or L_t(E), t = sign * q^t_grade, as the exponential of its
    Adams-operation logarithm; E may have rational multiplicities."""
    h_t = half_units(t_grade)
    arg = QSeries(LaurentRing(E.var), N)
    k = 1
    while k * h_t <= 2 * N:
        c = Fraction(sign ** k, k)
        if exterior and k % 2 == 0:
            c = -c
        arg.coeffs[k * h_t] = arg.coeffs[k * h_t] + E.substitute_power(k) * c
        k += 1
    return arg.exp()


def adams_theta_series(E: LaurentPoly, variant: str = THETA, N: int = 8) -> QSeries:
    """The Witten-bundle product over E, one Adams exponential per factor."""
    out = QSeries.one(LaurentRing(E.var), N)
    for n in range(1, N + 1):
        out = out * adams_total_power(E, n, 1, N, exterior=False)
    if variant == THETA1:
        for m in range(1, N + 1):
            out = out * adams_total_power(E, m, 1, N, exterior=True)
    elif variant == THETA2:
        for h in range(1, 2 * N + 1, 2):
            out = out * adams_total_power(E, Fraction(h, 2), -1, N, exterior=True)
    elif variant != THETA:
        raise ValueError(f"unknown Witten bundle variant {variant!r}")
    return out


# -- the binomial kernel's factors -------------------------------------------


def split_char(E: LaurentPoly) -> tuple[dict[int, int], dict[int, int]]:
    """Split E = P - M into positive and negative weight multiplicities."""
    pos: dict[int, int] = {}
    neg: dict[int, int] = {}
    for e, c in E.coeffs.items():
        if not isinstance(c, int):
            raise NonIntegral(f"multiplicity {c} at weight {e} is not an integer")
        if c > 0:
            pos[e] = c
        else:
            neg[e] = -c
    return pos, neg


def line_factors(E: LaurentPoly, powers) -> list:
    """The binomial factors (s, w, h, divide, mult) of the product of
    S_t(E), or of L_t(E) when ``exterior``, over ``powers`` of
    (h, sign, exterior) with t = sign * q^(h/2), one per power and weight
    with its multiplicity: the factor multiplies by (1 + s x^w q^(h/2))^mult
    or, when ``divide``, divides by (1 - s x^w q^(h/2))^mult.

    With E = P - M (:func:`split_char`), a weight-w line of P contributes
    1/(1 - t x^w) to S_t and 1 + t x^w to L_t; by
    S_t(P - M) = S_t(P) L_{-t}(M) and L_t(P - M) = L_t(P) S_{-t}(M)
    a line of M contributes the other one with -t.
    """
    pos, neg = split_char(E)
    lines = [(w, mult, flip) for weights, flip in ((pos, False), (neg, True))
             for w, mult in sorted(weights.items())]
    return [(-sign if flip else sign, w, h, exterior == flip, mult)
            for h, sign, exterior in powers for w, mult, flip in lines]


def factor_pairs(factors, top: int) -> dict:
    """``{(s, w): mult}``, w > 0, of the full Theta2 pairs among the
    binomial ``factors`` applied to the half-grades 0..top: the multiply
    factors (s, +-w, h, False), s = +-1, of every odd h <= top, with one
    summed multiplicity mult <= 3 isqrt(top)."""
    odd = {}
    for s, w, h, divide, mult in factors:
        if w and h & 1 and h <= top and not divide and s * s == 1:
            odd[s, w, h] = odd.get((s, w, h), 0) + mult
    pairs = {}
    for s, w, h in odd:
        if h == 1 and w > 0:
            mults = {odd.get((s, v, j)) for v in (w, -w) for j in range(1, top + 1, 2)}
            mult = mults.pop()
            if not mults and mult <= 3 * math.isqrt(top):
                pairs[s, w] = mult
    return pairs


# -- the binomial kernel's width bound --------------------------------------


def factor_majorant(trunc: int, factors, start: QSeries | None = None) -> int:
    """max_k M_k, the bound on the l1 norm of every grade of the product
    of binomial factors ``(s, w, h, divide, mult)`` times ``start``.

    The weight-0 factors multiply out into the scalar start b with their
    signs; M_k starts as |b_k|, or as the start rows' l1 norms convolved
    with |b|, and each weighted factor is applied to it with |s|, one
    unit of multiplicity at a time, on every half-grade.
    """
    top = 2 * trunc

    def unit(rows, s, h, divide):
        for k in range(h, top + 1) if divide else range(top, h - 1, -1):
            rows[k] += s * rows[k - h]

    base = [1] + [0] * top
    for s, w, h, divide, mult in factors:
        if not w and h <= top:
            for _ in range(mult):
                unit(base, s, h, divide)
    if start is None:
        majorant = [abs(b) for b in base]
    else:
        norms = [sum(abs(c) for c in row.coeffs.values()) for row in start.coeffs[:top + 1]]
        majorant = [sum(norms[j] * abs(base[k - j]) for j in range(k + 1)) for k in range(top + 1)]
    for s, w, h, divide, mult in factors:
        if w and h <= top:
            for _ in range(mult):
                unit(majorant, abs(s), h, divide)
    return max(majorant)


# -- dense prefactors over the common denominator ---------------------------


def _in_mu(series: QSeries) -> QSeries:
    """A twist series in lam as a series in mu, lam = mu^2."""
    return series.map_coefficients(double_exponents, MU_RING)


def _spinor_char_mu(datum) -> LaurentPoly:
    """Character of the full spinor bundle at a fixed point."""
    out = LaurentPoly.constant(1, MU)
    for w in datum.tangent_weights:
        out = out * (LaurentPoly.monomial(w, 1, MU) + LaurentPoly.monomial(-w, 1, MU))
    return out


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
    denominator = Poly([1])
    for f in pairs.values():
        denominator = poly_mul(denominator, f)
    prefactors = []
    for j, datum in enumerate(data):
        cofactor = Poly([1])
        for (i, k), f in pairs.items():
            if j not in (i, k):
                cofactor = poly_mul(cofactor, f)
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
    return poly_from_laurent(num)


def _certify(poly: Poly, shift: int, denominator: Poly) -> LaurentPoly:
    """poly * mu^(-shift) / D as a Laurent polynomial in mu, by exact division."""
    quo, rem = divmod(poly, denominator)
    if not rem.is_zero():
        # D is coprime to mu, so the reduced form keeps a non-monomial
        # denominator and to_laurent raises NotLaurent naming it
        return RationalFunc(poly, poly_mul(denominator, poly_monomial(shift))).to_laurent(MU)
    return quo.to_laurent(shift, MU)


# -- mu-adic expansion of the fixed-point sum --------------------------------


# expansion window past the largest denominator degree
DEGREE_MARGIN = 4


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
                              signed: bool = True) -> QSeries:
    """Recompute the Lefschetz series by mu-adic expansion of each local
    denominator.

    A truncated series cannot certify polynomiality on its own; it only
    cross-checks the exact certificate.  The expansion window at each
    grade covers 2 max_j W_j + DEGREE_MARGIN and, beyond that, the numerator
    degree bound max_j(deg c_j - W_j) past which a true Laurent
    polynomial must have terminated.
    """
    data = validate_weights(weights)
    point_series = [_in_mu(_twist_series(d, twist, N)) for d in data]
    base = 2 * max(sum(d.tangent_weights) for d in data) + DEGREE_MARGIN
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
            + [o.max_exp() - sum(d.tangent_weights) + DEGREE_MARGIN
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
        out.coeffs[h] = halve_exponents(_truncate_above(total, bound))
    return out


# -- gcd-reduced rational function of one grade -----------------------------


def lefschetz_grade_ratfunc(weights, grade, operator: str = DIRAC,
                            twist: str | None = THETA, N: int | None = None,
                            signed: bool = True) -> RationalFunc:
    """One grade of the fixed-point sum as a reduced rational function in mu.

    The gcd-reduced value the certificate skips; it can be specialised
    at lam = 1 and converted by ``to_laurent`` when it is Laurent.
    """
    data = validate_weights(weights)
    if N is None:
        N = max(1, int(Fraction(grade)) + 1)
    point_series = [_in_mu(_twist_series(d, twist, N)) for d in data]
    prefactors, denominator = _prefactors(data, operator, signed)
    poly, shift = _grade_numerator(point_series, prefactors, int(Fraction(grade) * 2))
    return RationalFunc(poly, poly_mul(denominator, poly_monomial(shift)))


def packed_grade_ratfunc(num: int, lo: int, B: int, den: int) -> RationalFunc:
    """lam^lo P / D reduced in mu, lam = mu^2, from P(2^B) = num and
    D(2^B) = den: both unpack at step 2, P from mu^(2 lo) up, and the
    negative powers of mu that clearing the numerator takes join the
    denominator."""
    top, shift = poly_from_laurent(_unpack(num, B, 2 * lo, MU, 2))
    bottom, _ = poly_from_laurent(_unpack(den, B, 0, MU, 2))
    return RationalFunc(top, poly_mul(bottom, poly_monomial(shift)))


# -- dense assembly of the fixed-point sum ------------------------------------


def dense_assemble(data, point_series, operator: str, signed: bool) -> QSeries:
    """The fixed-point sum with every grade certified on dense polynomials:
    the numerator from the Laurent products c_j * pre_j, then exact
    ``Poly`` division by D.  Raises NotLaurent or NonIntegral at the first
    grade that fails."""
    N = point_series[0].trunc
    point_series = [_in_mu(s) for s in point_series]
    prefactors, denominator = _prefactors(data, operator, signed)
    out = QSeries(LAMBDA_RING, N)
    for h in range(2 * N + 1):
        poly, shift = _grade_numerator(point_series, prefactors, h)
        if poly.is_zero():
            continue
        lam_poly = halve_exponents(_certify(poly, shift, denominator))
        if not lam_poly.is_integral():
            raise NonIntegral(f"grade {Fraction(h, 2)} is not integral: {lam_poly}")
        out.coeffs[h] = lam_poly
    return out


def quotient_bounds(data, point_series, operator: str) -> tuple[int, list[tuple[int, int]]]:
    """|D|_1 and, for every grade h, (lo, N_h) from dense products.

    The numerator sum_j c_j pre_j of grade h starts at lam^lo, the lowest
    exponent of the products c_j pre_j over the nonzero c_j, read in mu
    (0 when there is none), and N_h = sum_j |c_j|_1 |pre_j|_1 bounds
    every one of its coefficients; integral twists give int bounds.
    """
    prefactors, denominator = _prefactors(data, operator, True)
    series = [_in_mu(s) for s in point_series]

    def l1(coeffs):
        return sum(map(abs, coeffs))

    grades = []
    for h in range(len(series[0].coeffs)):
        terms = [(s.coeffs[h], pre) for s, pre in zip(series, prefactors) if s.coeffs[h]]
        # the lowest terms of a product of two Laurent polynomials do not cancel
        grades.append((min(((c.min_exp() + pre.min_exp()) // 2 for c, pre in terms), default=0),
                       sum(l1(c.coeffs.values()) * l1(pre.coeffs.values()) for c, pre in terms)))
    return l1(denominator.coeffs), grades


# -- Chern-root classes from their definitions -------------------------------


def root_class_series(kind: str, roots, order: int) -> list[Fraction]:
    """prod_j f(x_j t) as a series in v = t^2, to v^order: the v^n
    coefficient is the weight-4n part of the class at the Chern roots
    x_j.  Kind "a" is f(u) = (u/2)/sinh(u/2) and "l" is u/tanh(u), each
    factor divided out of the Taylor series of sinh and cosh."""
    out = QSeries.one(RATIONAL, order)
    for x in roots:
        y = Fraction(x) ** 2
        if kind == "a":  # 1 / (sinh(u/2)/(u/2))
            factor = QSeries.from_terms(
                RATIONAL, order,
                {m: (y / 4) ** m / factorial(2 * m + 1) for m in range(order + 1)}).inverse()
        else:  # cosh(u) / (sinh(u)/u)
            sinh = QSeries.from_terms(
                RATIONAL, order, {m: y ** m / factorial(2 * m + 1) for m in range(order + 1)})
            cosh = QSeries.from_terms(
                RATIONAL, order, {m: y ** m / factorial(2 * m) for m in range(order + 1)})
            factor = cosh * sinh.inverse()
        out = out * factor
    return [out.coefficient(n) for n in range(order + 1)]


def power_sum_value(cls: dict, roots, weight: int):
    """The weight-4*weight part of a {partition: coefficient} class at the
    power sums p_s = sum_j x_j^(2s) of the roots x_j."""
    p = {s: sum(Fraction(x) ** (2 * s) for x in roots) for s in range(1, weight + 1)}
    return sum(c * math.prod(p[s] for s in lam) for lam, c in cls.items() if sum(lam) == weight)


def class_product_part(a: dict, b: dict, weight: int) -> dict:
    """The weight-4*weight part of the product of two {partition:
    coefficient} classes, multiplied out over pairs of partitions."""
    out = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            if sum(p1) + sum(p2) == weight:
                key = tuple(sorted(p1 + p2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
    return {p: c for p, c in out.items() if c != 0}


# -- rational arithmetic on Fractions -----------------------------------------


def fraction_product(a: QSeries, b: QSeries) -> QSeries:
    """a * b over the rationals, one Fraction multiply-add per pair of
    grades, normalised by the coercing constructor."""
    n = min(a.trunc, b.trunc)
    out = [Fraction(0)] * (2 * n + 1)
    for ha in range(2 * n + 1):
        for hb in range(2 * n + 1 - ha):
            out[ha + hb] += Fraction(a.coeffs[ha]) * Fraction(b.coeffs[hb])
    return QSeries(RATIONAL, n, out)


def fraction_solve(rows, rhs) -> list[list[Fraction]]:
    """Solve A x = y for every right-hand column by Gauss-Jordan
    elimination on Fractions, each pivot row scaled to a unit pivot.
    Raises SingularSystem below full column rank and InconsistentSystem
    when a leftover equation has a nonzero right-hand side."""
    n_eq = len(rows)
    n_un = len(rows[0]) if rows else 0
    aug = [[Fraction(x) for x in rows[i]] + [Fraction(y) for y in rhs[i]] for i in range(n_eq)]
    pivots = []
    row = 0
    for col in range(n_un):
        pivot = next((r for r in range(row, n_eq) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_eq):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == n_eq:
            break
    if len(pivots) < n_un:
        raise SingularSystem(f"rank {len(pivots)} < {n_un} unknowns")
    if any(v != 0 for r in range(row, n_eq) for v in aug[r][n_un:]):
        raise InconsistentSystem("no exact solution; extra equations do not vanish")
    solution = [None] * n_un
    for i, col in enumerate(pivots):
        solution[col] = aug[i][n_un:]
    return solution


def elimination_cancellation(top: dict, ell: dict, k: int, N: int) -> dict:
    """The fields of a cancellation report by Gauss-Jordan on Fractions.

    ``top`` holds the top-weight q-series at every partition of k, each
    solved against the basis (8 delta_2)^(k-2b) eps_2^b, built by
    ``fraction_product``, at every stored grade; ``ell``, the top part of
    the L-class, is then solved against those rows over every partition.
    Each scalar splits as h 2^e with h of odd numerator and denominator.
    """
    parts = sorted(top)
    d2 = modform_qexp("delta2", N).series.scale(8)
    e2 = modform_qexp("eps2", N).series
    basis = []
    for b in range(k // 2 + 1):
        s = QSeries.one(RATIONAL, N)
        for f in [d2] * (k - 2 * b) + [e2] * b:
            s = fraction_product(s, f)
        basis.append(s)
    grades = range(2 * N + 1)
    solution = fraction_solve([[s.coeffs[h] for s in basis] for h in grades],
                              [[top[p].coeffs[h] for p in parts] for h in grades])
    combos = [{p: c for p, c in zip(parts, row) if c} for row in solution]
    scalars = [x[0] for x in fraction_solve([[combo.get(p, 0) for combo in combos] for p in parts],
                                            [[ell.get(p, 0)] for p in parts])]
    residual = {p: ell.get(p, 0) - sum(c * combo.get(p, 0) for c, combo in zip(scalars, combos))
                for p in parts}
    h_coeffs, exponents = [], []
    for c in scalars:
        e = 0
        while c and c.numerator % 2 == 0:
            c, e = c / 2, e + 1
        while c and c.denominator % 2 == 0:
            c, e = c * 2, e - 1
        h_coeffs.append(c)
        exponents.append(e)
    expected = [3 * k - 6 * b for b in range(k // 2 + 1)]
    return {"combinations": combos, "h_coeffs": h_coeffs, "exponents": exponents,
            "schedule": "2^(3k-6j)" if exponents == expected else f"custom {exponents}",
            "residual": {p: c for p, c in residual.items() if c}}


# -- divisors by trial division ----------------------------------------------


def divisors(n: int) -> list[int]:
    """The divisors of n, each found with its cofactor by trial division."""
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return out


def odd_divisor_sum(n: int) -> int:
    return sum(d for d in divisors(n) if d % 2 == 1)


# -- formal degree of the discrete series of SL(2,R) -------------------------


def sl2_formal_degree(mu) -> Fraction:
    """The Harish-Chandra formal degree

        (-1)^(d/2) prod_(alpha > 0) (mu + rho_c, alpha) / (rho, alpha)

    for the circle in SL(2,R): d = dim G/K = 2, one positive root
    alpha = 2, rho = 1 and no compact root, rho_c = 0."""
    d, alpha, rho, rho_c = 2, 2, 1, 0
    return (-1) ** (d // 2) * Fraction((mu + rho_c) * alpha, rho * alpha)


# -- test-only helpers -------------------------------------------------------


def double_exponents(p: LaurentPoly, var: str = MU) -> LaurentPoly:
    """View a polynomial in lam as one in mu via lam = mu**2."""
    return LaurentPoly({2 * e: c for e, c in p.coeffs.items()}, var)


def halve_exponents(p: LaurentPoly, var: str = LAMBDA) -> LaurentPoly:
    """Inverse of :func:`double_exponents`; all exponents must be even."""
    for e in p.coeffs:
        if e % 2 != 0:
            raise NonIntegral(f"odd exponent {e} cannot be halved into {var}")
    return LaurentPoly({e // 2: c for e, c in p.coeffs.items()}, var)


def poly_monomial(deg: int) -> Poly:
    """x^deg as a dense polynomial."""
    return Poly([0] * deg + [1])


def poly_from_laurent(p: LaurentPoly) -> tuple[Poly, int]:
    """Clear negative exponents: (poly, shift) with p = poly * x^(-shift),
    the inverse of ``Poly.to_laurent``."""
    shift = -min(0, p.min_exp())
    coeffs = [0] * (p.max_exp() + shift + 1) if p.coeffs else []
    for e, c in p.coeffs.items():
        coeffs[e + shift] = c
    return Poly(coeffs), shift


def poly_mul(a: Poly, b: Poly) -> Poly:
    """a * b, one multiply-add per pair of nonzero coefficients."""
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return Poly(out)


def poly_value(p: Poly, x) -> Fraction:
    """p(x) by Horner's rule."""
    total = Fraction(0)
    for c in reversed(p.coeffs):
        total = total * x + c
    return total


def theta_expansion_eval(exp: ThetaExpansion, v: complex, tau: complex) -> complex:
    """Numeric value of a formal expansion at z = e^(2 pi i v)."""
    z = cmath.exp(2j * cmath.pi * v)
    q_pow = cmath.exp(2j * cmath.pi * tau * float(exp.prefactor_exponent))
    if exp.trig == "sin":
        pref = 2 * q_pow * cmath.sin(cmath.pi * v)
    elif exp.trig == "cos":
        pref = 2 * q_pow * cmath.cos(cmath.pi * v)
    else:
        pref = q_pow
    total = 0j
    for g, c in exp.series.nonzero_terms():
        total += c.evaluate(z) * cmath.exp(2j * cmath.pi * tau * float(g))
    return pref * total


def theta_tail(kind: str, v: complex, tau: complex, N: int) -> float:
    """Estimate of what ``theta_eval`` drops by stopping the product at
    j = N: |value| (exp(g |q|^(N+1/2) / (1 - |q|)) - 1), where
    g = 2 + |z| + 1/|z| bounds the log of each dropped factor over |q|^j."""
    value, _ = theta_eval(kind, v, tau, N)
    absz = abs(cmath.exp(2j * cmath.pi * v))
    absq = abs(cmath.exp(2j * cmath.pi * tau))
    growth = 2.0 + absz + 1.0 / absz
    return abs(value) * (math.exp(growth * absq ** (N + 0.5) / (1.0 - absq)) - 1.0)


def complex_eval_tail(series: QSeries, tau: complex) -> float:
    """Estimate of what ``complex_eval`` drops past q^N:
    |q|^(N + 1/2) / (1 - |q|^(1/2)) scaled by the largest coefficient of
    the top half of the series."""
    absq_half = abs(cmath.exp(1j * cmath.pi * tau))
    top = [abs(float(c)) for c in series.coeffs[-(series.trunc + 1):]]
    scale = max(top) if top and max(top) > 0 else 1.0
    return scale * absq_half ** (2 * series.trunc + 1) / (1.0 - absq_half)
