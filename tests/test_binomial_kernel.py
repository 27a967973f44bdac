"""The packed binomial kernel against two independent references.

The convolution route builds every factor as a full series (a geometric
series for S_t of a line, a two-term series for L_t of a line, the three
triple-product factors of a theta function) and multiplies the factors
with ``QSeries.__mul__``.  ``reference_binomial_product`` applies the
same factors in place on per-grade ``{exponent: coeff}`` rows.  The
Kronecker-packed kernel must give the same series at every grade.
"""

import random
from fractions import Fraction

import pytest

from propergenus.core import LAMBDA_RING, RATIONAL, Z_RING, LaurentPoly, QSeries, half_units
from propergenus.core.qseries import LaurentRing, _binomial_product
from propergenus.errors import NonIntegral
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    VirtualChar,
    ext_total,
    sym_total,
    theta_bundle,
    theta_series,
)
from propergenus.theta_modforms import THETA_KINDS, _THETA_SHAPE, theta_qexp

# -- the dict-row kernel --------------------------------------------------------


def reference_binomial_product(ring, trunc, factors, bound=None):
    """Binomial factors applied on per-grade ``{exponent: coeff}`` rows.

    Multiplying by 1 + s x^w q^(h/2) is ``row[k] += s x^w row[k-h]`` for
    k downwards, dividing by 1 - s x^w q^(h/2) the same update for k
    upwards; with ``bound``, every added term outside |e| <= bound is
    dropped.
    """
    top = 2 * trunc
    rows = [{} for _ in range(top + 1)]
    rows[0][0] = 1
    for s, w, h, divide in factors:
        if h > top:
            continue
        for k in range(h, top + 1) if divide else range(top, h - 1, -1):
            dst = rows[k]
            for e, c in rows[k - h].items():
                e += w
                if bound is not None and not -bound <= e <= bound:
                    continue
                c = dst.get(e, 0) + s * c
                if c:
                    dst[e] = c
                else:
                    del dst[e]
    return QSeries(ring, trunc, [LaurentPoly(row, ring.var) for row in rows])


# -- the convolution route -------------------------------------------------------


def _geometric_factor(ring, w: int, h_t: int, sign: int, trunc: int) -> QSeries:
    """S_t of a weight-w line: sum_i sign^i x^(w i) q^(h_t i / 2)."""
    s = QSeries(ring, trunc)
    i = 0
    while i * h_t <= 2 * trunc:
        c = 1 if (sign == 1 or i % 2 == 0) else -1
        s.coeffs[i * h_t] = LaurentPoly.monomial(w * i, c, ring.var)
        i += 1
    return s


def _two_term_factor(ring, w: int, h_t: int, sign: int, trunc: int) -> QSeries:
    """L_t of a weight-w line: 1 + sign * x^w q^(h_t / 2)."""
    s = QSeries.one(ring, trunc)
    if h_t <= 2 * trunc:
        s.coeffs[h_t] = LaurentPoly.monomial(w, sign, ring.var)
    return s


def reference_total_power(E, t_grade, sign, N, exterior):
    h_t = half_units(t_grade)
    ring = LaurentRing(E.var)
    pos, neg = E.split()
    out = QSeries.one(ring, N)
    # S_t(P - M) = S_t(P) L_{-t}(M);  L_t(P - M) = L_t(P) S_{-t}(M)
    for weights, flip in ((pos, False), (neg, True)):
        use_ext = exterior ^ flip
        s = -sign if flip else sign
        for w, mult in sorted(weights.items()):
            factor = (_two_term_factor if use_ext else _geometric_factor)(ring, w, h_t, s, N)
            for _ in range(mult):
                out = out * factor
    return out


def reference_theta_series(E, variant, N):
    out = QSeries.one(LaurentRing(E.var), N)
    for n in range(1, N + 1):
        out = out * reference_total_power(E, n, 1, N, False)
    if variant == THETA1:
        for m in range(1, N + 1):
            out = out * reference_total_power(E, m, 1, N, True)
    elif variant == THETA2:
        for m in range(1, N + 1):
            out = out * reference_total_power(E, Fraction(2 * m - 1, 2), -1, N, True)
    return out


def _clamp(poly, n_z):
    return LaurentPoly({e: c for e, c in poly.coeffs.items() if abs(e) <= n_z}, poly.var)


def reference_theta_qexp(kind, n_q, n_z=None):
    if n_z is None:
        n_z = n_q
    _, sign, half_offset = _THETA_SHAPE[kind]
    series = QSeries.one(Z_RING, n_q)
    for j in range(1, n_q + 1):
        series = series * QSeries.from_terms(Z_RING, n_q, {0: 1, j: -1})
        g = Fraction(2 * j - 1, 2) if half_offset else Fraction(j)
        if g > n_q:
            continue
        for e in (1, -1):
            factor = QSeries.from_terms(
                Z_RING, n_q, {0: 1, g: LaurentPoly.monomial(e, sign, "z")})
            series = series * factor
            series = series.map_coefficients(lambda c: _clamp(c, n_z))
    return series


def reference_exp(series):
    """The term-by-term power loop sum_m g^m / m!."""
    acc = QSeries.one(series.ring, series.trunc)
    term = QSeries.one(series.ring, series.trunc)
    for m in range(1, 2 * series.trunc + 1):
        term = (term * series).scale(Fraction(1, m))
        acc = acc + term
    return acc


# -- seeded characters -------------------------------------------------------------


def rand_char(rng, var="lam"):
    """Integer multiplicities of both signs, always with a trivial part."""
    coeffs = {0: rng.choice([-3, -2, -1, 1, 2, 3])}
    for _ in range(rng.randint(1, 3)):
        coeffs[rng.choice([w for w in range(-5, 6) if w])] = rng.choice([-2, -1, 1, 2])
    return VirtualChar(LaurentPoly(coeffs, var))


GRADES = (Fraction(1, 2), 1, Fraction(3, 2))


def test_total_powers_match_convolution_route():
    rng = random.Random(41)
    signs_seen, mults_seen = set(), set()
    for _ in range(60):
        E = rand_char(rng)
        N = rng.randint(1, 6)
        grade = rng.choice(GRADES)
        sign = rng.choice([1, -1])
        signs_seen.add(sign)
        mults_seen.update(c > 0 for c in E.char.coeffs.values())
        assert sym_total(E, grade, sign, N) == reference_total_power(E, grade, sign, N, False)
        assert ext_total(E, grade, sign, N) == reference_total_power(E, grade, sign, N, True)
    assert signs_seen == {1, -1} and mults_seen == {True, False}


def test_theta_series_matches_convolution_route():
    rng = random.Random(43)
    for i in range(30):
        E = rand_char(rng, var="mu" if i % 2 else "lam")
        if i % 3 == 0:
            E = VirtualChar(E.char - LaurentPoly.constant(E.rank, E.var))
        N = rng.randint(1, 5)
        for variant in (THETA, THETA1, THETA2):
            assert theta_series(E, variant, N) == reference_theta_series(E, variant, N)


def test_theta_bundle_of_tangent_character_matches_convolution_route():
    # a fixed-point tangent character of CP^3, as lefschetz builds it
    E = VirtualChar.zero("mu")
    for w in (1, 2, 5):
        E = E + VirtualChar(LaurentPoly({2 * w: 1, -2 * w: 1}, "mu"))
    for variant in (THETA, THETA1, THETA2):
        assert theta_bundle(E, variant, 6) == reference_theta_series(E.tilde(), variant, 6)


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_theta_qexp_matches_triple_product_loop(kind):
    for n_q in range(1, 9):
        for n_z in (None, 0, 1, 2, n_q, n_q + 3):
            got = theta_qexp(kind, n_q, n_z)
            assert got.series == reference_theta_qexp(kind, n_q, n_z), (n_q, n_z)
        with pytest.raises(ValueError):
            theta_qexp(kind, n_q, -1)


def test_p_series_one_minus_factor():
    # prod (1 - q^n)^(4l) by the kernel equals repeated series multiplication
    N = 5
    ref = QSeries.one(LAMBDA_RING, N)
    for n in range(1, N + 1):
        ref = ref * QSeries.from_terms(LAMBDA_RING, N, {0: 1, n: -1}) ** 8
    got = _binomial_product(
        LAMBDA_RING, N, [(-1, 0, 2 * n, False) for n in range(1, N + 1) for _ in range(8)])
    assert got == ref


def test_divide_undoes_multiply():
    rng = random.Random(47)
    factors = [(rng.choice([1, -1]), rng.randint(-4, 4), rng.randint(1, 5), rng.random() < 0.5)
               for _ in range(12)]
    inverse = [(-s, w, h, not divide) for s, w, h, divide in factors]
    prod = _binomial_product(LAMBDA_RING, 6, factors)
    assert prod * _binomial_product(LAMBDA_RING, 6, inverse) == QSeries.one(LAMBDA_RING, 6)


def test_product_route_refuses_non_integral_character():
    E = VirtualChar(LaurentPoly({2: Fraction(1, 2), 0: 1}))
    with pytest.raises(NonIntegral):
        sym_total(E, 1, 1, 3, route="product")
    with pytest.raises(NonIntegral):
        theta_series(E, THETA, 3, route="product")
    # the Adams route handles it, under "auto" too
    assert theta_series(E, THETA, 3) == theta_series(E, THETA, 3, route="adams")


def test_exp_recurrence_matches_power_loop():
    rng = random.Random(53)
    for _ in range(15):
        N = rng.randint(1, 5)
        lam_arg = QSeries(LAMBDA_RING, N, [0] + [
            LaurentPoly({rng.randint(-3, 3): Fraction(rng.randint(-4, 4), rng.randint(1, 3))})
            for _ in range(2 * N)])
        assert lam_arg.exp() == reference_exp(lam_arg)
        rat_arg = QSeries(RATIONAL, N, [0] + [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                                              for _ in range(2 * N)])
        assert rat_arg.exp() == reference_exp(rat_arg)


# -- the packed kernel against the dict-row kernel -----------------------------------


def rand_factors(rng, weights, top, count):
    """Mixed multiply and divide factors with |s| up to 3."""
    return [(rng.choice([1, -1, 2, -2, 3, -3]), rng.choice(weights), rng.randint(1, top),
             rng.random() < 0.5) for _ in range(count)]


def assert_kernels_agree(ring, trunc, factors, bounds=(None,)):
    for bound in bounds:
        got = _binomial_product(ring, trunc, factors, bound)
        assert got == reference_binomial_product(ring, trunc, factors, bound), (factors, bound)


def test_packed_kernel_matches_dict_kernel():
    rng = random.Random(59)
    weight_sets = ([-3, -1, 0, 2, 5], [-6, 0, 3, 9], [-4, -2], [0], [1, 7])
    for i in range(40):
        weights = weight_sets[i % len(weight_sets)]
        trunc = rng.randint(1, 4)
        factors = rand_factors(rng, weights, 2 * trunc, rng.randint(1, 10))
        wide = max(abs(w) for _, w, _, _ in factors) * 2 * trunc
        bounds = (None, 0, 1, wide - 1, wide, wide + 5)
        assert_kernels_agree(LAMBDA_RING, trunc, factors, [b for b in bounds if b != -1])


def test_packed_kernel_edge_lists():
    assert _binomial_product(LAMBDA_RING, 3, []) == QSeries.one(LAMBDA_RING, 3)
    assert _binomial_product(LAMBDA_RING, 3, [], bound=0) == QSeries.one(LAMBDA_RING, 3)
    # every factor starts above the truncation
    late = [(2, 3, 7, False), (-1, -2, 9, True)]
    assert _binomial_product(Z_RING, 3, late, bound=1) == QSeries.one(Z_RING, 3)
    # weights sharing the gcd 3, clamped to a bound that is not a multiple of it
    rng = random.Random(61)
    factors = rand_factors(rng, [-9, -3, 3, 6], 6, 12)
    assert_kernels_agree(Z_RING, 3, factors, (None, 0, 2, 4, 7, 53, 54, 80))


def test_packed_kernel_wide_digits():
    # 40 divisions by 1 - 3x q^(1/2): coefficients far above 2^64
    factors = [(3, 1, 1, True)] * 40 + [(-1, -1, 2, False)] * 3
    got = _binomial_product(LAMBDA_RING, 8, factors)
    assert max(abs(c) for poly in got.coeffs for c in poly.coeffs.values()) > 2 ** 64
    assert got == reference_binomial_product(LAMBDA_RING, 8, factors)
    assert_kernels_agree(LAMBDA_RING, 8, factors, (0, 3, 15))


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("s", [1, -1])
def test_packed_kernel_sign_bit(n, s):
    # 1/(1 - s x q^(1/2))^n reaches its majorant n(n+1)/2 at q^1, which needs
    # exactly 8 (n = 16) or 16 (n = 256) magnitude bits: a digit of that
    # width without room for the sign would overflow
    factors = [(s, 1, 1, True)] * n
    got = _binomial_product(LAMBDA_RING, 1, factors)
    assert got.coeffs[2] == LaurentPoly({2: n * (n + 1) // 2})
    assert got == reference_binomial_product(LAMBDA_RING, 1, factors)
