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
from propergenus.core.qseries import LaurentRing, _binomial_product, _pack, _unpack
from propergenus.errors import NonIntegral, RingMismatch
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    _split,
    ext_total,
    sym_total,
    theta_bundle,
    theta_series,
    tilde,
)
from propergenus.theta_modforms import THETA_KINDS, _THETA_SHAPE, theta_qexp

# -- the dict-row kernel --------------------------------------------------------


def reference_binomial_product(ring, trunc, factors, start=None):
    """Binomial factors applied on per-grade ``{exponent: coeff}`` rows,
    starting from the rows of ``start`` (by default 1).

    Multiplying by 1 + s x^w q^(h/2) is ``row[k] += s x^w row[k-h]`` for
    k downwards, dividing by 1 - s x^w q^(h/2) the same update for k
    upwards; a factor of multiplicity m is m such updates.
    """
    top = 2 * trunc
    if start is None:
        start = QSeries.one(ring, trunc)
    rows = [dict(poly.coeffs) for poly in start.coeffs]
    for s, w, h, divide, mult in factors:
        if h > top:
            continue
        for _ in range(mult):
            for k in range(h, top + 1) if divide else range(top, h - 1, -1):
                dst = rows[k]
                for e, c in rows[k - h].items():
                    e += w
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
    pos, neg = _split(E)
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
    """The triple product by series multiplication, exact to q^n_q; with
    ``n_z``, every term z^e with |e| > n_z is dropped once, at the end."""
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
    if n_z is not None:
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
    return LaurentPoly(coeffs, var)


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
        mults_seen.update(c > 0 for c in E.coeffs.values())
        assert sym_total(E, grade, sign, N) == reference_total_power(E, grade, sign, N, False)
        assert ext_total(E, grade, sign, N) == reference_total_power(E, grade, sign, N, True)
    assert signs_seen == {1, -1} and mults_seen == {True, False}


def test_theta_series_matches_convolution_route():
    rng = random.Random(43)
    for i in range(30):
        E = rand_char(rng, var="mu" if i % 2 else "lam")
        if i % 3 == 0:
            E = tilde(E)
        N = rng.randint(1, 5)
        for variant in (THETA, THETA1, THETA2):
            assert theta_series(E, variant, N) == reference_theta_series(E, variant, N)


def test_theta_bundle_of_tangent_character_matches_convolution_route():
    # a fixed-point tangent character of CP^3, as lefschetz builds it
    E = LaurentPoly.zero("mu")
    for w in (1, 2, 5):
        E = E + LaurentPoly({2 * w: 1, -2 * w: 1}, "mu")
    for variant in (THETA, THETA1, THETA2):
        assert theta_bundle(E, variant, 6) == reference_theta_series(tilde(E), variant, 6)


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_theta_qexp_matches_triple_product_loop(kind):
    # the closed-form sum against the multiplied-out product; orders 16 and
    # 24 reach k = 6 on the square and the k(k+1) grades
    cases = [(n_q, n_z) for n_q in range(1, 9) for n_z in (None, *range(n_q + 4))]
    cases += [(n_q, n_z) for n_q in (16, 24) for n_z in (None, 0, 3, n_q + 1)]
    for n_q, n_z in cases:
        got = theta_qexp(kind, n_q, n_z)
        assert got.series == reference_theta_qexp(kind, n_q, n_z), (n_q, n_z)
    for n_q in range(1, 9):
        with pytest.raises(ValueError):
            theta_qexp(kind, n_q, -1)


def test_p_series_one_minus_factor():
    # prod (1 - q^n)^(4l), the factors of the -4l lines that p_series folds
    # into every twist, by the kernel equals repeated series multiplication
    N = 5
    ref = QSeries.one(LAMBDA_RING, N)
    for n in range(1, N + 1):
        ref = ref * QSeries.from_terms(LAMBDA_RING, N, {0: 1, n: -1}) ** 8
    got = _binomial_product(LAMBDA_RING, N, [(-1, 0, 2 * n, False, 8) for n in range(1, N + 1)])
    assert got == ref


def test_divide_undoes_multiply():
    rng = random.Random(47)
    factors = [(rng.choice([1, -1]), rng.randint(-4, 4), rng.randint(1, 5), rng.random() < 0.5,
                rng.randint(1, 7)) for _ in range(12)]
    inverse = [(-s, w, h, not divide, mult) for s, w, h, divide, mult in factors]
    prod = _binomial_product(LAMBDA_RING, 6, factors)
    assert prod * _binomial_product(LAMBDA_RING, 6, inverse) == QSeries.one(LAMBDA_RING, 6)


def test_product_route_refuses_non_integral_character():
    # theta_bundle checks the rank of E before the multiplicities of E~
    for coeffs, lines, rank in (
        ({2: Fraction(1, 2), 0: 1}, "multiplicity 1/2 at weight 2", "rank 3/2"),
        ({0: Fraction(1, 3)}, "multiplicity 1/3 at weight 0", "rank 1/3"),
        ({2: Fraction(1, 2), -2: Fraction(1, 2)}, "multiplicity 1/2 at weight 2",
         "multiplicity 1/2 at weight 2"),  # integral rank
    ):
        E = LaurentPoly(coeffs)
        lines, rank = f"^{lines} is not an integer$", f"^{rank} is not an integer$"
        with pytest.raises(NonIntegral, match=lines):
            sym_total(E, 1, 1, 3)
        with pytest.raises(NonIntegral, match=lines):
            ext_total(E, 1, 1, 3)
        for variant in (THETA, THETA1, THETA2):
            with pytest.raises(NonIntegral, match=lines):
                theta_series(E, variant, 3)
            with pytest.raises(NonIntegral, match=rank):
                theta_bundle(E, variant, 3)


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


def rand_factors(rng, weights, top, count, mults=(1,)):
    """Mixed multiply and divide factors with |s| up to 3."""
    return [(rng.choice([1, -1, 2, -2, 3, -3]), rng.choice(weights), rng.randint(1, top),
             rng.random() < 0.5, rng.choice(mults)) for _ in range(count)]


def assert_kernels_agree(ring, trunc, factors, start=None):
    got = _binomial_product(ring, trunc, factors, start)
    assert got == reference_binomial_product(ring, trunc, factors, start), (factors, start)


def test_packed_kernel_matches_dict_kernel():
    rng = random.Random(59)
    weight_sets = ([-3, -1, 0, 2, 5], [-6, 0, 3, 9], [-4, -2], [0], [1, 7])
    for i in range(40):
        weights = weight_sets[i % len(weight_sets)]
        trunc = rng.randint(1, 4)
        factors = rand_factors(rng, weights, 2 * trunc, rng.randint(1, 10))
        assert_kernels_agree(LAMBDA_RING, trunc, factors)


def test_packed_kernel_edge_lists():
    assert _binomial_product(LAMBDA_RING, 3, []) == QSeries.one(LAMBDA_RING, 3)
    # every factor starts above the truncation
    late = [(2, 3, 7, False, 1), (-1, -2, 9, True, 5)]
    assert _binomial_product(Z_RING, 3, late) == QSeries.one(Z_RING, 3)
    # weights sharing the gcd 3
    rng = random.Random(61)
    factors = rand_factors(rng, [-9, -3, 3, 6], 6, 12)
    assert_kernels_agree(Z_RING, 3, factors)


def test_packed_kernel_wide_digits():
    # 40 divisions by 1 - 3x q^(1/2): coefficients far above 2^64
    factors = [(3, 1, 1, True, 1)] * 40 + [(-1, -1, 2, False, 1)] * 3
    got = _binomial_product(LAMBDA_RING, 8, factors)
    assert max(abs(c) for poly in got.coeffs for c in poly.coeffs.values()) > 2 ** 64
    assert got == reference_binomial_product(LAMBDA_RING, 8, factors)


def test_multiplicity_is_one_factor():
    # a factor of multiplicity m equals m unit factors, for weight 0 (the
    # scalar start) and for weighted lines, at multiplicities the
    # truncation cuts (one binomial-series pass) and ones it does not
    rng = random.Random(67)
    for w in (0, 0, 1, -2, 3):
        for _ in range(12):
            trunc = rng.randint(1, 4)
            s, h, divide = rng.choice([1, -1, 2, -3]), rng.randint(1, 2 * trunc), rng.random() < 0.5
            mult = rng.choice([2, 3, 2 * trunc // h + 1, 2 * trunc + 5])
            got = _binomial_product(LAMBDA_RING, trunc, [(s, w, h, divide, mult), (1, 1, 1, True, 1)])
            units = [(s, w, h, divide, 1)] * mult + [(1, 1, 1, True, 1)]
            assert got == _binomial_product(LAMBDA_RING, trunc, units), (s, w, h, divide, mult)
            assert got == reference_binomial_product(LAMBDA_RING, trunc, units)


def test_large_multiplicity_is_one_binomial_series():
    # theta of a trivial bundle of rank m is prod_n (1 - q^n)^(-m): to q^2
    # that is 1 + m q + (m + binom(m + 1, 2)) q^2, in one pass per factor
    m = 10 ** 6
    got = theta_series(LaurentPoly.constant(m), THETA, 2)
    assert [c.eval_one() for c in got.coeffs] == [1, 0, m, 0, m + m * (m + 1) // 2]
    # and for a weighted line: L_t(m x) with t = -q^(1/2) is (1 - x q^(1/2))^m
    got = ext_total(LaurentPoly({1: m}), Fraction(1, 2), -1, 1)
    assert [c.coeffs for c in got.coeffs] == [{0: 1}, {1: -m}, {2: m * (m - 1) // 2}]


def rand_start(rng, ring, trunc, span, big=False):
    """A seeded start series: some rows zero, exponents of both signs."""
    rows = []
    for _ in range(2 * trunc + 1):
        if rng.random() < 0.3:
            rows.append({})
            continue
        top = 2 ** 31 - 1 if big else 9
        rows.append({rng.randint(-span, span): rng.choice([-top, top, rng.randint(-top, top)])
                     for _ in range(rng.randint(1, 4))})
    return QSeries(ring, trunc, [LaurentPoly(row, ring.var) for row in rows])


def test_packed_kernel_from_a_start():
    rng = random.Random(71)
    weight_sets = ([-3, -1, 0, 2, 5], [-6, 0, 3, 9], [0], [1, 7], [-4, -2])
    for i in range(50):
        weights = weight_sets[i % len(weight_sets)]
        trunc = rng.randint(1, 4)
        factors = rand_factors(rng, weights, 2 * trunc, rng.randint(0, 8), (1, 1, 2, 5))
        start = rand_start(rng, LAMBDA_RING, trunc, rng.choice([0, 2, 7]), big=i % 4 == 3)
        assert_kernels_agree(LAMBDA_RING, trunc, factors, start)
    # starts whose exponents share a gcd with the weights, or not
    for span_step, weights in ((4, [-8, 4, 12]), (3, [-2, 6]), (2, [0])):
        trunc = 3
        start = QSeries(Z_RING, trunc, [LaurentPoly({span_step * rng.randint(-3, 3): k + 1}, "z")
                                        for k in range(2 * trunc + 1)])
        assert_kernels_agree(Z_RING, trunc, rand_factors(rng, weights, 6, 6, (1, 3)), start)


def test_packed_kernel_start_edge_cases():
    factors = [(1, 2, 1, True, 1), (-1, 0, 2, False, 3), (2, -1, 3, False, 4)]
    # the all-zero start gives the zero series
    zero = QSeries(LAMBDA_RING, 3)
    assert _binomial_product(LAMBDA_RING, 3, factors, zero) == zero
    # the start 1 is no start; a start alone comes back unchanged
    one = QSeries.one(LAMBDA_RING, 3)
    assert _binomial_product(LAMBDA_RING, 3, factors, one) == _binomial_product(
        LAMBDA_RING, 3, factors)
    rng = random.Random(73)
    start = rand_start(rng, LAMBDA_RING, 3, 5)
    assert _binomial_product(LAMBDA_RING, 3, [], start) == start
    # coefficients at +-(2^31 - 1) fill a 32-bit digit exactly; one factor
    # (1 + x q^(1/2)) doubles the l1 norm of row 1 and calls for 64 bits
    for c in (2 ** 31 - 1, -(2 ** 31 - 1), 2 ** 31, -(2 ** 31)):
        start = QSeries(LAMBDA_RING, 1, [LaurentPoly({-3: c}), LaurentPoly({3: c}), LaurentPoly()])
        assert _binomial_product(LAMBDA_RING, 1, [], start) == start
        for factors in ([(1, 1, 1, False, 1)], [(1, 0, 1, False, 1)], [(-1, 2, 1, True, 3)]):
            assert_kernels_agree(LAMBDA_RING, 1, factors, start)
    with pytest.raises(RingMismatch):
        _binomial_product(LAMBDA_RING, 1, [], QSeries.one(Z_RING, 1))
    half_start = QSeries(LAMBDA_RING, 1, [1, LaurentPoly({2: Fraction(1, 2)})])
    with pytest.raises(NonIntegral, match="^a start coefficient is not integral$"):
        theta_bundle(LaurentPoly({2: 1, -2: 1}), THETA, 1, half_start)


def test_theta_bundle_from_a_start_is_the_product():
    # theta_bundle(E, variant, N, start) is theta_bundle(E, variant, N) * start
    rng = random.Random(79)
    for _ in range(10):
        E = rand_char(rng)
        N = rng.randint(1, 4)
        start = rand_start(rng, LAMBDA_RING, N, 6)
        for variant in (THETA, THETA1, THETA2):
            assert theta_bundle(E, variant, N, start) == theta_bundle(E, variant, N) * start


@pytest.mark.parametrize("n", [16, 256])
@pytest.mark.parametrize("s", [1, -1])
def test_packed_kernel_sign_bit(n, s):
    # 1/(1 - s x q^(1/2))^n reaches its majorant n(n+1)/2 at q^1, which needs
    # exactly 8 (n = 16) or 16 (n = 256) magnitude bits: a digit of that
    # width without room for the sign would overflow; as n unit factors
    # and as one factor of multiplicity n
    for factors in ([(s, 1, 1, True, 1)] * n, [(s, 1, 1, True, n)]):
        got = _binomial_product(LAMBDA_RING, 1, factors)
        assert got.coeffs[2] == LaurentPoly({2: n * (n + 1) // 2})
        assert got == reference_binomial_product(LAMBDA_RING, 1, factors)


@pytest.mark.parametrize("B", [8, 16, 24, 64, 72])
def test_digit_pack_round_trip(B):
    # both layouts (one cast at 8/16/64 bits, byte slices at 24/72), from
    # exponent lo in steps of step: the packed value is sum_i c_i 2^(B i)
    # with c_i at exponent lo + step i, unpacking inverts packing, and a
    # value with no n-digit balanced form raises OverflowError
    rng = random.Random(B)
    top = 1 << (B - 1)
    for lo, step in ((0, 1), (-7, 1), (-6, 2), (4, 2), (-9, 3), (3, 3)):
        for n in (1, 5, 12):
            # an extreme top digit, so the packed form spans all n digits
            digits = [rng.choice((-top, top - 1, 0, rng.randrange(-top, top)))
                      for _ in range(n - 1)] + [rng.choice((-top, top - 1))]
            poly = LaurentPoly({lo + step * i: d for i, d in enumerate(digits)}, "x")
            value = _pack(poly, B, lo, step)
            assert value == sum(d << (B * i) for i, d in enumerate(digits))
            assert _unpack(value, B, lo, n, "x", step) == poly
            # n digits hold exactly the values from -top ones to (top - 1) ones
            ones = sum(1 << (B * i) for i in range(n))
            lowest, highest = -top * ones, (top - 1) * ones
            exponents = range(lo, lo + step * n, step)
            assert _unpack(lowest, B, lo, n, "x", step) == LaurentPoly(dict.fromkeys(exponents, -top), "x")
            assert _unpack(highest, B, lo, n, "x", step) == LaurentPoly(dict.fromkeys(exponents, top - 1), "x")
            for outside in (lowest - 1, highest + 1):
                with pytest.raises(OverflowError):
                    _unpack(outside, B, lo, n, "x", step)
    assert _pack(LaurentPoly.zero("x"), B, -3, 2) == 0
