"""The packed binomial kernel against two independent references.

The convolution route builds every factor as a full series (a geometric
series for S_t of a line, a two-term series for L_t of a line, the three
triple-product factors of a theta function) and multiplies the factors
with ``QSeries.__mul__``.  ``reference_binomial_product`` applies the
same factors in place on per-grade ``{exponent: coeff}`` rows, one
factor per line of the character and power of q (``oracles.line_factors``).
The Kronecker-packed kernel, which reads the character and its powers,
must give the same series at every grade, on its grade lattice or off
it; its digit-width bound must equal the factor-by-factor one of
``oracles.factor_majorant``, and the pairs it runs by Jacobi's triple
product must be those that ``oracles.factor_pairs`` finds in the factors.
"""

import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import factor_majorant, factor_pairs, line_factors, split_char

from propergenus.cli import main
from propergenus.core import LAMBDA_RING, RATIONAL, Z_RING, LaurentPoly, QSeries, half_units, qseries
from propergenus.core.qseries import (
    LaurentRing,
    _binomial_product,
    _pack,
    _raw,
    _read,
    _relay,
    _span,
    _unpack,
)
from propergenus.errors import NonIntegral, RingMismatch
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    eval_bundle_expr,
    ext_total,
    sym_total,
    theta_bundle,
    theta_series,
    tilde,
)
from propergenus.lefschetz import (
    FixedPointDatum,
    _tangent_char,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
    validate_weights,
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


def reference_product(E, powers, trunc, start=None):
    """The dict-row kernel on the factors of the character E and its
    ``powers``, multiplied out (``oracles.line_factors``)."""
    return reference_binomial_product(LaurentRing(E.var), trunc, line_factors(E, powers), start)


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
    pos, neg = split_char(E)
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
    got = _binomial_product(LaurentPoly.constant(-8), [(2 * n, 1, False) for n in range(1, N + 1)], N)
    assert got == ref


def test_divide_undoes_multiply():
    # S_t(E) S_t(-E) = L_t(E) L_t(-E) = 1: each line's factor against its inverse
    rng = random.Random(47)
    for _ in range(12):
        E = rand_lines(rng, range(-4, 5), (1, 2, 7))
        powers = rand_powers(rng, 10, rng.randint(1, 5))
        prod = _binomial_product(E, powers, 6)
        assert prod * _binomial_product(-E, powers, 6) == QSeries.one(LAMBDA_RING, 6), (E, powers)


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


def rand_lines(rng, weights, mults=(1,), var="lam"):
    """A character on some of ``weights``, multiplicities +-mult of both
    signs, so its factors multiply and divide."""
    weights = list(weights)
    return LaurentPoly({w: rng.choice([1, -1]) * rng.choice(mults)
                        for w in rng.sample(weights, rng.randint(1, len(weights)))}, var)


def rand_powers(rng, top, count):
    """Symmetric and exterior powers (h, sign, exterior), h in 1..top."""
    return [(rng.randint(1, top), rng.choice([1, -1]), rng.random() < 0.5) for _ in range(count)]


def assert_kernels_agree(E, powers, trunc, start=None):
    got = _binomial_product(E, powers, trunc, start)
    assert got == reference_product(E, powers, trunc, start), (E, powers, start)


def kernel_widths(*args):
    """The kernel's result and the list of digit widths B it chose."""
    widths = []
    width = qseries._width
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qseries, "_width", lambda bound: widths.append(width(bound)) or widths[-1])
        return _binomial_product(*args), widths


def test_packed_kernel_matches_dict_kernel():
    rng = random.Random(59)
    weight_sets = ([-3, -1, 0, 2, 5], [-6, 0, 3, 9], [-4, -2], [0], [1, 7])
    for i in range(40):
        weights = weight_sets[i % len(weight_sets)]
        trunc = rng.randint(1, 4)
        E = rand_lines(rng, weights, (1, 1, 2, 3))
        assert_kernels_agree(E, rand_powers(rng, 2 * trunc, rng.randint(1, 4)), trunc)


def test_packed_kernel_edge_lists():
    assert _binomial_product(LaurentPoly.zero(), [], 3) == QSeries.one(LAMBDA_RING, 3)
    assert _binomial_product(LaurentPoly({2: 3, -1: -2}), [], 3) == QSeries.one(LAMBDA_RING, 3)
    # every power starts above the truncation
    late = [(7, 1, False), (9, -1, True)]
    assert _binomial_product(LaurentPoly({3: 2, -2: -5}, "z"), late, 3) == QSeries.one(Z_RING, 3)
    # weights sharing the gcd 3
    rng = random.Random(61)
    for _ in range(4):
        assert_kernels_agree(rand_lines(rng, [-9, -3, 3, 6], (1, 2), "z"), rand_powers(rng, 6, 4), 3)


def test_packed_kernel_wide_digits():
    # 1/(1 - x q^(1/2))^300 (1 - q^(1/2)/x)^3: coefficients far above 2^64
    E, powers = LaurentPoly({1: 300, -1: -3}), [(1, 1, False)]
    got = _binomial_product(E, powers, 8)
    assert max(abs(c) for poly in got.coeffs for c in poly.coeffs.values()) > 2 ** 64
    assert got == reference_product(E, powers, 8)
    # the Theta2 twist of a 2l = 8 tangent character at N = 20 packs
    # 72-bit digits through byte slices and unpacks them through byte
    # copies onto 64 bits, from the default start, from the start 1 and
    # from a seeded start
    E = tilde(_tangent_char(validate_weights((0, 1, 2, 3, 4, 6, 7, 9))[0]))
    ring, N = LaurentRing(E.var), 20
    powers = witten_powers(THETA2, N)
    default = kernel_widths(E, powers, N)
    assert default[1] == [72]
    assert default[0] == reference_product(E, powers, N)
    assert kernel_widths(E, powers, N, QSeries.one(ring, N)) == default
    start = rand_start(random.Random(107), ring, N, 4)
    got, widths = kernel_widths(E, powers, N, start)
    assert widths == [72]
    assert got == reference_product(E, powers, N, start)


def test_multiplicity_is_one_factor():
    # a line of multiplicity m under one power equals the unit line under
    # that power repeated m times, for weight 0 (the scalar start) and for
    # weighted lines, at multiplicities the truncation cuts (one
    # binomial-series pass) and ones it does not; the start
    # 1/(1 - x q^(1/2)) gives every product an x
    rng = random.Random(67)
    for w in (0, 0, 1, -2, 3):
        for _ in range(12):
            trunc = rng.randint(1, 4)
            power = (rng.randint(1, 2 * trunc), rng.choice([1, -1]), rng.random() < 0.5)
            mult = rng.choice([2, 3, 2 * trunc // power[0] + 1, 2 * trunc + 5])
            sign = rng.choice([1, -1])
            start = _binomial_product(LaurentPoly({1: 1}), [(1, 1, False)], trunc)
            E = LaurentPoly({w: sign * mult})
            got = _binomial_product(E, [power], trunc, start)
            units = _binomial_product(LaurentPoly({w: sign}), [power] * mult, trunc, start)
            assert got == units, (E, power)
            assert got == reference_product(E, [power], trunc, start)


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
        E = rand_lines(rng, weights, (1, 1, 2, 5))
        powers = rand_powers(rng, 2 * trunc, rng.randint(0, 4))
        start = rand_start(rng, LAMBDA_RING, trunc, rng.choice([0, 2, 7]), big=i % 4 == 3)
        assert_kernels_agree(E, powers, trunc, start)
    # starts whose exponents share a gcd with the weights, or not
    for span_step, weights in ((4, [-8, 4, 12]), (3, [-2, 6]), (2, [0])):
        trunc = 3
        start = QSeries(Z_RING, trunc, [LaurentPoly({span_step * rng.randint(-3, 3): k + 1}, "z")
                                        for k in range(2 * trunc + 1)])
        E = rand_lines(rng, weights, (1, 3), "z")
        assert_kernels_agree(E, rand_powers(rng, 6, 3), trunc, start)


def test_packed_kernel_start_edge_cases():
    E, powers = LaurentPoly({2: 1, 0: -3, -1: 4}), [(1, 1, False), (3, -1, True)]
    # the all-zero start gives the zero series
    zero = QSeries(LAMBDA_RING, 3)
    assert _binomial_product(E, powers, 3, zero) == zero
    # the start 1 is the default start: the same series at the same width B;
    # a start alone comes back unchanged
    one = QSeries.one(LAMBDA_RING, 3)
    assert kernel_widths(E, powers, 3, one) == kernel_widths(E, powers, 3)
    rng = random.Random(73)
    start = rand_start(rng, LAMBDA_RING, 3, 5)
    assert _binomial_product(LaurentPoly.zero(), [], 3, start) == start
    # a start of a lower truncation cuts the product to it
    short = rand_start(rng, LAMBDA_RING, 1, 5)
    assert _binomial_product(E, powers, 3, short) == _binomial_product(E, powers, 3) * short
    # coefficients at +-(2^31 - 1) fill a 32-bit digit exactly; one factor
    # (1 + x q^(1/2)) doubles the l1 norm of row 1 and calls for 64 bits
    for c in (2 ** 31 - 1, -(2 ** 31 - 1), 2 ** 31, -(2 ** 31)):
        start = QSeries(LAMBDA_RING, 1, [LaurentPoly({-3: c}), LaurentPoly({3: c}), LaurentPoly()])
        assert _binomial_product(LaurentPoly.zero(), [], 1, start) == start
        # 1 + x q^(1/2), 1 + q^(1/2) and 1/(1 + x^2 q^(1/2))^3
        for E, power in ((LaurentPoly({1: 1}), (1, 1, True)), (LaurentPoly({0: 1}), (1, 1, True)),
                         (LaurentPoly({2: 3}), (1, -1, False))):
            assert_kernels_agree(E, [power], 1, start)
    with pytest.raises(RingMismatch):
        _binomial_product(LaurentPoly.zero(), [], 1, QSeries.one(Z_RING, 1))
    half_start = QSeries(LAMBDA_RING, 1, [1, LaurentPoly({2: Fraction(1, 2)})])
    with pytest.raises(NonIntegral, match="^a start coefficient is not integral$"):
        theta_bundle(LaurentPoly({2: 1, -2: 1}), THETA, 1, half_start)


ORDER_ENTRIES = {
    "theta_series": lambda N: theta_series(LaurentPoly({1: 1, -1: 1}), THETA, N),
    "sym_total": lambda N: sym_total(LaurentPoly({1: 1}), 1, 1, N),
    "lefschetz_twisted": lambda N: lefschetz_twisted((0, 2), N=N),
    "p_series": lambda N: p_series((0, 2), N),
    "eval_bundle_expr": lambda N: eval_bundle_expr("(theta (rep 1))", N),
    "theta_bundle_start": lambda N: theta_bundle(LaurentPoly({1: 1}), THETA, N, QSeries.one(LAMBDA_RING, 3)),
}


@pytest.mark.parametrize("N", [0, -1])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_kernel_refuses_an_order_below_one(entry, N):
    # the kernel is every entry's door; a start's own order does not lift N
    with pytest.raises(ValueError, match="^truncation order must be a positive integer$"):
        ORDER_ENTRIES[entry](N)


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
    # width without room for the sign would overflow; as S_t(x) for n
    # powers t = s q^(1/2) and as S_t(n x) for one
    for E, powers in ((LaurentPoly({1: 1}), [(1, s, False)] * n), (LaurentPoly({1: n}), [(1, s, False)])):
        got = _binomial_product(E, powers, 1)
        assert got.coeffs[2] == LaurentPoly({2: n * (n + 1) // 2})
        assert got == reference_product(E, powers, 1)


@pytest.mark.parametrize("B", [8, 16, 24, 32, 40, 56, 64, 72, 80, 88, 96, 120])
def test_digit_pack_round_trip(B):
    # every layout (one cast at 8/16/32/64 bits, byte copies onto a cast
    # width first, or byte slices when a digit above 64 bits does not fit
    # 64), from exponent lo in steps of step: the packed value is
    # sum_i c_i 2^(B i) with c_i at exponent lo + step i, unpacking inverts
    # packing, and a value just past the n-digit balanced range unpacks to
    # n + 1 digits, since the count comes from the value
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
            assert _unpack(value, B, lo, "x", step) == poly
            # n digits hold exactly the values from -top ones to (top - 1) ones
            ones = sum(1 << (B * i) for i in range(n))
            lowest, highest = -top * ones, (top - 1) * ones
            exponents = range(lo, lo + step * n, step)
            assert _unpack(lowest, B, lo, "x", step) == LaurentPoly(dict.fromkeys(exponents, -top), "x")
            assert _unpack(highest, B, lo, "x", step) == LaurentPoly(dict.fromkeys(exponents, top - 1), "x")
            for outside in (lowest - 1, highest + 1):
                got = _unpack(outside, B, lo, "x", step)
                assert max(got.coeffs) == lo + step * n and _pack(got, B, lo, step) == outside
    assert _pack(LaurentPoly.zero("x"), B, -3, 2) == 0
    # a one-term polynomial is one shift, and adds to another one-term
    # polynomial as the two-term polynomial packs on the digit path
    for lo, step in ((0, 1), (-7, 1), (-6, 2), (3, 3)):
        for c in (-top, top - 1, 1, -1, rng.randrange(-top, top) or 1):
            i, j = rng.sample(range(12), 2)
            one = LaurentPoly({lo + step * i: c}, "x")
            other = LaurentPoly({lo + step * j: rng.choice((-top, top - 1))}, "x")
            assert _pack(one, B, lo, step) == c << B * i
            assert _pack(one, B, lo, step) + _pack(other, B, lo, step) == _pack(one + other, B, lo, step)
            assert _unpack(_pack(one, B, lo, step), B, lo, "x", step) == one


def _no_top_zeros(digits) -> list:
    """``digits`` without its zero digits on top."""
    digits = list(digits)
    while digits and not digits[-1]:
        digits.pop()
    return digits


@pytest.mark.parametrize("B", [24, 40, 48, 56, 72, 80, 88, 96, 120])
def test_wide_digits_read_by_one_cast(B):
    # a width that no struct format reads is re-laid onto 64 bits by byte
    # copies when every digit fits 64 bits, as every digit below 64 bits
    # does, and read by one format into a tuple; a digit that does not fit
    # sends the read to byte slices, and both reads give the digits, with
    # zero digits on top
    rng = random.Random(f"read-{B}")
    top = 1 << (min(B, 64) - 1)
    for _ in range(30):
        n = rng.randint(1, 9)
        digits = [rng.choice((0, 1, -1, -top, top - 1, rng.randrange(-top, top))) for _ in range(n)]
        value = sum(c << (B * i) for i, c in enumerate(digits))
        got = _read(_raw(value, B), B)
        assert isinstance(got, tuple) and _no_top_zeros(got) == _no_top_zeros(digits)
        if B > 64:
            # one digit past 64 bits, of either sign: just past, or up to B
            wide = rng.choice((top, -top - 1, rng.randrange(top + 1, 1 << (B - 1))))
            digits[rng.randrange(n)] = wide if rng.random() < 0.5 else -wide - 1
            value = sum(c << (B * i) for i, c in enumerate(digits))
            got = _read(_raw(value, B), B)
            assert isinstance(got, list) and _no_top_zeros(got) == _no_top_zeros(digits)


@pytest.mark.parametrize("B", [8, 16, 24, 32, 64, 72, 80])
def test_span_and_relay_read_the_digits(B):
    # _span finds the lowest nonzero digit and the l1 norm of the digits;
    # _relay moves digit i to digit step i at another width,
    # narrower or wider, as packing the digits there does
    rng = random.Random(f"span-{B}")
    top = 1 << (B - 1)
    for _ in range(40):
        n = rng.randint(1, 9)
        digits = [rng.choice((0, 0, 1, -1, -top, top - 1, rng.randrange(-top, top))) for _ in range(n)]
        digits[rng.randrange(n)] = rng.choice((-1, 1, -top, top - 1))
        value = sum(c << (B * i) for i, c in enumerate(digits))
        nonzero = [i for i, c in enumerate(digits) if c]
        assert _span(value, B) == (nonzero[0], sum(map(abs, digits)))
        for width in (8, 16, 32, 40, 64, 72, 96):
            if max(map(abs, digits)) >= 1 << (width - 1):
                continue
            for step in (1, 2, 3):
                want = sum(c << (width * step * i) for i, c in enumerate(digits))
                assert _relay(value, B, step, width) == want, (width, step)
    # a zero row re-lays to 0 by the same byte copies, at every width and
    # step, those of the certificate's re-lays (32 and 64 bits, steps 1
    # and 2) among them
    for width in (8, 16, 32, 40, 64, 72, 96):
        for step in (1, 2, 3):
            assert _relay(0, B, step, width) == 0, (width, step)


def _balanced_digits(value: int, B: int) -> list:
    """The balanced base-2^B digits of ``value``, lowest first, one at a
    time: each is the residue of what is left in [-2^(B-1), 2^(B-1))."""
    top, digits = 1 << (B - 1), []
    while value:
        c = (value + top) % (1 << B) - top
        digits.append(c)
        value = (value - c) >> B
    return digits


@pytest.mark.parametrize("B", [8, 16, 32, 64, 72, 96])
def test_digit_count_comes_from_the_value(B):
    # the largest and smallest k-digit balanced values, every digit
    # 2^(B-1) - 1 or every digit -2^(B-1), and the values just past them,
    # which take k + 1 digits; one past the largest has at most B k - 1
    # bits for k >= 2, so a count of bit_length // B + 1 digits is one short.
    # Every codec reads the count from the value, at every width that
    # _width returns and wider ones
    top = 1 << (B - 1)
    for k in range(1, 6):
        ones = sum(1 << (B * i) for i in range(k))
        edges = {-top * ones: k, (top - 1) * ones: k, -top * ones - 1: k + 1, (top - 1) * ones + 1: k + 1}
        for value, n in edges.items():
            digits = _balanced_digits(value, B)
            assert len(digits) == n and value.bit_length() // B + 2 >= n
            if value > 0 and n > k > 1:  # one past the largest
                assert value.bit_length() // B + 1 < n
            assert _no_top_zeros(_read(_raw(value, B), B)) == digits
            for lo, step in ((0, 1), (-5, 2), (4, 3)):
                want = LaurentPoly({lo + step * i: c for i, c in enumerate(digits)}, "x")
                assert _unpack(value, B, lo, "x", step) == want
            assert _span(value, B) == (0, sum(map(abs, digits)))
            for width in (8, 16, 32, 64, 72, 96):
                if max(map(abs, digits)) >= 1 << (width - 1):
                    continue
                for step in (1, 2):
                    want = sum(c << (width * step * i) for i, c in enumerate(digits))
                    assert _relay(value, B, step, width) == want, (width, step)
            # shifted up by whole digits, the lowest nonzero digit moves
            assert _span(value << 3 * B, B) == (3, sum(map(abs, digits)))


# -- the grade lattice ---------------------------------------------------------------


LATTICE_WEIGHTS = (-4, -1, 0, 2, 3)


def rand_lattice_powers(rng, d, top, count):
    """Powers whose h are all multiples of d."""
    return [(d * rng.randint(1, top // d), rng.choice([1, -1]), rng.random() < 0.5)
            for _ in range(count)]


def rand_lattice_start(rng, ring, trunc, d, span):
    """A seeded start whose nonzero rows all sit at multiples of d."""
    start = rand_start(rng, ring, trunc, span)
    return QSeries(ring, trunc, [c if k % d == 0 else LaurentPoly.zero(ring.var)
                                 for k, c in enumerate(start.coeffs)])


def unpacked_widths(monkeypatch, *args):
    """The kernel's result and the digit span 2(r + m k) + 1 of every row k
    it unpacks, read from the row's lowest exponent -g (r + m k)."""
    widths = []

    def spy(value, B, lo, var, step=1):
        widths.append(1 - 2 * lo // step)
        return unpack(value, B, lo, var, step)

    unpack = qseries._unpack
    monkeypatch.setattr(qseries, "_unpack", spy)
    got = _binomial_product(*args)
    got.coeffs  # the rows unpack on this first read
    return got, widths


def test_packed_kernel_on_grade_lattices():
    # every h a multiple of d = 2 or 3, with and without a start on the lattice
    rng = random.Random(83)
    for i in range(60):
        d = (2, 3)[i % 2]
        trunc = rng.randint(2, 6)
        E = rand_lines(rng, LATTICE_WEIGHTS, (1, 1, 2, 5))
        powers = rand_lattice_powers(rng, d, 2 * trunc, rng.randint(1, 4))
        start = rand_lattice_start(rng, LAMBDA_RING, trunc, d, 4) if i % 3 else None
        assert_kernels_agree(E, powers, trunc, start)


def test_off_lattice_entries_force_the_full_grid():
    rng = random.Random(89)
    for i in range(30):
        d = (2, 3)[i % 2]
        trunc = rng.randint(2, 5)
        E = rand_lines(rng, LATTICE_WEIGHTS, (1, 2))
        powers = rand_lattice_powers(rng, d, 2 * trunc, rng.randint(1, 4))
        # one nonzero start row off the lattice
        start = rand_lattice_start(rng, LAMBDA_RING, trunc, d, 3)
        coeffs = list(start.coeffs)
        coeffs[d * rng.randint(0, (2 * trunc - 1) // d) + 1] = LaurentPoly({rng.randint(-3, 3): 5})
        assert_kernels_agree(E, powers, trunc, QSeries(LAMBDA_RING, trunc, coeffs))
        # a power with odd h puts every line off the lattice, and the
        # weight-0 line alone puts the scalar start off the start's lattice
        odd = (rng.randrange(1, 2 * trunc + 1, 2), rng.choice([1, -1]), rng.random() < 0.5)
        assert_kernels_agree(E, powers + [odd], trunc)
        assert_kernels_agree(LaurentPoly.constant(rng.choice([-2, -1, 1, 3])), [odd] + powers, trunc, start)


def test_lattice_multiplicities_past_the_truncation():
    # multiplicities past top // h take the binomial-series path on the lattice
    rng = random.Random(97)
    for i in range(30):
        d = (2, 3)[i % 2]
        trunc = rng.randint(2, 6)
        top = 2 * trunc
        powers = rand_lattice_powers(rng, d, top, rng.randint(1, 3))
        low = min(h for h, _, _ in powers)
        E = LaurentPoly({w: rng.choice([1, -1]) * (top // low + rng.choice([1, 2, 7]))
                         for w in rng.sample(LATTICE_WEIGHTS, rng.randint(1, 3))})
        start = rand_lattice_start(rng, LAMBDA_RING, trunc, d, 2) if i % 2 else None
        assert_kernels_agree(E, powers, trunc, start)


def witten_powers(variant, N):
    """The powers (h, sign, exterior) of ``theta_series(E, variant, N)``."""
    powers = [(2 * n, 1, False) for n in range(1, N + 1)]
    if variant == THETA1:
        powers += [(2 * m, 1, True) for m in range(1, N + 1)]
    elif variant == THETA2:
        powers += [(h, -1, True) for h in range(1, 2 * N + 1, 2)]
    return powers


def test_witten_bundles_on_the_lattice(monkeypatch):
    # Theta and Theta1 (every h even) run on every other grade, at
    # 2(r + m k') + 1 digits in row k'; Theta2 (odd h) on every grade
    rng = random.Random(101)
    for i in range(24):
        E = tilde(rand_char(rng, var="mu" if i % 2 else "lam"))
        N = rng.randint(1, 5)
        for variant in (THETA, THETA1, THETA2):
            powers = witten_powers(variant, N)
            got, widths = unpacked_widths(monkeypatch, E, powers, N)
            monkeypatch.undo()
            assert got == theta_series(E, variant, N)
            assert got == reference_product(E, powers, N)
            g = math.gcd(*E.coeffs)
            m = max(map(abs, E.coeffs)) // g
            if variant == THETA2:
                assert widths == [2 * m * k + 1 for k in range(2 * N + 1)]
            elif m:
                assert widths == [2 * m * k + 1 for k in range(N + 1)]


def test_bundle_expression_on_a_third_of_the_grades(capsys, monkeypatch):
    # S_t(x) with t = q^(3/2) is sum_j x^j q^(3j/2): d = 3, three rows of 1, 3, 5 digits
    E, powers = LaurentPoly({1: 1}), [(3, 1, False)]
    got, widths = unpacked_widths(monkeypatch, E, powers, 3)
    monkeypatch.undo()
    assert widths == [1, 3, 5]
    assert got == reference_product(E, powers, 3)
    assert main(["bundle", "expand", "--expr", "(sym q^3/2 (rep 1))", "--order", "3"]) == 0
    terms = {t["grade"]: t["coeff"] for t in json.loads(capsys.readouterr().out)["series"]["terms"]}
    assert terms == {"0": {"0": "1"}, "1/2": {}, "1": {}, "3/2": {"1": "1"},
                     "2": {}, "5/2": {}, "3": {"2": "1"}}


# -- the triple product -------------------------------------------------------------


def pair_spy(monkeypatch):
    """The pairs that run by the triple product, each as (whole, s, w,
    divide, mult, rows) from a ``_pairs`` call, w in units of g and rows
    the row count, and the row count of every weighted binomial pass (one
    with a shift, unlike the scalar passes of the scalar start and the
    majorant)."""
    pairs, lengths = [], []
    run_pairs, apply = qseries._pairs, qseries._apply

    def pairs_spy(rows, s, w, m, B, mult, divide, whole, h):
        pairs.append((whole, s, w, divide, mult, len(rows)))
        run_pairs(rows, s, w, m, B, mult, divide, whole, h)

    def apply_spy(rows, s, h, divide, mult, shift=0):
        if shift:
            lengths.append(len(rows))
        apply(rows, s, h, divide, mult, shift)

    monkeypatch.setattr(qseries, "_pairs", pairs_spy)
    monkeypatch.setattr(qseries, "_apply", apply_spy)
    return pairs, lengths


def tangent_character(tangent_weights):
    return _tangent_char(FixedPointDatum(0, 0, tuple(tangent_weights), 1))


@pytest.mark.parametrize("weights", [(0, 1, 2, 5), (0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 4, 6, 7, 9)])
def test_theta2_twists_by_the_triple_product(monkeypatch, weights):
    # each +-w pair of a point's Theta2 twist runs by the triple product
    # (its multiplicity is at most 3 <= pair_bound(N)) twice: its whole
    # factors on the N + 1 whole-q rows, then its odd factors on the
    # 2N + 1 half-grades, and no binomial pass is left; the convolution
    # route checks the orders it reaches in a few seconds
    for N in range(1, 13):
        for datum in validate_weights(weights):
            E = tilde(_tangent_char(datum))
            powers = witten_powers(THETA2, N)
            pairs, lengths = pair_spy(monkeypatch)
            got = _binomial_product(E, powers, N)
            monkeypatch.undo()
            assert got == reference_product(E, powers, N), (datum, N)
            if N <= 12 // (len(weights) - 2):
                assert got == reference_theta_series(E, THETA2, N), (datum, N)
            mults = Counter(datum.tangent_weights).values()
            for whole, rows in ((True, N + 1), (False, 2 * N + 1)):
                assert sorted(p[4] for p in pairs if p[0] == whole) == sorted(mults)
                assert {p[5] for p in pairs if p[0] == whole} == {rows}
            assert not lengths


def pair_bound(N):
    """The largest multiplicity of a pair that runs by the triple product."""
    return 3 * math.isqrt(2 * N)


def test_triple_product_pairs_of_higher_multiplicity(monkeypatch):
    # tangent weights (1, 1, 4) carry the pair +-1 twice, (1, 1, 1, 2) three
    # times; the pair +-1 seven times passes the bound up to N = 4
    assert [N for N in range(1, 9) if 7 > pair_bound(N)] == [1, 2, 3, 4]
    for E, mult in ((tilde(tangent_character((1, 1, 4))), 2),
                    (tilde(tangent_character((1, 1, 1, 2))), 3),
                    (tilde(LaurentPoly({1: 7, -1: 7, 3: 1, -3: 1}, "x")), 7)):
        for N in range(1, 9):
            pairs, lengths = pair_spy(monkeypatch)
            got = theta_series(E, THETA2, N)
            monkeypatch.undo()
            assert got == reference_theta_series(E, THETA2, N), (E, N)
            assert got == reference_product(E, witten_powers(THETA2, N), N)
            assert (mult in [p[4] for p in pairs]) == (mult <= pair_bound(N))
            if mult > pair_bound(N):
                assert set(lengths) == {2 * N + 1}


@pytest.mark.parametrize("expr, pairs, phase1", [
    # a pair beside an unpaired odd line: one phase on every half-grade
    ("(theta2 (sum (rep 3) (rep 1) (rep -1)))", 1, False),
    # unequal multiplicities: no pair
    ("(theta2 (sum (rep 2) (rep 2) (rep -2)))", 0, False),
    # a negative pair divides its odd factors, a scalar start on whole
    # grades, and one with odd grades, beside phase 1
    ("(theta2 (difference (trivial 4) (sum (rep 1) (rep -1))))", 1, True),
    ("(theta2 (sum (rep 1) (rep -1)))", 1, True),
    ("(theta2 (tilde (sum (rep 2) (rep -2) (rep 4) (rep -4))))", 2, True),
])
def test_theta2_bundle_expressions_and_the_triple_product(monkeypatch, expr, pairs, phase1):
    # each pair runs in both runs; the weighted passes of the whole powers,
    # binomial or paired, see the N + 1 whole-q rows in phase 1
    E = eval_bundle_expr(expr[len("(theta2 "):-1])
    for N in range(1, 9):
        spied, lengths = pair_spy(monkeypatch)
        got = eval_bundle_expr(expr, N)
        monkeypatch.undo()
        assert got == reference_theta_series(E, THETA2, N), (expr, N)
        assert got == reference_product(E, witten_powers(THETA2, N), N)
        assert sorted(p[0] for p in spied) == [False] * pairs + [True] * pairs
        whole_rows = {p[5] for p in spied if p[0]} | set(lengths)
        assert whole_rows == {N + 1 if phase1 else 2 * N + 1}


def test_triple_product_from_a_start(monkeypatch):
    # a start with odd grades takes the one-phase path, a start on whole
    # grades the two-phase one
    rng = random.Random(109)
    E = tilde(_tangent_char(validate_weights((0, 1, 2, 5))[0]))
    ring = LaurentRing(E.var)
    for N in range(1, 9):
        powers = witten_powers(THETA2, N)
        odd = list(rand_start(rng, ring, N, 4).coeffs)
        odd[2 * rng.randint(0, N - 1) + 1] = LaurentPoly({rng.randint(-4, 4): rng.choice([-7, 7])}, ring.var)
        for start, rows in ((QSeries(ring, N, odd), 2 * N + 1),
                            (rand_lattice_start(rng, ring, N, 2, 4), N + 1)):
            pairs, lengths = pair_spy(monkeypatch)
            got = _binomial_product(E, powers, N, start)
            monkeypatch.undo()
            assert got == reference_product(E, powers, N, start), (N, start)
            assert not lengths and sorted(p[0] for p in pairs) == [False] * 3 + [True] * 3
            assert {p[5] for p in pairs if p[0]} == {rows}


def kernel_pairs(monkeypatch, E, powers, N):
    """``{(whole, s, w, divide): mult}`` of the pairs that the kernel's
    ``_pairs`` calls name; with the default start, g is the gcd of the
    weights."""
    spied, _ = pair_spy(monkeypatch)
    _binomial_product(E, powers, N)
    monkeypatch.undo()
    g = math.gcd(*E.coeffs)
    return {(whole, s, w * g, divide): mult for whole, s, w, divide, mult, _ in spied}


def assert_oracle_pairs(monkeypatch, E, powers, N):
    pairs = kernel_pairs(monkeypatch, E, powers, N)
    assert pairs == factor_pairs(line_factors(E, powers), 2 * N), (E, powers, N)
    return pairs


def test_kernel_pairs_are_the_oracle_pairs(monkeypatch):
    # the kernel reads its pairs from the character and its powers; the
    # pairs that run by the triple product are those the flat factor list
    # holds, a path choice that the output bytes cannot show
    found = 0
    for weights in ((0, 2), (0, 1, 2, 5), (0, 1, 2, 3, 4, 6), (0, 1, 2, 3, 4, 6, 7, 9)):
        for datum in validate_weights(weights):
            E = tilde(_tangent_char(datum))
            for N in range(1, 13):
                for variant in (THETA, THETA1, THETA2):
                    found += len(assert_oracle_pairs(monkeypatch, E, witten_powers(variant, N), N))
    assert found > 0
    for expr in ("(sum (rep 3) (rep 1) (rep -1))", "(sum (rep 2) (rep 2) (rep -2))",
                 "(difference (trivial 4) (sum (rep 1) (rep -1)))", "(sum (rep 1) (rep -1))",
                 "(tilde (sum (rep 2) (rep -2) (rep 4) (rep -4)))"):
        E = eval_bundle_expr(expr)
        for N in range(1, 9):
            assert_oracle_pairs(monkeypatch, E, witten_powers(THETA2, N), N)
    # a single odd power pairs only at order 1, where it is every odd h <= 2N
    for E in (LaurentPoly({1: 1, -1: 1}), LaurentPoly({1: -2, -1: -2, 3: 1}),
              tilde(tangent_character((1, 2, 2)))):
        for N in (1, 2, 3):
            for h in range(1, 2 * N + 2, 2):
                for sign in (1, -1):
                    for exterior in (False, True):
                        pairs = assert_oracle_pairs(monkeypatch, E, [(h, sign, exterior)], N)
                        assert not pairs or (N, h) == (1, 1)
    assert kernel_pairs(monkeypatch, LaurentPoly({1: 1, -1: 1}), [(1, -1, True)], 1) == {(False, -1, 1, False): 1}
    assert kernel_pairs(monkeypatch, LaurentPoly({1: -1, -1: -1}), [(1, 1, False)], 1) == {(False, -1, 1, False): 1}
    # a single whole power is every whole grade at order 1: Theta divides
    # by S'(x), and a negative pair multiplies by it
    assert kernel_pairs(monkeypatch, LaurentPoly({1: 1, -1: 1}), [(2, 1, False)], 1) == {(True, -1, 1, True): 1}
    assert kernel_pairs(monkeypatch, LaurentPoly({1: -1, -1: -1}), [(2, 1, False)], 1) == {(True, -1, 1, False): 1}
    # the pair +-1 of multiplicity 7 runs by the triple product from N = 5
    # on; 3 and 6 reach the bound itself at N = 1 and N = 2
    for mult, first in ((3, 1), (6, 2), (7, 5)):
        E = tilde(LaurentPoly({1: mult, -1: mult, 3: 1, -3: 1}, "x"))
        for N in range(1, 9):
            pairs = assert_oracle_pairs(monkeypatch, E, witten_powers(THETA2, N), N)
            assert ((False, -1, 1, False) in pairs) == (mult <= pair_bound(N)) == (N >= first)
    assert (pair_bound(1), pair_bound(2)) == (3, 6)


@st.composite
def self_dual_calls(draw):
    """(E, N, start): a self-dual character with a weight-0 line, weights
    of gcd 1 or 2 and pair multiplicities of both signs, some at or one
    past the pair cap 3 isqrt(2N), and no start or a start whose odd
    grades put the rows on every half-grade (d = 1)."""
    N = draw(st.integers(1, 5))
    g = draw(st.sampled_from([1, 2]))
    cap = pair_bound(N)
    mults = st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from([cap, cap + 1, -cap, -cap - 1]))
    E = {0: draw(st.integers(-6, 6))}
    for w in draw(st.sets(st.integers(1, 4), min_size=1, max_size=3)):
        E[g * w] = E[-g * w] = draw(mults)
    start = None
    if draw(st.booleans()):
        rows = [{g * draw(st.integers(-2, 2)): draw(st.integers(-9, 9))} for _ in range(2 * N + 1)]
        rows[1] = {g: draw(st.integers(1, 9))}
        start = QSeries(LAMBDA_RING, N, [LaurentPoly(row) for row in rows])
    return LaurentPoly(E), N, start


@settings(max_examples=150, deadline=None, derandomize=True)
@given(self_dual_calls(), st.sampled_from([THETA, THETA1, THETA2]))
def test_pair_passes_equal_the_binomial_route(call, variant):
    # P, the positive-weight half of E, has no pair, and neither has E - P,
    # so their product takes the binomial passes alone; E runs each pair of
    # multiplicity at most the cap by the triple product, in every run
    E, N, start = call
    P = LaurentPoly({w: c for w, c in E.coeffs.items() if w > 0})
    with pytest.MonkeyPatch.context() as mp:
        spied, _ = pair_spy(mp)
        got = theta_series(E, variant, N, start)
    runs = 1 if variant == THETA else 2
    assert len(spied) == runs * sum(abs(c) <= pair_bound(N) for c in P.coeffs.values())
    with pytest.MonkeyPatch.context() as mp:
        spied, _ = pair_spy(mp)
        want = theta_series(P, variant, N, start) * theta_series(E - P, variant, N)
    assert not spied
    assert got == want


# -- the scalar pass -----------------------------------------------------------------


def scalars_spy(monkeypatch):
    """The (base, d, M) of every scalar pass the kernel reads, in order."""
    seen = []
    scalars = qseries._scalars
    monkeypatch.setattr(qseries, "_scalars", lambda *key: seen.append(scalars(*key)) or seen[-1])
    return seen


def test_majorant_is_the_factor_by_factor_majorant(monkeypatch):
    # the pass's M, from the lattice and each power's positive and negative
    # lines, is the majorant of the factor-by-factor route on all
    # half-grades, so B is its width
    rng = random.Random(103)
    seen = scalars_spy(monkeypatch)
    for i in range(80):
        trunc = rng.randint(2, 5)
        top = 2 * trunc
        if i % 2:
            powers = rand_lattice_powers(rng, (2, 3)[i % 4 // 2], top, rng.randint(1, 4))
        else:
            powers = rand_powers(rng, top, rng.randint(1, 4))
        # the lines of one sign merge into one (h, divide) per power, and so
        # do repeated powers; some multiplicities pass top // h
        E = LaurentPoly({w: rng.choice([1, -1]) * rng.choice([1, 2, 3, top + rng.choice([1, 3])])
                         for w in rng.sample([-3, -1, 0, 2, 5], rng.randint(1, 5))})
        powers += powers[:rng.randint(0, 2)]
        start = rand_start(rng, LAMBDA_RING, trunc, 3, big=i % 5 == 0) if i % 3 else None
        got, widths = kernel_widths(E, powers, trunc, start)
        _, _, majorant = seen.pop()
        assert majorant == factor_majorant(trunc, line_factors(E, powers), start), (E, powers, start)
        assert widths == [qseries._width(majorant)] and got.packed[1] == widths[0]
    # full Theta2 sets, which run by the triple product, alone and beside
    # seeded even powers: M is still the majorant of their binomial
    # factorisation, read before (q; q)^qq joins the start
    pairs, _ = pair_spy(monkeypatch)
    for i in range(40):
        trunc = rng.randint(1, 5)
        E = tilde(tangent_character(rng.choice(range(1, 6)) for _ in range(rng.randint(1, 4))))
        powers = witten_powers(THETA2, trunc)
        if i % 2:
            powers += rand_lattice_powers(rng, 2, 2 * trunc, rng.randint(1, 4))
        start = rand_start(rng, LAMBDA_RING, trunc, 3, big=i % 5 == 0) if i % 3 else None
        _binomial_product(E, powers, trunc, start)
        _, _, majorant = seen.pop()
        assert majorant == factor_majorant(trunc, line_factors(E, powers), start), (E, powers, start)
    assert len(pairs) > 40 and not seen


def test_fixed_points_share_one_majorant():
    # the four twists of CP^3 differ only in their weights, so they share
    # one scalar pass and its majorant
    qseries._scalars.cache_clear()
    lefschetz_witten((0, 1, 2, 5), 12)
    info = qseries._scalars.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def weight0_start(E, powers, trunc, qq):
    """The product of the weight-0 factors of ``line_factors`` times
    (q; q)^qq, its coefficient of q^(k/2) at index k, by series products
    and inverses over the rationals."""
    def binomial(s, h):
        return QSeries.from_terms(RATIONAL, trunc, {0: 1, Fraction(h, 2): s})

    out = QSeries.one(RATIONAL, trunc)
    for s, w, h, divide, mult in line_factors(E, powers):
        if not w:
            out = out * binomial(-s if divide else s, h) ** (-mult if divide else mult)
    for n in range(1, trunc + 1):
        out = out * binomial(-1, 2 * n) ** qq
    return tuple(out.coeffs)


@pytest.mark.parametrize("variant, d, qq", [(THETA, 2, 3), (THETA2, 1, 0)])
def test_fixed_points_share_one_scalar_start(monkeypatch, variant, d, qq):
    # the four twists of CP^3 share their rank, so they share one scalar
    # start, which the rows start from: their weight-0 product times the
    # (q; q)^3 of dividing by the three pairs' S', which in Theta2 the
    # triple product's 1/(q; q)^3 cancels
    cached = qseries._scalars
    seen = scalars_spy(monkeypatch)
    cached.cache_clear()
    lefschetz_twisted((0, 1, 2, 5), twist=variant, N=12)
    info = cached.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert len(seen) == 4 and all(pass_ is seen[0] for pass_ in seen)
    base, got_d, _ = seen[0]
    assert type(base) is tuple and got_d == d
    E = tilde(_tangent_char(validate_weights((0, 1, 2, 5))[0]))
    assert E.coeffs[0] == -6
    assert base == weight0_start(E, witten_powers(variant, 12), 12, qq)[::d]


def scalar_calls():
    """Seeded kernel calls whose scalar passes share some inputs and differ
    in others: characters with and without a weight-0 line, of one rank
    and different lines, pairs or none; the Theta, Theta1 and Theta2
    power sets, lattice-2 and lattice-3 powers and one fixed set at two
    orders; no start, random starts and starts on the lattice 2."""
    rng = random.Random(107)
    chars = [tilde(tangent_character((1, 2, 5))), tilde(tangent_character((2, 4))),
             LaurentPoly({0: 3, 1: 2, -2: -1}), LaurentPoly({0: -2, 3: 1, -3: 1}),
             LaurentPoly({0: -2, 3: 1, -3: 1, 5: -1}), LaurentPoly({0: -2, 1: 1, 4: 1}),
             LaurentPoly({0: -2, 1: 1}), LaurentPoly({1: 1, -1: 1}), LaurentPoly({0: 4})]
    calls = []
    for trunc in (2, 4):
        top = 2 * trunc
        power_sets = [witten_powers(variant, trunc) for variant in (THETA, THETA1, THETA2)]
        power_sets += [rand_lattice_powers(rng, d, top, 3) for d in (2, 3)]
        power_sets.append([(2, 1, False), (3, -1, True)])
        starts = [None, rand_start(rng, LAMBDA_RING, trunc, 2),
                  rand_lattice_start(rng, LAMBDA_RING, trunc, 2, 3)]
        calls += [(E, powers, trunc, start) for E in chars for powers in power_sets for start in starts]
    return calls


def run_scalar_calls(monkeypatch, calls, order, cold):
    """{i: (packed rows and layout, the scalar pass read)} of ``calls`` in
    ``order``, with the cache cleared before every call when ``cold``."""
    cached = qseries._scalars
    seen = scalars_spy(monkeypatch)
    out = {}
    for i in order:
        if cold:
            cached.cache_clear()
        out[i] = (_binomial_product(*calls[i]).packed, seen[-1])
    monkeypatch.undo()
    return out


def test_warm_scalar_pass_is_the_cold_one(monkeypatch):
    # every call reads from a warm cache, in shuffled order, the rows and
    # the scalar pass that it computes from a cleared one
    calls = scalar_calls()
    order = list(range(len(calls)))
    cold = run_scalar_calls(monkeypatch, calls, order, cold=True)
    random.Random(109).shuffle(order)
    qseries._scalars.cache_clear()
    assert run_scalar_calls(monkeypatch, calls, order, cold=False) == cold
    # and the calls tell: a cache whose key leaves out any one input of
    # the pass gives some call another scalar pass
    scalars = qseries._scalars.__wrapped__
    for left_out in range(scalars.__code__.co_argcount):
        cache = {}

        def keyed_without(*key, left_out=left_out, cache=cache):
            short = key[:left_out] + key[left_out + 1:]
            if short not in cache:
                cache[short] = scalars(*key)
            return cache[short]

        monkeypatch.setattr(qseries, "_scalars", keyed_without)
        try:
            warm = run_scalar_calls(monkeypatch, calls, order, cold=False)
        except ZeroDivisionError:  # a d read from another call cut some h to 0
            monkeypatch.undo()
            continue
        assert any(warm[i][1] != cold[i][1] for i in order), scalars.__code__.co_varnames[left_out]


# -- unpacking ----------------------------------------------------------------------


@pytest.mark.parametrize("B", [8, 16, 24, 32, 64, 72])
@pytest.mark.parametrize("step", [1, 2])
def test_unpack_builds_the_normal_polynomial(B, step):
    # the result without the normalising constructor equals and hashes as
    # the normalised one, stores no zero digit and keeps its variable
    rng = random.Random(B * step)
    top = 1 << (B - 1)
    for _ in range(40):
        n = rng.randint(1, 9)
        lo = rng.randint(-9, 9)
        digits = [rng.choice((0, 0, 1, -1, -top, top - 1, rng.randrange(-top, top)))
                  for _ in range(n)]
        value = sum(c << (B * i) for i, c in enumerate(digits))
        exponents = range(lo, lo + step * n, step)
        got = _unpack(value, B, lo, "mu", step)
        want = LaurentPoly(dict(zip(exponents, digits)), "mu")
        assert got == want and hash(got) == hash(want)
        assert got.var == "mu"
        assert all(type(c) is int and c for c in got.coeffs.values())
        # just past the n-digit range: n + 1 digits, the top one -1 or 1
        ones = sum(1 << (B * i) for i in range(n))
        for outside, past in ((-top * ones - 1, [top - 1] * n + [-1]), ((top - 1) * ones + 1, [-top] * n + [1])):
            got = _unpack(outside, B, lo, "mu", step)
            assert got == LaurentPoly(dict(zip(range(lo, lo + step * (n + 1), step), past)), "mu")
            assert all(type(c) is int and c for c in got.coeffs.values())
    zero = _unpack(0, B, -3, "z", step)
    assert zero == LaurentPoly.zero("z") and zero.var == "z" and not zero.coeffs
