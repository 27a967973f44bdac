import cmath
import random
from fractions import Fraction

import pytest

from propergenus.core import (
    LAMBDA_RING,
    RATIONAL,
    LaurentPoly,
    LaurentRing,
    QSeries,
    complex_eval,
)
from propergenus.errors import (
    GradeOutOfRange,
    NonUnitConstantTerm,
    NotUpperHalfPlane,
    RingMismatch,
)
from propergenus.theta_modforms import modform_qexp

from oracles import complex_eval_tail, fraction_product


def geom(ring, trunc, step, coeff_fn):
    s = QSeries(ring, trunc)
    h = 0
    i = 0
    while h <= 2 * trunc:
        s.coeffs[h] = ring.coerce(coeff_fn(i))
        i += 1
        h = i * 2 * step
    return s


def test_mul_difference_of_squares():
    a = QSeries.from_terms(RATIONAL, 4, {0: 1, 1: 1})
    b = QSeries.from_terms(RATIONAL, 4, {0: 1, 1: -1})
    assert a * b == QSeries.from_terms(RATIONAL, 4, {0: 1, 2: -1})


def test_mul_geometric_telescope():
    a = QSeries.from_terms(RATIONAL, 4, {0: 1, 1: -1})
    b = QSeries.from_terms(RATIONAL, 4, {i: 1 for i in range(5)})
    assert a * b == QSeries.one(RATIONAL, 4)


def test_mul_rank_zero_theta_factor():
    # S_q(E~) * L_(-q)(E~) for the zero bundle is the constant series 1
    one = QSeries.one(LAMBDA_RING, 5)
    assert one * one == one


def test_mul_truncates_to_min_order():
    a = QSeries.one(RATIONAL, 3)
    b = QSeries.one(RATIONAL, 7)
    assert (a * b).trunc == 3


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        QSeries.one(RATIONAL, 3) * QSeries.one(LAMBDA_RING, 3)


def test_inverse_geometric():
    b = QSeries.from_terms(RATIONAL, 5, {0: 1, 1: -1})
    assert b.inverse() == QSeries.from_terms(RATIONAL, 5, {i: 1 for i in range(6)})


def test_inverse_monomial_geometric():
    lam2 = LaurentPoly({2: 1})
    s = QSeries.from_terms(LAMBDA_RING, 4, {0: 1, 1: -lam2})
    inv = s.inverse()
    expected = geom(LAMBDA_RING, 4, 1, lambda i: LaurentPoly({2 * i: 1}))
    assert inv == expected


def test_inverse_of_ext_total_is_sym_total():
    # both sides expanded independently by their defining products, N = 6
    lam2 = LaurentPoly({2: 1})
    ext_minus_q = QSeries.from_terms(LAMBDA_RING, 6, {0: 1, 1: -lam2})  # L_(-q)(C[2])
    sym_q = geom(LAMBDA_RING, 6, 1, lambda i: LaurentPoly({2 * i: 1}))  # S_q(C[2])
    assert ext_minus_q.inverse() == sym_q
    assert ext_minus_q * sym_q == QSeries.one(LAMBDA_RING, 6)


def test_inverse_requires_unit():
    with pytest.raises(NonUnitConstantTerm):
        QSeries.from_terms(RATIONAL, 3, {1: 1}).inverse()
    with pytest.raises(NonUnitConstantTerm):
        QSeries.from_terms(LAMBDA_RING, 3, {0: LaurentPoly({0: 1, 2: 1})}).inverse()


def rand_series(rng, ring, trunc):
    s = QSeries(ring, trunc)
    for h in range(2 * trunc + 1):
        if rng.random() < 0.4:
            s.coeffs[h] = ring.coerce(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return s


def test_ring_axioms_random():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 12)
        a, b, c = (rand_series(rng, RATIONAL, n) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a


def test_inverse_two_sided_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 8)
        a = rand_series(rng, RATIONAL, n)
        a.coeffs[0] = Fraction(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))
        inv = a.inverse()
        one = QSeries.one(RATIONAL, n)
        assert a * inv == one
        assert inv * a == one


def test_grade_out_of_range():
    s = QSeries.one(RATIONAL, 2)
    assert s.coefficient(Fraction(3, 2)) == 0
    with pytest.raises(GradeOutOfRange):
        s.coefficient(Fraction(5, 2))


def test_exp_matches_geometric():
    # exp(sum_k q^k / k) = 1/(1-q)
    n = 8
    arg = QSeries.from_terms(RATIONAL, n, {k: Fraction(1, k) for k in range(1, n + 1)})
    assert arg.exp() == QSeries.from_terms(RATIONAL, n, {i: 1 for i in range(n + 1)})


def test_pow_multiplies_by_binary_powering(monkeypatch):
    # n >= 1 costs bit_length - 1 squarings and popcount - 1 products,
    # and nothing multiplies the unit series
    base = QSeries.from_terms(RATIONAL, 6, {0: 2, Fraction(1, 2): -1, 3: 5})
    products = []
    mul = QSeries.__mul__

    def counting(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return mul(self, other)

    powers = [QSeries.one(RATIONAL, 6)]
    for _ in range(9):
        powers.append(powers[-1] * base)
    monkeypatch.setattr(QSeries, "__mul__", counting)
    for n, expected in enumerate(powers):
        products.clear()
        assert base ** n == expected, n
        assert len(products) == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n


def _random_rational_series(rng, trunc, kind):
    """A rational series of one kind: "int", "mixed" (ints and Fractions),
    "zero", or "negative" (every nonzero numerator < 0)."""
    coeffs = []
    for _ in range(2 * trunc + 1):
        if kind == "zero" or rng.random() < 0.3:
            coeffs.append(0)
        elif kind == "int":
            coeffs.append(rng.randint(-50, 50))
        elif kind == "negative":
            coeffs.append(Fraction(-rng.randint(1, 10 ** 6), rng.choice([1, 2, 3, 12, 720])))
        else:
            coeffs.append(rng.choice([rng.randint(-9, 9),
                                      Fraction(rng.randint(-99, 99), rng.randint(1, 40))]))
    return QSeries(RATIONAL, trunc, coeffs)


def test_rational_product_matches_fraction_oracle():
    # the integer-numerator product against one Fraction multiply-add per
    # pair of grades, at equal and unequal truncations; an integral
    # coefficient must come back as an int, whatever its factors were
    rng = random.Random(1995)
    kinds = ("int", "mixed", "zero", "negative")
    for _ in range(40):
        for ka in kinds:
            for kb in kinds:
                a = _random_rational_series(rng, rng.randint(1, 8), ka)
                b = _random_rational_series(rng, rng.randint(1, 8), kb)
                got = a * b
                assert got == fraction_product(a, b), (ka, kb)
                assert got.trunc == min(a.trunc, b.trunc)
                assert all(type(c) is int if Fraction(c).denominator == 1
                           else type(c) is Fraction for c in got.coeffs), (ka, kb)


def test_complex_eval_constant_and_q():
    one = QSeries.one(RATIONAL, 4)
    v, _ = complex_eval(one, 0.3 + 0.9j)
    assert abs(v - 1) < 1e-15
    q = QSeries.from_terms(RATIONAL, 4, {1: 1})
    v, _ = complex_eval(q, 1j)
    assert abs(v - cmath.exp(-2 * cmath.pi)) < 1e-12
    assert abs(v - 0.00186744) < 1e-8


def test_complex_eval_scale_sums_absolute_terms():
    # 1 - q^(1/2) at tau = i: the value cancels, the scale does not
    s = QSeries.from_terms(RATIONAL, 4, {0: 1, Fraction(1, 2): -1})
    v, scale = complex_eval(s, 1j)
    assert abs(v - (1 - cmath.exp(-cmath.pi))) < 1e-15
    assert abs(scale - (1 + cmath.exp(-cmath.pi))) < 1e-15


def test_complex_eval_requires_upper_half_plane():
    with pytest.raises(NotUpperHalfPlane):
        complex_eval(QSeries.one(RATIONAL, 2), 0.5 - 0.1j)


def test_complex_eval_delta1_self_convergence():
    a = complex_eval(modform_qexp("delta1", 40).series, 1j)[0]
    b = complex_eval(modform_qexp("delta1", 80).series, 1j)[0]
    assert abs(a - b) < 1e-12


def test_complex_eval_linear_and_multiplicative_within_tails():
    tau = 0.1 + 1.0j
    a = modform_qexp("delta1", 30).series
    b = modform_qexp("eps1", 30).series
    va, vb = complex_eval(a, tau)[0], complex_eval(b, tau)[0]
    ta, tb = complex_eval_tail(a, tau), complex_eval_tail(b, tau)
    vsum, _ = complex_eval(a + b, tau)
    assert abs(vsum - (va + vb)) < 1e-14
    vab, tab = complex_eval(a * b, tau)[0], complex_eval_tail(a * b, tau)
    bound = tab + ta * (abs(vb) + tb) + tb * abs(va) + 1e-12
    assert abs(vab - va * vb) <= bound


def test_to_json_dense_and_bit_exact():
    rng = random.Random(9)
    s = rand_series(rng, RATIONAL, 5)
    doc = s.to_json()
    assert doc["truncation"] == 5
    assert len(doc["terms"]) == 11
    assert doc["terms"][1]["grade"] == "1/2"
    assert [Fraction(t["coeff"]) for t in doc["terms"]] == s.coeffs

    t = QSeries.from_terms(LAMBDA_RING, 3, {Fraction(3, 2): LaurentPoly({-1: Fraction(1, 3)})})
    assert t.to_json()["terms"][3] == {"grade": "3/2", "coeff": {"-1": "1/3"}}


def test_laurent_ring_equality_by_variable():
    assert LaurentRing("lam") == LaurentRing("lam")
    assert LaurentRing("lam") != LaurentRing("mu")


def test_constructor_coerces_cuts_and_pads():
    # every unpacked series is built by one constructor: absent coefficients
    # are zeros, a short list is padded, a long one cut to 2N + 1 entries,
    # and each entry is coerced into the ring
    for absent in (QSeries(LAMBDA_RING, 2), QSeries(LAMBDA_RING, 2, None)):
        assert [(type(c), c.var, c.is_zero()) for c in absent.coeffs] == [(LaurentPoly, "lam", True)] * 5
    assert QSeries(RATIONAL, 2).coeffs == [0] * 5
    assert QSeries(RATIONAL, 2, [1, 2]).coeffs == [1, 2, 0, 0, 0]
    assert QSeries(RATIONAL, 1, range(1, 9)).coeffs == [1, 2, 3]
    lam = QSeries(LAMBDA_RING, 1, [3])
    assert lam.coeffs[0] == LaurentPoly.constant(3) and type(lam.coeffs[0]) is LaurentPoly
    assert lam.coeffs[0].var == LAMBDA_RING.var
    rat = QSeries(RATIONAL, 1, [Fraction(4, 2), Fraction(1, 2)])
    assert rat.coeffs == [2, Fraction(1, 2), 0] and type(rat.coeffs[0]) is int
    with pytest.raises(ValueError, match="^truncation order must be a positive integer$"):
        QSeries(RATIONAL, 0)
    for ring, unit in ((RATIONAL, 1), (LAMBDA_RING, LaurentPoly.constant(1))):
        one = QSeries.one(ring, 2)
        assert one.coeffs == [unit] + [ring.zero()] * 4
        assert one == QSeries(ring, 2, [1]) and one.ring == ring
