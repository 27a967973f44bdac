import random
from fractions import Fraction

import pytest

from propergenus.core import LaurentPoly
from propergenus.core.ratfunc import Poly, RationalFunc
from propergenus.errors import NotLaurent

from oracles import poly_from_laurent, poly_monomial, poly_mul, poly_value


def test_reduce_factor_cancellation():
    f = RationalFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num.coeffs == [1, 1]
    assert f.den.coeffs == [1]
    assert f.to_laurent() == LaurentPoly({0: 1, 1: 1}, "mu")


def test_reduce_cleared_laurent_quotient():
    # (mu^4 - mu^-4)/(mu^2 - mu^-2) with denominators cleared:
    # (mu^8 - 1) / (mu^2 (mu^4 - 1))
    f = RationalFunc(Poly([-1] + [0] * 7 + [1]), poly_mul(poly_monomial(2), Poly([-1, 0, 0, 0, 1])))
    assert f.to_laurent() == LaurentPoly({2: 1, -2: 1}, "mu")


def test_reduce_normalizes_denominator_monic():
    f = RationalFunc(Poly([1]), Poly([2, 4]))
    assert f.den.leading() == 1
    assert f.num.coeffs == [Fraction(1, 4)]


def test_reduce_preserves_evaluation_at_random_points():
    rng = random.Random(2)
    for _ in range(20):
        num = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 5))])
        den = Poly([rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1])
        if num.is_zero():
            continue
        f = RationalFunc(num, den)
        for _ in range(3):
            x = Fraction(rng.randint(1, 40), rng.randint(1, 7)) + 41
            value = poly_value(num, x) / poly_value(den, x)
            assert poly_value(f.num, x) / poly_value(f.den, x) == value


def test_to_laurent_monomial_division():
    f = RationalFunc(Poly([0, 1, 0, 1]), poly_monomial(2))
    assert f.to_laurent() == LaurentPoly({1: 1, -1: 1}, "mu")


@pytest.mark.parametrize("den", [[1], [2], [-1, 1], [0, 0, 1], [2, 0, 2], [-1, 0, 0, 1]])
def test_zero_numerator_reduces_to_the_zero_laurent_polynomial(den):
    # gcd(0, D) is D made monic, so the reduced denominator is 1
    f = RationalFunc(Poly.zero(), Poly(den))
    assert f.num.is_zero() and f.den.coeffs == [1]
    assert f.to_laurent() == LaurentPoly.zero("mu")


def test_to_laurent_rejects_off_origin_pole():
    with pytest.raises(NotLaurent):
        RationalFunc(Poly([1]), Poly([-1, 1])).to_laurent()


def test_embed_laurent_then_extract_is_identity():
    rng = random.Random(4)
    for _ in range(25):
        p = LaurentPoly(
            {rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(rng.randint(0, 4))},
            "mu",
        )
        poly, shift = poly_from_laurent(p)
        assert shift >= 0 and poly.to_laurent(shift) == p


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunc(Poly([1]), Poly.zero())
