import random
from fractions import Fraction

import pytest

from propergenus.core import LaurentPoly, Poly, RationalFunc
from propergenus.errors import NotLaurent


def test_reduce_factor_cancellation():
    f = RationalFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
    assert f.num == Poly([1, 1])
    assert f.den == Poly([1])
    assert f.to_laurent() == LaurentPoly({0: 1, 1: 1}, "mu")


def test_reduce_cleared_laurent_quotient():
    # (mu^4 - mu^-4)/(mu^2 - mu^-2) with denominators cleared:
    # (mu^8 - 1) / (mu^2 (mu^4 - 1))
    f = RationalFunc(Poly([-1] + [0] * 7 + [1]), Poly.monomial(2) * Poly([-1, 0, 0, 0, 1]))
    assert f.to_laurent() == LaurentPoly({2: 1, -2: 1}, "mu")


def test_reduce_normalizes_denominator_monic():
    f = RationalFunc(Poly([1]), Poly([2, 4]))
    assert f.den.leading() == 1
    assert f.num == Poly([Fraction(1, 4)])


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
            raw = num.evaluate(x) / den.evaluate(x)
            assert f.evaluate(x) == raw


def test_two_fixed_point_terms_cancel():
    # weights (0, 2) on CP^1: 1/(mu^2 - mu^-2) - 1/(mu^2 - mu^-2) = 0
    den = Poly([-1, 0, 0, 0, 1])  # mu^4 - 1; the mu^2 shift clears mu^-2
    plus = RationalFunc(Poly.monomial(2), den)
    minus = RationalFunc(-Poly.monomial(2), den)
    total = plus + minus
    assert total.is_zero()
    assert total.to_laurent().is_zero()


def test_to_laurent_monomial_division():
    f = RationalFunc(Poly([0, 1, 0, 1]), Poly.monomial(2))
    assert f.to_laurent() == LaurentPoly({1: 1, -1: 1}, "mu")


def test_to_laurent_rejects_off_origin_pole():
    with pytest.raises(NotLaurent):
        RationalFunc(Poly([1]), Poly([-1, 1])).to_laurent()


def test_cp3_brute_force_grade_zero_vanishes():
    # sum over the 4 fixed points of weights (0,1,2,3), each term
    # sigma_j / prod_s (mu^(w_s) - mu^(-w_s)), assembled independently
    # of the lefschetz module as plain rational-function arithmetic
    weights = [0, 1, 2, 3]
    total = None
    for j, aj in enumerate(sorted(weights)):
        den = Poly([1])
        shift = 0
        for a in weights:
            if a == aj:
                continue
            w = abs(a - aj)
            den = den * Poly([-1] + [0] * (2 * w - 1) + [1])
            shift += w
        term = RationalFunc(Poly.monomial(shift, (-1) ** j), den)
        total = term if total is None else total + term
    assert total.is_zero()
    assert total.to_laurent().is_zero()


def test_embed_laurent_then_extract_is_identity():
    rng = random.Random(4)
    for _ in range(25):
        p = LaurentPoly(
            {rng.randint(-4, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 3))
             for _ in range(rng.randint(0, 4))},
            "mu",
        )
        assert RationalFunc.from_laurent(p).to_laurent() == p
        poly, shift = Poly.from_laurent(p)
        assert shift >= 0 and poly.to_laurent(shift) == p


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RationalFunc(Poly([1]), Poly.zero())
