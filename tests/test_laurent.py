import random
from fractions import Fraction

import pytest

from propergenus.core import LaurentPoly
from propergenus.errors import NonIntegral, NonUnitConstantTerm
from propergenus.lambda_ring import THETA, theta_bundle

from oracles import double_exponents, halve_exponents


def rand_poly(rng, var="lam"):
    return LaurentPoly(
        {rng.randint(-5, 5): rng.randint(-4, 4) for _ in range(rng.randint(0, 4))}, var
    )


def test_zero_normalization():
    p = LaurentPoly({2: 0, -1: Fraction(0)})
    assert p.is_zero()
    assert p.coeffs == {}
    assert p == 0


def test_integral_fractions_collapse_to_int():
    p = LaurentPoly({1: Fraction(6, 3)})
    assert p.coeffs[1] == 2
    assert isinstance(p.coeffs[1], int)
    assert p.is_integral()
    assert not LaurentPoly({0: Fraction(1, 2)}).is_integral()
    # exact ints pass through; a Fraction among them is still normalised
    mixed = LaurentPoly({0: 5, 1: Fraction(8, 4), 2: 0, 3: -1, 4: Fraction(0)})
    assert mixed.coeffs == {0: 5, 1: 2, 3: -1}
    assert all(type(c) is int for c in mixed.coeffs.values())


def test_constants_hash_as_their_scalars():
    # a constant polynomial == its scalar, so the two must hash alike
    assert 3 in {LaurentPoly({0: 3})}
    assert LaurentPoly.zero() in {0}
    assert Fraction(1, 2) in {LaurentPoly({0: Fraction(1, 2)})}
    assert LaurentPoly({0: -7}, "mu") in {-7}
    assert len({LaurentPoly({1: 1}), LaurentPoly({1: 1}), LaurentPoly({1: 1}, "mu")}) == 2
    # equality is transitive: a constant equals another by value, whatever its variable
    assert len({LaurentPoly({0: 3}, "lam"), LaurentPoly({0: 3}, "mu"), 3}) == 1


def test_arithmetic():
    p = LaurentPoly({1: 1, -1: 1})
    q = LaurentPoly({1: 1, -1: -1})
    assert p + q == LaurentPoly({1: 2})
    assert p - p == LaurentPoly.zero()
    assert p * q == LaurentPoly({2: 1, -2: -1})
    assert (p * 0).is_zero()
    assert p * 3 == LaurentPoly({1: 3, -1: 3})
    assert (p ** 2) == LaurentPoly({2: 1, 0: 2, -2: 1})


def test_adams_substitution_examples():
    assert LaurentPoly({1: 1, -1: 1}).substitute_power(2) == LaurentPoly({2: 1, -2: 1})
    assert LaurentPoly({0: 3}).substitute_power(7) == LaurentPoly({0: 3})
    adjoint = LaurentPoly({2: 1, -2: 1})
    assert adjoint.substitute_power(3) == LaurentPoly({6: 1, -6: 1})


def test_non_integral_exponents_are_refused():
    # an exponent is refused, not truncated, as a weight is
    for bad, name in ((Fraction(1, 2), "1/2"), (2.7, "2.7"), (2.5, "2.5")):
        with pytest.raises(ValueError, match=f"^exponent {name} is not an integer$"):
            LaurentPoly({1: 3, bad: 1})
        with pytest.raises(ValueError, match=f"^exponent {name} is not an integer$"):
            LaurentPoly({bad: 0})
    with pytest.raises(ValueError, match="^exponent 2.5 is not an integer$"):
        theta_bundle(LaurentPoly({2.5: 1, -2.5: 1}), THETA, 1)
    # integral Fractions and floats are the ints they equal
    p = LaurentPoly({Fraction(4, 2): 3, -1.0: Fraction(1, 2)})
    assert p.coeffs == {2: 3, -1: Fraction(1, 2)}
    assert all(type(e) is int for e in p.coeffs)
    # the Adams substitution takes an integral power only
    for bad in (1.5, Fraction(3, 2)):
        with pytest.raises(ValueError, match=f"^substitution power {bad} is not an integer >= 1$"):
            LaurentPoly({2: 1}).substitute_power(bad)
    assert LaurentPoly({2: 1}).substitute_power(2.0).coeffs == {4: 1}


def test_adams_is_ring_homomorphism():
    rng = random.Random(7)
    for _ in range(50):
        p, q = rand_poly(rng), rand_poly(rng)
        k = rng.randint(1, 4)
        assert (p * q).substitute_power(k) == p.substitute_power(k) * q.substitute_power(k)
        assert (p + q).substitute_power(k) == p.substitute_power(k) + q.substitute_power(k)


def test_unit_inverse():
    m = LaurentPoly({3: Fraction(2)})
    inv = m.inverse_if_unit()
    assert m * inv == LaurentPoly({0: 1})
    with pytest.raises(NonUnitConstantTerm):
        LaurentPoly({0: 1, 1: 1}).inverse_if_unit()


def test_rank_and_evaluation():
    p = LaurentPoly({2: 1, -2: 1, 0: -2})
    assert p.eval_one() == 0
    assert p.evaluate(Fraction(2)) == Fraction(4) + Fraction(1, 4) - 2
    z = p.evaluate(1j)
    assert abs(z - (-4)) < 1e-12


def test_exponent_doubling_halving():
    p = LaurentPoly({1: 2, -3: 1})
    d = double_exponents(p)
    assert d.var == "mu"
    assert d.coeffs == {2: 2, -6: 1}
    assert halve_exponents(d) == p
    with pytest.raises(NonIntegral):
        halve_exponents(LaurentPoly({1: 1}, "mu"))


def test_to_json_bit_exact():
    rng = random.Random(11)
    for _ in range(30):
        p = rand_poly(rng)
        p = p + LaurentPoly({0: Fraction(rng.randint(-9, 9), rng.randint(1, 9))})
        assert {int(e): Fraction(c) for e, c in p.to_json().items()} == p.coeffs
    assert LaurentPoly({-2: Fraction(3, 2)}).to_json() == {"-2": "3/2"}
