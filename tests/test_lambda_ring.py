import random
from fractions import Fraction

import pytest

from propergenus.core import LAMBDA_RING, LaurentPoly, QSeries
from propergenus.errors import GradeOutOfRange, NonIntegral
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    eval_bundle_expr,
    ext_total,
    parse_sexpr,
    sym_total,
    theta_bundle,
    theta_series,
    tilde,
)

from oracles import adams_theta_series, adams_total_power, split_char

ADJOINT = LaurentPoly({2: 1, -2: 1})


def lam(d):
    return LaurentPoly(d)


def test_sym_trivial_line():
    s = sym_total(LaurentPoly.monomial(0), 1, 1, 4)
    assert s == QSeries.from_terms(LAMBDA_RING, 4, {i: 1 for i in range(5)})


def test_sym_weight_two_line():
    s = sym_total(LaurentPoly.monomial(2), 1, 1, 4)
    assert s == QSeries.from_terms(LAMBDA_RING, 4, {i: lam({2 * i: 1}) for i in range(5)})


def test_sym_virtual_difference_is_quotient_of_geometrics():
    # oracle: divide the two geometric series with plain series arithmetic
    E = LaurentPoly.monomial(2) - LaurentPoly.monomial(0)
    got = sym_total(E, 1, 1, 6)
    numer = QSeries.from_terms(LAMBDA_RING, 6, {0: 1, 1: -1})          # 1 - q
    denom = QSeries.from_terms(LAMBDA_RING, 6, {0: 1, 1: lam({2: -1})})  # 1 - lam^2 q
    assert got == numer * denom.inverse()
    assert got.coefficient(1) == lam({2: 1, 0: -1})
    assert got.coefficient(2) == lam({4: 1, 2: -1})


def test_ext_line_at_half_grade():
    s = ext_total(LaurentPoly.monomial(0), Fraction(1, 2), -1, 3)
    assert s == QSeries.from_terms(LAMBDA_RING, 3, {0: 1, Fraction(1, 2): -1})


def test_ext_difference_identity():
    E = ADJOINT
    F = LaurentPoly.constant(2)
    lhs = ext_total(E - F, 1, 1, 6)
    rhs = ext_total(E, 1, 1, 6) * ext_total(F, 1, 1, 6).inverse()
    assert lhs == rhs


def test_ext_two_factor_product():
    s = ext_total(ADJOINT, 1, 1, 3)
    assert s.coefficient(0) == 1
    assert s.coefficient(1) == lam({2: 1, -2: 1})
    assert s.coefficient(2) == 1


def test_theta1_adjoint_coefficients():
    t1 = theta_bundle(ADJOINT, THETA1, N=4)
    assert t1.coefficient(0) == 1
    assert t1.coefficient(Fraction(1, 2)) == 0
    assert t1.coefficient(1) == lam({2: 2, -2: 2, 0: -4})
    assert t1.coefficient(2) == lam({4: 2, 2: -6, 0: 8, -2: -6, -4: 2})


def test_theta2_adjoint_coefficients():
    t2 = theta_bundle(ADJOINT, THETA2, N=4)
    assert t2.coefficient(Fraction(1, 2)) == lam({2: -1, -2: -1, 0: 2})
    assert t2.coefficient(1) == lam({0: 2, 2: -1, -2: -1})


def test_series_coefficient_grade_zero_is_trivial():
    for variant in (THETA, THETA1, THETA2):
        s = theta_bundle(ADJOINT, variant, N=3)
        assert s.coefficient(0) == lam({0: 1})


def test_series_coefficient_theta1_grade_two():
    s = theta_bundle(ADJOINT, THETA1, N=3)
    p = lam({2: 1, -2: 1})
    expected = (p * p - 3 * p + LaurentPoly.constant(2)) * 2
    assert s.coefficient(2) == expected


def test_series_coefficient_beyond_truncation():
    s = theta_bundle(ADJOINT, THETA, N=2)
    with pytest.raises(GradeOutOfRange):
        s.coefficient(3)


def rand_genuine(rng, max_summands=4, max_weight=5):
    char = LaurentPoly.zero()
    for _ in range(rng.randint(1, max_summands)):
        char = char + LaurentPoly.monomial(rng.randint(-max_weight, max_weight), 1)
    return char


def test_sym_ext_inverse_pairs_random():
    rng = random.Random(17)
    for _ in range(40):
        E = rand_genuine(rng)
        n = rng.randint(1, 8)
        grade = rng.choice([1, 2, Fraction(1, 2), Fraction(3, 2)])
        s = sym_total(E, grade, 1, n) * ext_total(E, grade, -1, n)
        assert s == QSeries.one(LAMBDA_RING, n)


def test_sum_multiplicativity_random():
    rng = random.Random(19)
    for _ in range(25):
        E, F = rand_genuine(rng), rand_genuine(rng)
        n = rng.randint(1, 6)
        assert ext_total(E + F, 1, 1, n) == ext_total(E, 1, 1, n) * ext_total(F, 1, 1, n)
        assert sym_total(E + F, 1, 1, n) == sym_total(E, 1, 1, n) * sym_total(F, 1, 1, n)


def test_theta_multiplicative_random():
    rng = random.Random(23)
    for _ in range(15):
        E, F = rand_genuine(rng), rand_genuine(rng)
        n = rng.randint(1, 5)
        assert theta_bundle(E + F, THETA, n) == theta_bundle(E, THETA, n) * theta_bundle(F, THETA, n)


def test_adams_route_matches_product_route():
    rng = random.Random(29)
    for _ in range(20):
        E = rand_genuine(rng)
        n = rng.randint(1, 6)
        assert adams_total_power(E, 1, 1, n, exterior=False) == sym_total(E, 1, 1, n)
        assert adams_total_power(E, 1, 1, n, exterior=True) == ext_total(E, 1, 1, n)


def test_integrality_through_adams_route():
    rng = random.Random(31)
    for _ in range(15):
        E = rand_genuine(rng)
        n = rng.randint(1, 5)
        for variant in (THETA, THETA1, THETA2):
            s = adams_theta_series(tilde(E), variant, n)
            for _, c in s.nonzero_terms():
                assert c.is_integral()
            assert s == theta_bundle(E, variant, n)


def test_rank_sequence_of_reduced_bundle():
    # tangent character of CP^3 at a fixed point of the (0,1,2,3) action
    E = LaurentPoly.zero()
    for w in (1, 2, 3):
        E = E + LaurentPoly.monomial(w) + LaurentPoly.monomial(-w)
    s = theta_bundle(E, THETA, N=5)
    ranks = [s.coefficient(g).eval_one() for g in range(6)]
    assert ranks == [1, 0, 0, 0, 0, 0]


def test_parse_and_eval_bundle_expr():
    tree = parse_sexpr("(theta1 (tilde (sum (rep 2) (rep -2))))")
    assert tree == ["theta1", ["tilde", ["sum", ["rep", "2"], ["rep", "-2"]]]]
    series = eval_bundle_expr("(theta1 (tilde (sum (rep 2) (rep -2))))", N=3)
    assert series == theta_bundle(ADJOINT, THETA1, N=3)

    char = eval_bundle_expr("(difference (rep 2) (trivial 1))", N=3)
    assert char == lam({2: 1, 0: -1})

    series2 = eval_bundle_expr("(sym q^2 (rep 0))", N=4)
    assert series2 == sym_total(LaurentPoly.monomial(0), 2, 1, 4)

    series3 = eval_bundle_expr("(ext -q^1/2 (rep 0))", N=2)
    assert series3 == ext_total(LaurentPoly.monomial(0), Fraction(1, 2), -1, 2)

    # characters lift to constant series inside mixed nodes
    mixed = eval_bundle_expr("(tensor (theta (tilde (rep 2))) (trivial 3))", N=2)
    assert mixed == theta_bundle(LaurentPoly.monomial(2), THETA, N=2).scale(3)


@pytest.mark.parametrize("text, message", [
    (")", "unexpected ')'"),
    ("(rep 1))", "trailing tokens in bundle expression"),
    ("(rep 1) (rep 2)", "trailing tokens in bundle expression"),
    ("(rep 1) (", "trailing tokens in bundle expression"),
    ("a )", "trailing tokens in bundle expression"),
    ("(", "unbalanced bundle expression"),
    ("((rep 1)", "unbalanced bundle expression"),
    ("", "empty bundle expression"),
])
def test_bundle_grammar_messages(text, message):
    with pytest.raises(ValueError) as exc:
        parse_sexpr(text)
    assert str(exc.value) == message


def test_tilde_is_rank_zero():
    assert tilde(ADJOINT).eval_one() == 0
    assert tilde(ADJOINT) == lam({2: 1, -2: 1, 0: -2})


def test_genuine_detection():
    # a genuine character splits with no negative part
    assert split_char(ADJOINT) == ({2: 1, -2: 1}, {})
    assert split_char(tilde(ADJOINT)) == ({2: 1, -2: 1}, {0: 2})
    # the split and the product route refuse a non-integral line alike
    for refuse in (split_char, lambda E: sym_total(E, 1, 1, 2)):
        with pytest.raises(NonIntegral, match=r"^multiplicity 1/2 at weight 0 is not an integer$"):
            refuse(lam({0: Fraction(1, 2)}))
