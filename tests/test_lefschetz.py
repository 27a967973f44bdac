import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propergenus.core import LAMBDA, LaurentPoly
from propergenus.errors import DuplicateWeights, NotLaurent, OddWeightSum
from propergenus.lambda_ring import THETA, THETA1, THETA2, VirtualChar, theta_bundle
from propergenus.lefschetz import (
    DIRAC,
    SIGNATURE,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
    validate_weights,
)

from oracles import lefschetz_grade_ratfunc, lefschetz_series_strategy


def test_validate_two_point_case():
    data = validate_weights((0, 2))
    assert [d.tangent_weights for d in data] == [(2,), (2,)]
    assert [d.sign for d in data] == [1, -1]


def test_validate_four_point_enumeration():
    data = validate_weights((0, 1, 2, 3))
    assert data[0].tangent_weights == (1, 2, 3)
    assert data[0].sign == 1
    assert data[1].tangent_weights == (1, 1, 2)
    assert data[1].sign == -1


def test_validate_sorts_ascending():
    data = validate_weights((3, 0, 2, 1))
    assert [d.weight for d in data] == [0, 1, 2, 3]
    assert [d.sign for d in data] == [1, -1, 1, -1]


def test_validate_rejects_bad_input():
    with pytest.raises(OddWeightSum):
        validate_weights((0, 1))
    with pytest.raises(DuplicateWeights):
        validate_weights((0, 2, 2, 4))
    with pytest.raises(ValueError):
        validate_weights((0, 1, 3))


def test_cp1_witten_series_vanishes():
    s = lefschetz_witten((0, 2), N=6)
    assert s.is_zero()


def test_cp3_grade_zero_vanishes():
    s = lefschetz_witten((0, 1, 2, 3), N=2)
    assert s.coefficient(0) == LaurentPoly.zero()


def test_cp3_grades_integral_and_dual_strategy():
    exact = lefschetz_witten((0, 1, 2, 3), N=6)
    series = lefschetz_series_strategy((0, 1, 2, 3), N=6)
    assert exact == series
    for _, c in exact.nonzero_terms():
        assert c.is_integral()


def test_dual_strategy_on_nonvanishing_case():
    exact = lefschetz_witten((0, 1, 2, 5), N=6)
    series = lefschetz_series_strategy((0, 1, 2, 5), N=6)
    assert exact == series
    assert not exact.is_zero()
    grade2 = exact.coefficient(2)
    # antisymmetric under lam -> 1/lam, hence zero at lam = 1
    assert grade2 == LaurentPoly({6: 1, 4: -1, 2: -1, -2: 1, -4: 1, -6: -1})
    assert grade2.eval_one() == 0


def test_twist_theta_is_the_witten_series():
    a = lefschetz_witten((0, 1, 2, 5), N=4)
    b = lefschetz_twisted((0, 1, 2, 5), DIRAC, THETA, N=4)
    assert a == b


def test_untwisted_dirac_is_grade_zero_only():
    s = lefschetz_twisted((0, 1, 2, 5), DIRAC, None, N=3)
    assert s.coefficient(0) == LaurentPoly.zero()  # A-hat genus vanishes
    assert s.is_zero()


def test_rigidity_signature_theta1():
    s = lefschetz_twisted((0, 1, 2, 3), SIGNATURE, THETA1, N=8)
    for _, c in s.nonzero_terms():
        assert c.is_constant()
    assert s.is_zero()


def test_rigidity_dirac_theta2():
    s = lefschetz_twisted((0, 1, 2, 3), DIRAC, THETA2, N=8)
    assert s.is_zero()


def test_rigidity_generic_vectors():
    for ws in [(1, 3), (-3, -1, 0, 2), (0, 1, 2, 5), (0, 1, 4, 5), (-5, -2, 1, 4)]:
        s1 = lefschetz_twisted(ws, SIGNATURE, THETA1, N=4)
        s2 = lefschetz_twisted(ws, DIRAC, THETA2, N=4)
        assert all(c.is_constant() for _, c in s1.nonzero_terms()), ws
        assert all(c.is_constant() for _, c in s2.nonzero_terms()), ws


def test_unsigned_formula_is_not_laurent():
    with pytest.raises(NotLaurent):
        lefschetz_witten((0, 2), N=2, signed=False)


def test_p_series_cp1_vanishes():
    p = p_series((0, 2), N=4)
    assert p.coefficient(0) == LaurentPoly.zero()
    assert p.is_zero()


def test_p_series_factorization_identity():
    adjoint = VirtualChar.rep(2) + VirtualChar.rep(-2)
    for ws in [(0, 2), (0, 1, 2, 3), (0, 1, 2, 5)]:
        lhs = p_series(ws, N=6)
        rhs = theta_bundle(adjoint, THETA, N=6) * lefschetz_witten(ws, N=6)
        assert lhs == rhs, ws


def test_grade_ratfunc_specializes_at_one():
    # the reduced rational function has no pole at mu = 1, and its value
    # there matches the Laurent coefficient evaluated at lam = 1
    for ws in [(0, 1, 2, 5), (0, 3, 5, 6)]:
        rf = lefschetz_grade_ratfunc(ws, 2, N=3)
        series = lefschetz_witten(ws, N=3)
        assert rf.evaluate(Fraction(1)) == series.coefficient(2).eval_one()


@pytest.mark.parametrize("operator,twist", [
    (DIRAC, THETA), (DIRAC, THETA2), (SIGNATURE, THETA1), (DIRAC, None),
])
def test_certificate_matches_gcd_reference(operator, twist):
    # the division certificate against the gcd-reduced rational function
    # of every grade, over random valid weight vectors
    rng = random.Random(f"certificate-{operator}-{twist}")
    N = 3
    for two_l in (2, 4, 6):
        ws = rng.sample(range(-4, 5), two_l)
        while sum(ws) % 2 != 0:
            ws = rng.sample(range(-4, 5), two_l)
        series = lefschetz_twisted(ws, operator, twist, N)
        for h in range(2 * N + 1):
            grade = Fraction(h, 2)
            reference = lefschetz_grade_ratfunc(ws, grade, operator, twist, N).to_laurent()
            assert series.coefficient(grade) == reference.halve_exponents(LAMBDA), (ws, grade)
        with pytest.raises(NotLaurent):
            lefschetz_twisted(ws, operator, twist, N, signed=False)


def test_translation_invariance():
    base = lefschetz_witten((0, 1, 2, 5), N=4)
    shifted = lefschetz_witten((4, 5, 6, 9), N=4)  # +4 preserves parity
    assert base == shifted
    assert p_series((0, 1, 2, 5), N=4) == p_series((4, 5, 6, 9), N=4)


def test_even_lambda_exponents():
    s = lefschetz_witten((0, 3, 5, 6), N=5)
    assert isinstance(s.ring.var, str) and s.ring.var == "lam"
    for _, c in s.nonzero_terms():
        assert all(isinstance(e, int) for e in c.coeffs)


def test_cp5_case():
    ws = (0, 1, 2, 3, 4, 6)
    exact = lefschetz_witten(ws, N=4)
    assert exact == lefschetz_series_strategy(ws, N=4)
    assert [str(g) for g, _ in exact.nonzero_terms()] == ["3", "4"]
    sig = lefschetz_twisted(ws, SIGNATURE, THETA1, N=3)
    assert all(c.is_constant() for _, c in sig.nonzero_terms())


def test_random_weight_vector_sweep():
    rng = random.Random(41)
    found = 0
    while found < 10:
        ws = rng.sample(range(-6, 7), 4)
        if sum(ws) % 2 != 0:
            continue
        found += 1
        exact = lefschetz_witten(ws, N=5)
        assert exact == lefschetz_series_strategy(ws, N=5), ws
        for _, c in exact.nonzero_terms():
            assert c.is_integral(), ws
        assert exact.coefficient(0) == LaurentPoly.zero(), ws


def test_numeric_fixed_point_oracle():
    # evaluate the raw localisation formula in complex arithmetic, with
    # no Laurent machinery at all, and compare against the exact series
    # at a small |q|; the discrepancy is the dropped O(q^(N+1)) tail
    import cmath

    ws, N = (0, 1, 2, 5), 4
    mu0 = cmath.exp(0.35j)
    lam0 = mu0 * mu0
    q0 = 0.01 * cmath.exp(0.3j)
    total = 0j
    for j, aj in enumerate(sorted(ws)):
        term = 1.0 + 0j
        for a in sorted(ws):
            if a == aj:
                continue
            w = abs(a - aj)
            term /= mu0 ** w - mu0 ** (-w)
            for n in range(1, N + 1):
                term /= (1 - lam0 ** w * q0 ** n) * (1 - lam0 ** (-w) * q0 ** n)
        total += (-1) ** j * term
    for n in range(1, N + 1):
        total *= (1 - q0 ** n) ** 6
    series = lefschetz_witten(ws, N=N)
    summed = 0j
    for g, c in series.nonzero_terms():
        assert g.denominator == 1
        summed += c.evaluate(lam0) * q0 ** int(g)
    assert abs(total - summed) < 1e-8


@st.composite
def weight_vectors(draw):
    """Distinct weights in [-6, 6], 2l in {2, 4}, even sum."""
    two_l = draw(st.sampled_from((2, 4)))
    ws = draw(st.lists(st.integers(-6, 6), min_size=two_l, max_size=two_l, unique=True)
              .filter(lambda ws: sum(ws) % 2 == 0))
    return tuple(ws)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(ws=weight_vectors(), k=st.integers(-6, 6))
def test_witten_series_properties(ws, k):
    N = 2
    exact = lefschetz_witten(ws, N)
    assert exact == lefschetz_series_strategy(ws, N=N)
    assert lefschetz_witten([a + k for a in ws], N) == exact
    assert lefschetz_witten([-a for a in ws], N) == -exact
    with pytest.raises(NotLaurent):
        lefschetz_witten(ws, N, signed=False)
    for operator, twist in ((SIGNATURE, THETA1), (DIRAC, THETA2)):
        rigid = lefschetz_twisted(ws, operator, twist, N)
        assert all(c.is_constant() for _, c in rigid.nonzero_terms())
