import ast
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propergenus import lefschetz
from propergenus.core import LaurentPoly, QSeries
from propergenus.core.qseries import _width
from propergenus.errors import DuplicateWeights, NonIntegral, NotLaurent, OddWeightSum
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    theta_bundle,
    theta_series,
)
from propergenus.lefschetz import (
    DIRAC,
    SIGNATURE,
    _certificate_data,
    _factor_values,
    _packed_grade,
    _proven_width,
    _twist_series,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
    validate_weights,
)

from oracles import (
    dense_assemble,
    halve_exponents,
    lefschetz_grade_ratfunc,
    lefschetz_series_strategy,
    poly_value,
    quotient_bounds,
)


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
    with pytest.raises(OddWeightSum) as got:
        validate_weights((0, 1))
    assert str(got.value) == "sum of weights 1 is odd; the action is not spin"
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
    for ws in [(0, 1, 2, 5), (0, 1, 2, 3)]:
        s = lefschetz_twisted(ws, DIRAC, None, N=3)
        assert s.coefficient(0) == LaurentPoly.zero(), ws  # A-hat genus vanishes
        assert s.is_zero(), ws


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
        lefschetz_twisted((0, 2), DIRAC, THETA, 2, signed=False)


def test_p_series_cp1_vanishes():
    p = p_series((0, 2), N=4)
    assert p.coefficient(0) == LaurentPoly.zero()
    assert p.is_zero()


def test_p_series_factorization_identity():
    adjoint = LaurentPoly({2: 1, -2: 1})
    for ws in [(0, 2), (0, 1, 2, 3), (0, 1, 2, 5)]:
        lhs = p_series(ws, N=6)
        rhs = theta_bundle(adjoint, THETA, N=6) * lefschetz_witten(ws, N=6)
        assert lhs == rhs, ws


def test_p_series_multiplies_no_series(monkeypatch):
    # the outer Witten factors are folded into every point's twist, so the
    # literal series is one fixed-point sum and no QSeries product
    def refuse(self, other):
        raise AssertionError("p_series multiplied two series")

    monkeypatch.setattr(QSeries, "__mul__", refuse)
    monkeypatch.setattr(QSeries, "__rmul__", refuse)
    for ws in [(0, 2), (0, 1, 2, 5), (-3, 0, 1, 2, 4, 6)]:
        p_series(ws, N=4)


def _bare_twist(datum, N):
    """Theta(T_j) of the tangent character sum_s (lam^w_s + lam^-w_s)."""
    tangent = sum((LaurentPoly({w: 1, -w: 1}) for w in datum.tangent_weights), LaurentPoly.zero())
    return theta_series(tangent, THETA, N)


def test_p_series_fold_matches_outer_product():
    # the fold against the three literal factors: prod (1 - q^n)^(4l) and
    # Theta(adjoint) as one series, times the dense sum of the bare twists
    # Theta(T_j)
    rng = random.Random("p-series-fold")
    adjoint = LaurentPoly({2: 1, -2: 1})
    for two_l in (2, 4, 6):
        for N in range(1, 6):
            ws = _seeded_weights(rng, two_l, 6)
            data = validate_weights(ws)
            bare = [_bare_twist(d, N) for d in data]
            outer = theta_series(adjoint - LaurentPoly.constant(2 * two_l), THETA, N)
            assert p_series(ws, N) == outer * dense_assemble(data, bare, DIRAC, True), (ws, N)


def test_grade_ratfunc_specializes_at_one():
    # the reduced rational function has no pole at mu = 1, and its value
    # there matches the Laurent coefficient evaluated at lam = 1
    for ws in [(0, 1, 2, 5), (0, 3, 5, 6)]:
        rf = lefschetz_grade_ratfunc(ws, 2, N=3)
        series = lefschetz_witten(ws, N=3)
        value = poly_value(rf.num, 1) / poly_value(rf.den, 1)
        assert value == series.coefficient(2).eval_one()


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
            assert series.coefficient(grade) == halve_exponents(reference), (ws, grade)
        data = validate_weights(ws)
        with pytest.raises(NotLaurent) as expected:
            dense_assemble(data, [_twist_series(d, twist, N) for d in data], operator, False)
        with pytest.raises(NotLaurent) as got:
            lefschetz_twisted(ws, operator, twist, N, signed=False)
        assert str(got.value) == str(expected.value), ws


def _seeded_weights(rng, two_l, span):
    ws = rng.sample(range(-span, span + 1), two_l)
    while sum(ws) % 2 != 0:
        ws = rng.sample(range(-span, span + 1), two_l)
    return ws


def _count_packs(monkeypatch, first=None):
    """Record the width of every _factor_values call: the norms' width B0
    of _certificate_data, then one per pack.  With ``first``, the first
    pack is at that width instead of the one it is given."""
    widths = []
    real_values = lefschetz._factor_values

    def values(pairs, data, operator, B):
        if first and len(widths) == 1:
            B = first
        widths.append(B)
        return real_values(pairs, data, operator, B)

    monkeypatch.setattr(lefschetz, "_factor_values", values)
    return widths


PACKED_CASES = [
    (DIRAC, None), (DIRAC, THETA), (DIRAC, THETA2), (SIGNATURE, THETA), (SIGNATURE, THETA1),
]


@pytest.mark.parametrize("operator,twist", PACKED_CASES)
def test_packed_assembly_matches_dense_oracle(operator, twist, monkeypatch):
    # the packed certificate against Laurent products and dense division
    # on the same point series; signed sums certify at the call's width
    # without widening, and the unsigned sum, the signed assembly of the
    # twists negated at the points with sigma_j = -1, fails with the
    # oracle's message
    widths = _count_packs(monkeypatch)
    rng = random.Random(f"packed-{operator}-{twist}")
    N = 4
    for two_l in (2, 4, 6, 8):
        ws = _seeded_weights(rng, two_l, 6)
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        widths.clear()
        packed = lefschetz._assemble(data, series, operator)
        reference = dense_assemble(data, series, operator, True)
        for h in range(2 * N + 1):
            assert packed.coeffs[h] == reference.coeffs[h], (ws, h)
        assert len(widths) == 2, (ws, widths)  # B0, then one pack
        flipped = [-s if d.sign < 0 else s for d, s in zip(data, series)]
        with pytest.raises(NotLaurent) as expected:
            dense_assemble(data, series, operator, False)
        with pytest.raises(NotLaurent) as got:
            lefschetz._assemble(data, flipped, operator)
        assert str(got.value) == str(expected.value), ws


def test_packed_grade_falls_back_at_narrow_width(monkeypatch):
    # at B = 8 most grades are beyond what the packed check can prove; the
    # helper must say so rather than answer, and the sum still comes out
    # exact from one more pack, at the proven width
    ws, N = (-3, 0, 1, 2, 4, 6), 4
    data = validate_weights(ws)
    series = [_twist_series(d, THETA, N) for d in data]
    reference = dense_assemble(data, series, DIRAC, True)
    cert = _certificate_data(data, series, DIRAC)
    packed = _factor_values(cert[0], data, DIRAC, 8)
    grades = [_packed_grade(grade, packed, cert) for grade in cert[4]]
    assert any(g is None and reference.coeffs[h] for h, g in enumerate(grades))
    for h, g in enumerate(grades):
        assert g is None or g == reference.coeffs[h], h
    widths = _count_packs(monkeypatch, first=8)
    assert lefschetz_twisted(ws, DIRAC, THETA, N) == reference
    # D and the P_j are evaluated once at B0 for their norms, then once
    # per pack
    assert widths == [_width(1 << len(cert[0])), 8, _proven_width(data, DIRAC, cert)], widths


@pytest.mark.parametrize("ws,operator,twist,N,widths", [
    ((0, 1, 2, 5), DIRAC, THETA, 12, (32, 32)),
    ((0, 1, 2, 5), SIGNATURE, THETA1, 10, (32, 64)),
    ((0, 1, 2, 3, 4, 6, 7, 9), DIRAC, THETA, 12, (64, 64)),
    ((0, 1, 2, 3, 4, 6, 7, 9), DIRAC, THETA2, 12, (64, 72)),
    ((0, 1, 2, 3, 4, 6, 7, 9), SIGNATURE, THETA1, 12, (64, 80)),
])
def test_certificate_widths_are_pinned(ws, operator, twist, N, widths, monkeypatch):
    # the call's width B decides every grade in one pack, and the proven
    # width B* that a fallback would pack at stays where it is
    packs = _count_packs(monkeypatch)
    data = validate_weights(ws)
    series = [_twist_series(d, twist, N) for d in data]
    lefschetz._assemble(data, series, operator)
    _, B = packs  # B0 for the norms, then the one pack
    cert = _certificate_data(data, series, operator)
    assert (B, _proven_width(data, operator, cert)) == widths


@pytest.mark.parametrize("operator,twist", PACKED_CASES)
def test_proven_width_decides_every_grade(operator, twist):
    # the dense oracle's M_h bounds every coefficient of a Laurent grade,
    # and the proven width is the width of max_h (M_h |D|_1 + N_h) from
    # the oracle's bounds; the width proven from one grade alone decides
    # it, and at the proven width the packed check decides every grade:
    # signed sums certify, and the sign-flipped twists of the unsigned sum
    # raise the dense oracle's NotLaurent
    rng = random.Random(f"proven-{operator}-{twist}")
    N = 4
    for two_l in (2, 4, 6, 8):
        ws = _seeded_weights(rng, two_l, 6)
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        reference = dense_assemble(data, series, operator, True)
        den_norm, bounds = quotient_bounds(data, series, operator)
        cert = _certificate_data(data, series, operator)
        pairs, _, _, _, grades = cert
        assert cert[2] == den_norm, ws
        B = _proven_width(data, operator, cert)
        assert B == _width(max(M * den_norm + n for M, n in bounds)), ws
        wide = _factor_values(pairs, data, operator, B)
        for h, (grade, (M, n)) in enumerate(zip(grades, bounds)):
            top = max(map(abs, reference.coeffs[h].coeffs.values()), default=0)
            assert top <= M and grade[3] == n, (ws, h)
            alone = _proven_width(data, operator, cert[:4] + ([grade],))
            assert alone == _width(M * den_norm + n), (ws, h)
            own = _factor_values(pairs, data, operator, alone)
            assert _packed_grade(grade, own, cert, proven=True) == reference.coeffs[h], (ws, h)
            assert _packed_grade(grade, wide, cert) == reference.coeffs[h], (ws, h)
        with pytest.raises(NotLaurent) as expected:
            dense_assemble(data, series, operator, False)
        flipped = [-s if d.sign < 0 else s for d, s in zip(data, series)]
        unsigned = _certificate_data(data, flipped, operator)
        assert _proven_width(data, operator, unsigned) == B, ws
        with pytest.raises(NotLaurent) as got:
            for grade in unsigned[4]:
                assert _packed_grade(grade, wide, unsigned, proven=True) is not None
        assert str(got.value) == str(expected.value), ws


def test_packed_grade_refuses_what_it_cannot_prove():
    # one point with pre = 1 over D = (lam - 1)^k: a grade the packed check
    # cannot prove at width B returns None (the caller falls back to the
    # proven width); a grade shown not to be Laurent, or not integral,
    # raises
    def over(k, B):
        return (B, ((1 << B) - 1) ** k, [1]), ([], k, 2 ** k, [(0, 0, 1)], [])

    def grade_of(c):
        return [(c, 0)], min(c.coeffs), max(c.coeffs), sum(map(abs, c.coeffs.values()))

    # (1 - lam^n)^2 / (lam - 1)^2 = (1 + ... + lam^(n-1))^2 has the middle
    # coefficient n: with n = 200 the numerator bound is only 4, and only
    # the quotient check sees that n does not fit a balanced 8-bit digit
    n = 200
    grade = grade_of(LaurentPoly({0: 1, n: -2, 2 * n: 1}))
    assert _packed_grade(grade, *over(2, 8)) is None
    assert _packed_grade(grade, *over(2, 16)) == LaurentPoly(dict.fromkeys(range(n), 1)) ** 2
    # a width claimed proven that does not prove a Laurent grade is a defect
    with pytest.raises(AssertionError, match="reduced to a Laurent polynomial"):
        _packed_grade(grade, *over(2, 8), proven=True)
    # (lam^255 - 1) / (lam - 1)^2 is not Laurent, yet 255^2 divides
    # 256^255 - 1: the remainder vanishes at B = 8 and the quotient fails
    # the check; at B = 16 the remainder is nonzero, and the message names
    # the reduced denominator in mu
    grade = grade_of(LaurentPoly({0: -1, 255: 1}))
    assert _packed_grade(grade, *over(2, 8)) is None
    for packed, proven in ((over(2, 16), False), (over(2, 8), True)):
        with pytest.raises(NotLaurent) as got:
            _packed_grade(grade, *packed, proven)
        assert str(got.value) == "denominator -1*x^0 + 1*x^2 has a non-monomial factor"
    # the same grade times lam^-3: the pole at mu = 0 joins the denominator
    with pytest.raises(NotLaurent) as got:
        _packed_grade(grade_of(LaurentPoly({-3: -1, 252: 1})), *over(2, 16))
    assert str(got.value) == "denominator -1*x^6 + 1*x^8 has a non-monomial factor"
    outcomes = {
        "digit wider than B": (LaurentPoly({0: 300, 1: -300}), over(1, 8), None),
        "nonzero remainder": (LaurentPoly({0: 1, 3: 1}), over(1, 16), NotLaurent),
        "fewer degrees than D": (LaurentPoly({0: 2, 1: 1}), over(2, 16), NotLaurent),
        "Fraction coefficient": (LaurentPoly({0: Fraction(-1, 2), 1: Fraction(1, 2)}),
                                 over(1, 16), NonIntegral),
    }
    for case, (c, packed, outcome) in outcomes.items():
        if outcome is None:
            assert _packed_grade(grade_of(c), *packed) is None, case
            with pytest.raises(AssertionError, match="does not fit"):
                _packed_grade(grade_of(c), *packed, proven=True)
        else:
            with pytest.raises(outcome):
                _packed_grade(grade_of(c), *packed)


def test_oracles_share_no_assembly_code():
    # the dense oracle builds its own prefactors and divisions; of the
    # package's private lefschetz names it may import only the twist
    # series that every route starts from
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "propergenus":
            assert "lefschetz" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert "propergenus.lefschetz" not in {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "propergenus.lefschetz":
            private |= {a.name for a in node.names if a.name.startswith("_")}
    assert private == {"_twist_series"}


@pytest.mark.parametrize("operator,twist", [(DIRAC, THETA), (SIGNATURE, THETA)])
def test_certificate_matches_sympy_cancel(operator, twist):
    # every certified grade against sympy's cancel of the literal sum of
    # local contributions sigma_j c_j(mu^2) / prod_s (mu^w - mu^-w), with
    # c_j the point's twist coefficient in lam, times the spinor
    # character prod_s (mu^w + mu^-w) for the signature operator
    sympy = pytest.importorskip("sympy")
    mu = sympy.Symbol("mu")
    N = 2
    for ws in ((-1, 3), (0, 1, 2, 5)):
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        certified = lefschetz_twisted(ws, operator, twist, N)
        for h in range(2 * N + 1):
            total = 0
            for datum, s in zip(data, series):
                local = datum.sign * sum(c * mu ** (2 * e) for e, c in s.coeffs[h].coeffs.items())
                for w in datum.tangent_weights:
                    local /= mu ** w - mu ** -w
                    if operator == SIGNATURE:
                        local *= mu ** w + mu ** -w
                total += local
            num, den = sympy.fraction(sympy.cancel(total))
            assert sympy.Poly(den, mu).is_monomial, (ws, h, den)
            expected = sum(c * mu ** (2 * e) for e, c in certified.coeffs[h].coeffs.items())
            assert sympy.expand(num / den - expected) == 0, (ws, h)


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
        lefschetz_twisted(ws, DIRAC, THETA, N, signed=False)
    for operator, twist in ((SIGNATURE, THETA1), (DIRAC, THETA2)):
        rigid = lefschetz_twisted(ws, operator, twist, N)
        assert all(c.is_constant() for _, c in rigid.nonzero_terms())
