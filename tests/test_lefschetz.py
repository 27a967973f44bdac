import ast
import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from propergenus import lefschetz
from propergenus.cli import main
from propergenus.core import LAMBDA_RING, LaurentPoly, QSeries, qseries
from propergenus.core.qseries import PackedSeries, _binomial_product, _width
from propergenus.core.ratfunc import Poly
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
    _exact_grade,
    _packed_grade,
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
    packed_grade_ratfunc,
    poly_mul,
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
    # a non-integral weight is refused, not truncated to its integer part
    for bad, name in ((2.7, "2.7"), (Fraction(3, 2), "3/2")):
        with pytest.raises(ValueError, match=f"^weight {name} is not an integer$"):
            validate_weights((0, 1, bad, 5))
    # integral floats and Fractions are the integers they equal
    assert validate_weights((0, 1.0, Fraction(4, 2), 5)) == validate_weights((0, 1, 2, 5))


def test_unknown_operator_is_refused_before_any_twist(monkeypatch):
    # a weight error keeps its precedence, and no twist is built for a
    # call that the operator alone refuses
    def no_twist(*args):
        raise AssertionError("a twist was built")

    monkeypatch.setattr(lefschetz, "theta_bundle", no_twist)
    with pytest.raises(ValueError, match="^unknown operator 'spin'$"):
        lefschetz_twisted((0, 1, 2, 5), "spin", THETA, 20)
    with pytest.raises(DuplicateWeights):
        lefschetz_twisted((0, 2, 2, 4), "spin")
    with pytest.raises(ValueError, match="^need an even number"):
        lefschetz_twisted((0, 1, 3), "spin")


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
    pack is at that width instead of the one it is given.  Every grade
    must read the kernel's twists as they are, each row at the pack's
    width."""
    widths = []
    real_values = lefschetz._factor_values
    real_grade = lefschetz._packed_grade
    real_row = PackedSeries.row

    def values(pairs, data, operator, B):
        if first and len(widths) == 1:
            B = first
        widths.append(B)
        return real_values(pairs, data, operator, B)

    def grade(grade, twists, packed, den_norm):
        assert all(isinstance(t, PackedSeries) for t in twists)
        return real_grade(grade, twists, packed, den_norm)

    def row(self, k, lo, B):
        assert B == widths[-1], (B, widths)
        return real_row(self, k, lo, B)

    monkeypatch.setattr(lefschetz, "_factor_values", values)
    monkeypatch.setattr(lefschetz, "_packed_grade", grade)
    monkeypatch.setattr(PackedSeries, "row", row)
    return widths


def _count_relays(monkeypatch):
    """Record the row that every _relay call re-lays."""
    relaid = []
    real_relay = qseries._relay

    def relay(value, B, step, width):
        relaid.append(value)
        return real_relay(value, B, step, width)

    monkeypatch.setattr(qseries, "_relay", relay)
    return relaid


def _packed(series):
    """``series`` as the kernel's packed rows: its empty product started
    from ``series``."""
    return _binomial_product(LaurentPoly.zero(), [], series.trunc, series)


def _flipped(data, series):
    """The twists of the unsigned sum under the signed assembly: negated,
    and packed again, at the points with sigma_j = -1."""
    return [_packed(-s) if d.sign < 0 else s for d, s in zip(data, series)]


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
        flipped = _flipped(data, series)
        with pytest.raises(NotLaurent) as expected:
            dense_assemble(data, series, operator, False)
        with pytest.raises(NotLaurent) as got:
            lefschetz._assemble(data, flipped, operator)
        assert str(got.value) == str(expected.value), ws


def test_packed_grade_falls_back_at_narrow_width(monkeypatch):
    # at the narrowest width that holds every N_h and |D|_1, the packed
    # check leaves one grade undecided; exact division of P by D decides
    # it, and the sum still comes out exact from one pack.  The kernel's
    # rows are 32 bits wide, and each grade re-lays the rows it reads at
    # B = 16, so the narrow width runs through the rows as the call's
    # width does.
    ws, N = (0, 1, 2, 5), 12
    data = validate_weights(ws)
    series = [_twist_series(d, THETA, N) for d in data]
    reference = dense_assemble(data, series, DIRAC, True)
    cert = _certificate_data(data, series, DIRAC)
    B = _width(max(max(grade[2] for grade in cert[2]), cert[1]))
    assert B == 16
    assert {s.packed[1] for s in series} == {32}
    divisions = []
    real_divmod = Poly.__divmod__

    def counted(self, other):
        divisions.append(self)
        return real_divmod(self, other)

    monkeypatch.setattr(Poly, "__divmod__", counted)
    widths = _count_packs(monkeypatch, first=B)
    divided, grades = [], []
    counting_grade = lefschetz._packed_grade

    def grade(grade, twists, packed, den_norm):
        assert packed[0] == B
        calls = len(divisions)
        got = counting_grade(grade, twists, packed, den_norm)
        if len(divisions) > calls:
            divided.append(len(grades))
        grades.append(got)
        return got

    monkeypatch.setattr(lefschetz, "_packed_grade", grade)
    assert lefschetz_twisted(ws, DIRAC, THETA, N) == reference
    assert grades == reference.coeffs
    assert len(divided) == 1 and reference.coeffs[divided[0]], divided
    # D and the P_j are evaluated once at B0 for their norms, then once
    # for the one pack
    assert widths == [_width(1 << len(cert[0])), B], widths


# (weights, operator, twist, N, the widths of the call's packs after B0)
PINNED_WIDTHS = [
    ((0, 1, 2, 5), DIRAC, THETA, 12, (32,)),
    ((0, 1, 2, 5), SIGNATURE, THETA1, 10, (32,)),
    ((0, 1, 2, 3, 4, 6, 7, 9), DIRAC, THETA, 12, (64,)),
    ((0, 1, 2, 3, 4, 6, 7, 9), DIRAC, THETA2, 12, (64,)),
    ((0, 1, 2, 3, 4, 6, 7, 9), SIGNATURE, THETA1, 12, (64,)),
]


@pytest.mark.parametrize("ws,operator,twist,N,widths", PINNED_WIDTHS)
def test_certificate_widths_are_pinned(ws, operator, twist, N, widths, monkeypatch):
    # the call's width B decides every grade in one pack: the widths after
    # B0, which the norms are read at, are B alone
    packs = _count_packs(monkeypatch)
    data = validate_weights(ws)
    series = [_twist_series(d, twist, N) for d in data]
    lefschetz._assemble(data, series, operator)
    assert tuple(packs[1:]) == widths


@pytest.mark.parametrize("operator,twist", PACKED_CASES)
def test_proven_width_decides_every_grade(operator, twist, monkeypatch):
    # the dense oracle's |D|_1 and N_h are the certificate's, the call
    # packs at the width proven from them, and at that width every grade
    # of the signed sum is the oracle's while the sign-flipped twists of
    # the unsigned sum raise the oracle's NotLaurent
    packs = _count_packs(monkeypatch)
    rng = random.Random(f"proven-{operator}-{twist}")
    N = 4
    for two_l in (2, 4, 6, 8):
        ws = _seeded_weights(rng, two_l, 6)
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        reference = dense_assemble(data, series, operator, True)
        den_norm, bounds = quotient_bounds(data, series, operator)
        bounds = [grade[1] for grade in bounds]
        cert = _certificate_data(data, series, operator)
        assert cert[1] == den_norm and [grade[2] for grade in cert[2]] == bounds, ws
        packs.clear()
        assert lefschetz._assemble(data, series, operator) == reference, ws
        assert packs[1:] == [_width(max(bounds) * (den_norm + 1))], ws
        with pytest.raises(NotLaurent) as expected:
            dense_assemble(data, series, operator, False)
        flipped = _flipped(data, series)
        with pytest.raises(NotLaurent) as got:
            lefschetz._assemble(data, flipped, operator)
        assert str(got.value) == str(expected.value), ws


def _assert_certificate_reads_like_oracle(data, series, operator):
    """Every grade's (lo, N_h) and |D|_1, read from the twists' rows,
    equal the dense oracle's; the sum equals the dense assembly; and the
    sign-flipped twists of the unsigned sum raise the oracle's NotLaurent."""
    den_norm, bounds = quotient_bounds(data, series, operator)
    cert = _certificate_data(data, series, operator)
    assert cert[1] == den_norm
    assert [grade[1:] for grade in cert[2]] == bounds
    assert lefschetz._assemble(data, series, operator) == dense_assemble(data, series, operator, True)
    flipped = _flipped(data, series)
    with pytest.raises(NotLaurent) as expected:
        dense_assemble(data, series, operator, False)
    with pytest.raises(NotLaurent) as got:
        lefschetz._assemble(data, flipped, operator)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("operator", [DIRAC, SIGNATURE])
@pytest.mark.parametrize("twist", [None, THETA, THETA1, THETA2])
def test_certificate_reads_rows_like_the_oracle(operator, twist):
    # the kernel's rows (the twist-less 1 is its empty product, and the
    # negated twists are packed through its start) give the certificate
    # the dense oracle's spans and bounds
    rng = random.Random(f"rows-{operator}-{twist}")
    N = 4
    for two_l in (2, 4, 6, 8):
        ws = _seeded_weights(rng, two_l, 6)
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        assert all(isinstance(s, PackedSeries) for s in series)
        _assert_certificate_reads_like_oracle(data, series, operator)


# (weights, operator, twist, N) whose twists the certificate re-lays, with
# the kernel's digit width and step and the certificate's width
RELAID_CASES = {
    "kernel64-cert32": (((0, 1, 2, 5), DIRAC, THETA2, 20), (64, 1), 32),
    "kernel32-cert64": (((0, 1, 2, 3, 4, 6), DIRAC, THETA, 12), (32, 1), 64),
    "kernel72-cert64": (((0, 1, 2, 3, 4, 6, 7, 9), DIRAC, THETA2, 20), (72, 1), 64),
    "step2": (((0, 2, 4, 6), SIGNATURE, THETA1, 10), (32, 2), 32),
}


@pytest.mark.parametrize("case", list(RELAID_CASES))
def test_relaid_twists_certify_like_the_oracle(case, monkeypatch):
    (ws, operator, twist, N), layout, B = RELAID_CASES[case]
    data = validate_weights(ws)
    series = [_twist_series(d, twist, N) for d in data]
    assert {s.packed[1:3] for s in series} == {layout}
    _assert_certificate_reads_like_oracle(data, series, operator)
    # every grade reads the kernel's rows at the call's width B, and each
    # nonzero row of each twist is re-laid once, by the one grade it is on
    packs = _count_packs(monkeypatch)
    relaid = _count_relays(monkeypatch)
    lefschetz._assemble(data, series, operator)
    assert packs[1:] == [B]
    assert sorted(relaid) == sorted(row for s in series for row in s.packed[0] if row)


def test_benchmark_call_re_lays_no_row(monkeypatch):
    # at witten-cert's size every kernel row is at the certificate's width
    # and step 1: the grades read rows, and none is re-laid
    relaid = _count_relays(monkeypatch)
    reads = []
    real_row = PackedSeries.row

    def row(self, k, lo, B):
        reads.append(k)
        return real_row(self, k, lo, B)

    monkeypatch.setattr(PackedSeries, "row", row)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["witten-genus", "--weights", "0,1,2,5", "--order", "12"]) == 0
    assert reads and relaid == []


def test_packed_grade_refuses_what_it_cannot_prove():
    # one point with pre = 1 over D = (lam - 1)^k: a grade the packed check
    # cannot prove at width B is divided exactly; a grade shown not to be
    # Laurent, or not integral, raises, and so does a width that does not
    # hold N_h
    def over(c, k, B):
        """The arguments of _packed_grade for the grade c / (lam - 1)^k at
        width B: c packed as a twist, whose row the grade re-lays at B."""
        twist = _packed(QSeries(LAMBDA_RING, 1, [c]))
        grade = [(0, 0, 0)], min(c.coeffs), sum(map(abs, c.coeffs.values()))
        packed = B, ((1 << B) - 1) ** k, [1]
        return grade, [twist], packed, 2 ** k

    # (1 - lam^n)^2 / (lam - 1)^2 = (1 + ... + lam^(n-1))^2 has the middle
    # coefficient n: with n = 200 the numerator bound is only 4, and only
    # the quotient check sees that n does not fit a balanced 8-bit digit;
    # exact division gives the square at 8 bits as at 16
    n = 200
    c = LaurentPoly({0: 1, n: -2, 2 * n: 1})
    square = LaurentPoly(dict.fromkeys(range(n), 1)) ** 2
    for B in (8, 16):
        assert _packed_grade(*over(c, 2, B)) == square, B
    # (lam^255 - 1) / (lam - 1)^2 is not Laurent, yet 255^2 divides
    # 256^255 - 1: the remainder vanishes at B = 8 and the quotient fails
    # the check; at B = 16 the remainder is nonzero, and the message names
    # the reduced denominator in mu
    c = LaurentPoly({0: -1, 255: 1})
    for B in (8, 16):
        with pytest.raises(NotLaurent) as got:
            _packed_grade(*over(c, 2, B))
        assert str(got.value) == "denominator -1*x^0 + 1*x^2 has a non-monomial factor", B
    # the same grade times lam^-3: the pole at mu = 0 joins the denominator
    with pytest.raises(NotLaurent) as got:
        _packed_grade(*over(LaurentPoly({-3: -1, 252: 1}), 2, 16))
    assert str(got.value) == "denominator -1*x^6 + 1*x^8 has a non-monomial factor"
    # N_h = 600 does not fit a balanced 8-bit digit: the call's width
    # always holds N_h, so a width that does not is a defect
    with pytest.raises(AssertionError, match="does not fit"):
        _packed_grade(*over(LaurentPoly({0: 300, 1: -300}), 1, 8))
    outcomes = {
        "nonzero remainder": (LaurentPoly({0: 1, 3: 1}), 1, NotLaurent),
        "fewer degrees than D": (LaurentPoly({0: 2, 1: 1}), 2, NotLaurent),
        # a twist with a Fraction coefficient has no packed rows
        "Fraction coefficient": (LaurentPoly({0: Fraction(-1, 2), 1: Fraction(1, 2)}),
                                 1, NonIntegral),
    }
    for case, (c, k, outcome) in outcomes.items():
        with pytest.raises(outcome):
            _packed_grade(*over(c, k, 16))


@pytest.mark.parametrize("B", [72, 80])
def test_exact_grade_matches_the_mu_reference(B):
    # the exact route on digits wider than 64 bits, some past 64 bits and
    # read by byte slices, the rest re-laid onto 64 bits, with lo < 0 and
    # lo >= 0: lam^lo P / D is lam^lo Q when P = Q D, and any other P
    # raises the NotLaurent of the reduced rational function in mu that
    # the reference builds from P and D unpacked onto even mu exponents
    rng = random.Random(f"exact-{B}")
    seen = set()
    for _ in range(60):
        den = Poly([1])
        for w in rng.sample(range(1, 5), rng.randint(1, 3)):
            den = poly_mul(den, Poly([-1] + [0] * (w - 1) + [1]))
        size = 1 << rng.choice((8, 40, 66))
        quo = Poly([rng.randrange(-size, size) for _ in range(rng.randint(0, 4))] + [rng.choice((-1, 1)) * size])
        divides = rng.random() < 0.5
        num = poly_mul(quo, den)
        if not divides:
            rem = [rng.randrange(-size, size) for _ in range(den.degree())]
            rem[rng.randrange(den.degree())] = size
            num = Poly([a + b for a, b in zip(num.coeffs, rem + [0] * len(num.coeffs))])
            if rng.random() < 0.25:  # fewer degrees than D
                num = Poly(rem)
        lo = rng.randint(-6, 4)
        args = sum(c << B * i for i, c in enumerate(num.coeffs)), lo
        packed = B, sum(c << B * i for i, c in enumerate(den.coeffs)), []
        assert max(map(abs, num.coeffs)) < 1 << (B - 1)
        seen.add((divides, lo < 0, max(map(abs, num.coeffs)) >= 1 << 63))
        if divides:
            want = LaurentPoly({lo + i: c for i, c in enumerate(quo.coeffs) if c})
            assert _exact_grade(*args, packed) == want
            continue
        with pytest.raises(NotLaurent) as expected:
            packed_grade_ratfunc(*args, *packed[:2]).to_laurent()
        with pytest.raises(NotLaurent) as got:
            _exact_grade(*args, packed)
        assert str(got.value) == str(expected.value), (num.coeffs, lo)
    assert len(seen) == 8, seen


# calls whose stdout digests perfbench/golden.json records, with their exit codes
HOST_CALLS = [
    (("lefschetz", "--weights", "0,2", "--order", "4", "--unsigned"), 2),
    (("witten-genus", "--weights", "0,1,2,5", "--order", "12"), 0),
    (("elliptic-genera", "--weights", "0,1,2,5", "--order", "10"), 0),
    (("lefschetz", "--weights", "0,1,2,3,4,5,6,9", "--operator", "dirac",
      "--twist", "theta", "--order", "6"), 0),
]


def _host_results():
    """The kernel's digit layouts and the certificate's width of every
    RELAID_CASES call, the widths of every PINNED_WIDTHS call, and the
    exit code and stdout digest of every HOST_CALLS call, as JSON."""
    def packs_of(ws, operator, twist, N):
        data = validate_weights(ws)
        series = [_twist_series(d, twist, N) for d in data]
        packs.clear()
        lefschetz._assemble(data, series, operator)
        return sorted({s.packed[1:3] for s in series}), packs[1:]

    with pytest.MonkeyPatch.context() as mp:
        packs = _count_packs(mp)
        relaid = {case: packs_of(*call) for case, (call, _, _) in RELAID_CASES.items()}
        widths = [packs_of(*case[:4])[1] for case in PINNED_WIDTHS]
    calls = {}
    for argv, _ in HOST_CALLS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        calls[" ".join(argv)] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]
    return json.dumps({"relaid": relaid, "widths": widths, "calls": calls})


def test_results_do_not_depend_on_the_byte_order():
    # a big-endian host, simulated by setting sys.byteorder before the
    # package is imported, picks this host's digit widths: the same twist
    # layouts, certificate widths and output bytes
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    code = "import sys\nsys.byteorder = 'big'\nimport test_lefschetz\nprint(test_lefschetz._host_results())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                         env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert run.returncode == 0, run.stderr
    golden = json.loads((tests.parent / "perfbench" / "golden.json").read_text())["digests"]
    assert json.loads(run.stdout) == {
        "relaid": {case: [[list(layout)], [B]] for case, (_, layout, B) in RELAID_CASES.items()},
        "widths": [list(case[4]) for case in PINNED_WIDTHS],
        "calls": {" ".join(argv): [code, golden[" ".join(argv)]] for argv, code in HOST_CALLS},
    }


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
