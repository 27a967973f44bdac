import pytest

from propergenus.core import LAMBDA_RING, MU_RING, RATIONAL, LaurentPoly, QSeries
from propergenus import induction
from propergenus.errors import RingMismatch
from propergenus.induction import (
    averaged_elliptic_genera,
    averaged_witten_genus,
    pi_s1,
    trace_char,
    trace_series,
)
from propergenus.lambda_ring import THETA, theta_bundle
from propergenus.lefschetz import lefschetz_witten, p_series

from oracles import sl2_formal_degree


def test_pi_s1_pattern():
    assert pi_s1(1) == 0
    assert pi_s1(0) == -1
    assert pi_s1(2) == -1
    assert pi_s1(-3) == -4
    assert [pi_s1(n) for n in range(-2, 4)] == [-3, -2, -1, 0, -1, -2]


def test_trace_char():
    assert trace_char(LaurentPoly({0: 5})) == -5
    assert trace_char(LaurentPoly({1: 1, -1: 1})) == -2
    assert trace_char(LaurentPoly.zero()) == 0


def test_trace_series_linear():
    a = QSeries.from_terms(LAMBDA_RING, 3, {0: LaurentPoly({2: 1}), 1: LaurentPoly({0: 4})})
    b = QSeries.from_terms(LAMBDA_RING, 3, {1: LaurentPoly({-1: 2})})
    assert trace_series(a + b) == trace_series(a) + trace_series(b)
    assert trace_series(a.scale(3)) == trace_series(a).scale(3)


def test_trace_refuses_non_lambda_input():
    with pytest.raises(RingMismatch):
        trace_series(QSeries.one(RATIONAL, 2))
    with pytest.raises(RingMismatch):
        trace_series(QSeries.one(MU_RING, 2))


def test_witten_genus_cp1_zero():
    assert averaged_witten_genus((0, 2), N=8).is_zero()


def test_witten_genus_cp3_grade_zero():
    g = averaged_witten_genus((0, 1, 2, 3), N=6)
    assert g.coefficient(0) == 0


def test_witten_genus_routes_agree_to_grade_ten():
    ws = (0, 1, 2, 3)
    traced = trace_series(p_series(ws, 10))
    adjoint = LaurentPoly({2: 1, -2: 1})
    factored = trace_series(theta_bundle(adjoint, THETA, 10) * lefschetz_witten(ws, 10))
    assert traced == factored
    # averaged_witten_genus runs the same comparison internally
    assert averaged_witten_genus(ws, N=10) == traced


def test_witten_genus_route_check_fires(monkeypatch):
    original = induction.lefschetz_witten

    def perturbed(weights, N):
        # one extra lam^2 at grade 2, which traces to -1
        extra = QSeries.from_terms(LAMBDA_RING, N, {2: LaurentPoly({2: 1})})
        return original(weights, N) + extra

    monkeypatch.setattr(induction, "lefschetz_witten", perturbed)
    with pytest.raises(AssertionError, match="disagree"):
        averaged_witten_genus((0, 1, 2, 5), N=4)



def test_witten_genus_route_check_compares_before_the_trace(monkeypatch):
    original = induction.p_series

    def perturbed(weights, N):
        # lam^2 - 1 at the top grade: the trace sends lam^2 and 1 both to
        # -1, so the traced routes still agree
        out = original(weights, N)
        extra = QSeries.from_terms(LAMBDA_RING, N, {N: LaurentPoly({2: 1, 0: -1})})
        assert trace_series(extra).is_zero()
        return out + extra

    monkeypatch.setattr(induction, "p_series", perturbed)
    with pytest.raises(AssertionError, match="disagree"):
        averaged_witten_genus((0, 1, 2, 5), N=4)


def test_witten_genus_route_check_fires_on_an_odd_start(monkeypatch):
    # an odd power of lam in the start series, which every other term of
    # both routes lacks: the kernel packs it at the gcd 1 and it survives
    # the product with Theta(adjoint~), whose constant term is 1
    original = induction.lefschetz_witten

    def perturbed(weights, N):
        extra = QSeries.from_terms(LAMBDA_RING, N, {1: LaurentPoly({3: 1, -1: -1})})
        return original(weights, N) + extra

    monkeypatch.setattr(induction, "lefschetz_witten", perturbed)
    with pytest.raises(AssertionError, match="disagree"):
        averaged_witten_genus((0, 1, 2, 5), N=4)


def test_induction_multiplies_no_two_series(monkeypatch):
    # each Witten bundle of the adjoint is applied onto its Lefschetz
    # series by the kernel's start, so no two series are multiplied
    mul = QSeries.__mul__

    def refuse(self, other):
        if isinstance(other, QSeries):
            raise AssertionError("induction multiplied two series")
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", refuse)
    monkeypatch.setattr(QSeries, "__rmul__", refuse)
    assert averaged_witten_genus((0, 1, 2, 5), N=6).coefficient(3) == 6
    for ws in [(0, 2), (0, 1, 2, 5)]:
        phi1, phi2 = averaged_elliptic_genera(ws, N=5)
        assert phi1.is_zero() and phi2.is_zero()


def test_witten_genus_nonzero_case():
    g = averaged_witten_genus((0, 1, 2, 5), N=8)
    assert g.coefficient(2) == -2
    assert g.coefficient(3) == 6
    assert not g.is_zero()


def test_witten_genus_is_an_integer_whole_q_series():
    for ws in [(0, 1, 2, 5), (0, 3, 5, 6)]:
        g = averaged_witten_genus(ws, N=8)
        for grade, c in g.nonzero_terms():
            assert grade.denominator == 1, ws
            assert isinstance(c, int), (ws, grade, c)


def test_elliptic_genera_vanish():
    for ws in [(0, 2), (0, 1, 2, 3)]:
        phi1, phi2 = averaged_elliptic_genera(ws, N=8)
        assert phi1.is_zero() and phi2.is_zero()


def test_elliptic_genera_vanish_cp7():
    phi1, phi2 = averaged_elliptic_genera((1, 2, 3, 4, 5, 6, 7, 8), N=4)
    assert phi1.is_zero() and phi2.is_zero()


def test_formal_degree_matches_trace_in_absolute_value():
    for n in range(-4, 6):
        assert abs(pi_s1(n)) == abs(sl2_formal_degree(n - 1)), n
