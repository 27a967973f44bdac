from fractions import Fraction
from math import factorial, prod

import pytest

from propergenus.chern import (
    CancellationReport,
    ChernRootSeries,
    _basis_rows,
    a_hat,
    ch_witten,
    l_hat,
    p2_decompose,
    partitions_of,
    solve_cancellation,
    solve_exact,
    witten_chern_series,
)
from propergenus.core import RATIONAL, LaurentPoly, QSeries
from propergenus.errors import InconsistentSystem, SingularSystem
from propergenus.lambda_ring import THETA2, theta_bundle
from propergenus.theta_modforms import modform_qexp

from oracles import chern_a_hat, chern_l_hat, chern_witten_series


def univariate_coeffs(kind: str, order: int) -> list[Fraction]:
    """One-variable Taylor oracle in v = u^2, by direct series division."""
    if kind == "a":  # (u/2)/sinh(u/2)
        denom = QSeries.from_terms(
            RATIONAL, order,
            {m: Fraction(1, 4 ** m * factorial(2 * m + 1)) for m in range(order + 1)})
        series = denom.inverse()
    else:  # u/tanh(u) = cosh(u) * (u/sinh(u))
        sinh = QSeries.from_terms(
            RATIONAL, order, {m: Fraction(1, factorial(2 * m + 1)) for m in range(order + 1)})
        cosh = QSeries.from_terms(
            RATIONAL, order, {m: Fraction(1, factorial(2 * m)) for m in range(order + 1)})
        series = cosh * sinh.inverse()
    return [series.coefficient(m) for m in range(order + 1)]


def test_weight_zero_parts_are_one():
    for k in (1, 2, 3):
        assert a_hat(k).constant_term() == 1
        assert l_hat(k).constant_term() == 1


def test_a_hat_weight_four_oracle():
    c = univariate_coeffs("a", 1)
    assert a_hat(1).weight_part(4) == ChernRootSeries.power_sum(1, 1, c[1])
    assert c[1] == Fraction(-1, 24)


def test_l_hat_weight_four_oracle():
    c = univariate_coeffs("l", 1)
    assert l_hat(1).weight_part(4) == ChernRootSeries.power_sum(1, 1, c[1])
    assert c[1] == Fraction(1, 3)


def test_two_variable_product_oracle():
    # multiply out (1 + c1 x^2 + c2 x^4) for two roots and convert the
    # symmetric functions to power sums by Newton's identity
    for kind, build in (("a", a_hat), ("l", l_hat)):
        c = univariate_coeffs(kind, 2)
        e1 = c[1]              # coefficient of x1^2 + x2^2 = p1
        sq = c[1] * c[1]       # coefficient of x1^2 x2^2 = (p1^2 - p2)/2
        quart = c[2]           # coefficient of x1^4 + x2^4 = p2
        expected = ChernRootSeries(2, {
            (): 1,
            (1,): e1,
            (2,): quart - sq / 2,
            (1, 1): sq / 2,
        })
        assert build(2) == expected


def test_ch_witten_grade_zero_and_half():
    assert ch_witten(1, 0) == ChernRootSeries.constant(1, 1)
    assert ch_witten(1, Fraction(1, 2)) == ChernRootSeries(1, {(1,): -1})
    assert ch_witten(2, Fraction(1, 2)) == ChernRootSeries(
        2, {(1,): -1, (2,): Fraction(-1, 12)})


def test_ch_witten_rank_sequence_matches_lambda_ring():
    # every moment: with lam = e^x and roots x_j = w_j x, the x^(2n)
    # coefficient of the Witten bundle over E = sum_j (lam^w_j + lam^-w_j),
    # (1/(2n)!) sum_e c_e e^(2n), is the weight-n part of the Chern series
    # at p_s = sum_j w_j^(2s); n = 0 is the rank
    N = 3
    for w in [(1, 2), (1, 3), (2, 5, 1), (1, 1, 4), (3,)]:
        E = sum((LaurentPoly({wj: 1, -wj: 1}) for wj in w), LaurentPoly.zero())
        lam_side = theta_bundle(E, THETA2, N=N)
        for k in range(1, 5):
            chern_side = witten_chern_series(k, N)
            for h in range(2 * N + 1):
                c = lam_side.coeffs[h].coeffs
                for n in range(k + 1):
                    moment = Fraction(sum(ce * e ** (2 * n) for e, ce in c.items()),
                                      factorial(2 * n))
                    value = sum(f.coeffs[h] * prod(sum(wj ** (2 * s) for wj in w) for s in lam)
                                for lam, f in chern_side.items() if sum(lam) == n)
                    assert moment == value, (w, k, h, n)


def test_exponentials_match_multiplied_out_oracle():
    for k in range(1, 9):
        assert a_hat(k) == chern_a_hat(k)
        assert l_hat(k) == chern_l_hat(k)
        for N in (1, 2, 3, 5, 8):
            series = witten_chern_series(k, N)
            oracle = chern_witten_series(k, N)
            assert all(f.ring == RATIONAL and f.trunc == N for f in series.values())
            for h in range(2 * N + 1):
                grade = ChernRootSeries(k, {p: f.coeffs[h] for p, f in series.items()})
                assert grade == oracle.coeffs[h], (k, N, h)


def test_partitions_and_symmetry():
    assert sorted(partitions_of(3)) == [(1, 1, 1), (2, 1), (3,)]
    s = ChernRootSeries(3, {(1, 2): 5})
    assert list(s.terms) == [(2, 1)]
    prod = ChernRootSeries.power_sum(3, 1) * ChernRootSeries.power_sum(3, 2)
    assert list(prod.terms) == [(2, 1)]


def test_weight_truncation():
    s = ChernRootSeries.power_sum(1, 1) * ChernRootSeries.power_sum(1, 1)
    assert s.is_zero()  # weight 8 > 4k with k = 1


def test_cancellation_k1():
    rep = solve_cancellation(1)
    assert rep.residual_is_zero
    assert rep.exponents == [3]
    assert rep.h_coeffs == [1]
    # the recovered relation is L^(4) = 8 * (-A-hat^(4)) = -8 A-hat^(4)
    assert rep.combinations[0] == -a_hat(1).weight_part(4)
    assert rep.combinations[0] * 8 == l_hat(1).weight_part(4)


def test_cancellation_k2():
    rep = solve_cancellation(2)
    assert rep.residual_is_zero
    assert len(rep.combinations) == 2  # basis (8 delta2)^2 and eps2
    assert rep.exponents == [6, 0]
    assert rep.h_coeffs == [1, 1]
    assert rep.schedule == "2^(3k-6j)"


def test_cancellation_k3():
    rep = solve_cancellation(3)
    assert rep.residual_is_zero
    assert rep.exponents == [9, 3]
    assert rep.schedule == "2^(3k-6j)"


@pytest.mark.parametrize("k", range(4, 9))
def test_cancellation_past_k3(k):
    rep = solve_cancellation(k)
    assert rep.residual_is_zero
    assert rep.exponents == [3 * k - 6 * j for j in range(k // 2 + 1)]
    assert rep.schedule == "2^(3k-6j)"


def test_dimension_twelve_classical_form():
    # L^(12) = 8 {A-hat ch(T_C)}^(12) - 32 {A-hat}^(12), the classical
    # dimension-12 statement, as a direct power-sum identity
    k = 3
    chT = ChernRootSeries.constant(k, 4 * k)
    for s in range(1, k + 1):
        chT = chT + ChernRootSeries.power_sum(k, s, Fraction(2, factorial(2 * s)))
    lhs = l_hat(k).weight_part(12)
    rhs = (a_hat(k) * chT).weight_part(12) * 8 - a_hat(k).weight_part(12) * 32
    assert lhs == rhs


def test_cancellation_insufficient_order():
    with pytest.raises(SingularSystem):
        solve_cancellation(2, q_order=1)


@pytest.mark.parametrize("k", [0, -1])
def test_cancellation_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        solve_cancellation(k)


def test_basis_rows_multiply_only_what_they_need(monkeypatch):
    # (8 delta2)^(k-2b) eps2^b for b = 0..[k/2]: k = 1 is delta2 alone,
    # k = 2 one square, k = 3 a cube (two products) and delta2 * eps2
    products = []
    mul = QSeries.__mul__

    def counting(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    for k, expected in ((1, 0), (2, 1), (3, 3)):
        products.clear()
        _basis_rows(k, 4)
        assert len(products) == expected, k


def test_p2_decompose_basis_element():
    d2 = modform_qexp("delta2", 6).series.scale(8)
    assert p2_decompose(d2 * d2, 2) == [1, 0]


def test_p2_decompose_zero_series():
    assert p2_decompose(QSeries(RATIONAL, 5), 2) == [0, 0]


def test_p2_decompose_is_left_inverse_of_basis():
    d2 = modform_qexp("delta2", 8).series.scale(8)
    e2 = modform_qexp("eps2", 8).series
    for m in range(1, 5):
        for b in range(m // 2 + 1):
            series = (d2 ** (m - 2 * b)) * (e2 ** b)
            coeffs = p2_decompose(series, m)
            expected = [Fraction(1) if i == b else Fraction(0) for i in range(m // 2 + 1)]
            assert coeffs == expected, (m, b)


def test_p2_decompose_pipeline_zero():
    # the half-twisted Dirac Lefschetz constants of the (0,1,2,3) action
    # vanish identically, so their decomposition is the zero vector
    from propergenus.lefschetz import lefschetz_twisted
    series = lefschetz_twisted((0, 1, 2, 3), "dirac", THETA2, N=4)
    constants = series.map_coefficients(lambda c: c.coeffs.get(0, 0), RATIONAL)
    assert p2_decompose(constants, 2) == [0, 0]


def test_p2_decompose_rejects_non_modular_input():
    bad = QSeries.from_terms(RATIONAL, 4, {0: 1, Fraction(1, 2): 1})
    with pytest.raises(InconsistentSystem):
        p2_decompose(bad, 2)


def test_solve_exact_errors():
    with pytest.raises(SingularSystem):
        solve_exact([[Fraction(1), Fraction(2)]], [[Fraction(1)]])
    with pytest.raises(InconsistentSystem):
        solve_exact([[Fraction(1)], [Fraction(1)]], [[Fraction(1)], [Fraction(2)]])
    sol = solve_exact([[Fraction(2), Fraction(0)], [Fraction(0), Fraction(4)]],
                      [[Fraction(6)], [Fraction(8)]])
    assert sol == [[Fraction(3)], [Fraction(2)]]
