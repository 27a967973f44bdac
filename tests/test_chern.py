import random
from fractions import Fraction
from math import factorial

import pytest

from propergenus import chern
from propergenus.chern import (
    CancellationReport,
    _a_hat_form,
    _bases,
    _exp_power_sums,
    _witten_form,
    a_hat,
    ch_witten,
    l_hat,
    p2_decompose,
    partitions_of,
    solve_cancellation,
    witten_chern_series,
)
from propergenus.core import RATIONAL, LaurentPoly, QSeries
from propergenus.errors import InconsistentSystem, SingularSystem
from propergenus.lambda_ring import THETA2, theta_bundle
from propergenus.theta_modforms import modform_qexp

from oracles import (
    class_product_part,
    elimination_cancellation,
    fraction_solve,
    power_sum_value,
    root_class_series,
)


def n_partitions(n: int) -> int:
    return len(list(partitions_of(n)))


def weight_part(cls: dict, n: int) -> dict:
    return {p: c for p, c in cls.items() if sum(p) == n}


def test_weight_zero_parts_are_one():
    for k in (1, 2, 3):
        assert a_hat(k)[()] == 1
        assert l_hat(k)[()] == 1


def test_a_hat_weight_four_oracle():
    c = root_class_series("a", (1,), 1)
    assert weight_part(a_hat(1), 1) == {(1,): c[1]}
    assert c[1] == Fraction(-1, 24)


def test_l_hat_weight_four_oracle():
    c = root_class_series("l", (1,), 1)
    assert weight_part(l_hat(1), 1) == {(1,): c[1]}
    assert c[1] == Fraction(1, 3)


def test_two_variable_product_oracle():
    # multiply out (1 + c1 x^2 + c2 x^4) for two roots and convert the
    # symmetric functions to power sums by Newton's identity
    for kind, build in (("a", a_hat), ("l", l_hat)):
        c = root_class_series(kind, (1,), 2)
        e1 = c[1]              # coefficient of x1^2 + x2^2 = p1
        sq = c[1] * c[1]       # coefficient of x1^2 x2^2 = (p1^2 - p2)/2
        quart = c[2]           # coefficient of x1^4 + x2^4 = p2
        assert build(2) == {(): 1, (1,): e1, (2,): quart - sq / 2, (1, 1): sq / 2}


def test_classes_match_root_products():
    # every weight n <= k of A-hat and L, read at p_s = sum_j x_j^(2s),
    # is the v^n coefficient of prod_j f(x_j t), v = t^2, at p(k) + 2
    # seeded rational root vectors of length k
    rng = random.Random(20260413)
    for k in range(1, 9):
        classes = {"a": a_hat(k), "l": l_hat(k)}
        for _ in range(n_partitions(k) + 2):
            roots = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(k)]
            for kind, cls in classes.items():
                series = root_class_series(kind, roots, k)
                for n in range(k + 1):
                    assert power_sum_value(cls, roots, n) == series[n], (kind, k, roots, n)


def test_ch_witten_grade_zero_and_half():
    assert ch_witten(1, 0) == {(): 1}
    assert ch_witten(1, Fraction(1, 2)) == {(1,): -1}
    assert ch_witten(2, Fraction(1, 2)) == {(1,): -1, (2,): Fraction(-1, 12)}


def test_ch_witten_rank_sequence_matches_lambda_ring():
    # every moment: with lam = e^x and roots x_j = w_j x, the x^(2n)
    # coefficient of the Witten bundle over E = sum_j (lam^w_j + lam^-w_j),
    # (1/(2n)!) sum_e c_e e^(2n), is the weight-n part of the Chern series
    # at p_s = sum_j w_j^(2s); n = 0 is the rank.  p(8) + 2 seeded weight
    # vectors of length 8 give every k <= 8 at least p(k) + 2 of them; at
    # N = 8, p(3) + 2 short vectors check the divisor sums of the Witten
    # form up to half-grade 16 for k <= 3
    rng = random.Random(20260414)
    long = [tuple(rng.randint(1, 5) for _ in range(8)) for _ in range(n_partitions(8) + 2)]
    short = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(n_partitions(3) + 2)]
    for N, vectors, max_k in ((1, long, 8), (3, long, 8), (8, short, 3)):
        chern_sides = {k: witten_chern_series(k, N) for k in range(1, max_k + 1)}
        for w in vectors:
            E = sum((LaurentPoly({wj: 1, -wj: 1}) for wj in w), LaurentPoly.zero())
            lam_side = theta_bundle(E, THETA2, N=N)
            for h in range(2 * N + 1):
                c = lam_side.coeffs[h].coeffs
                for n in range(max_k + 1):
                    moment = Fraction(sum(ce * e ** (2 * n) for e, ce in c.items()),
                                      factorial(2 * n))
                    for k in range(max(1, n), max_k + 1):
                        grade = {lam: f.coeffs[h] for lam, f in chern_sides[k].items()}
                        assert moment == power_sum_value(grade, w, n), (N, w, k, h, n)


def test_exponentials_match_multiplied_out_oracle():
    # the top weight that solve_cancellation decomposes, read from one
    # exponential, is the weight-k part of A-hat times the Witten series
    for k in range(1, 9):
        for N in (k // 2 + 2, 3):
            top = _exp_power_sums(_witten_form(k, N, _a_hat_form(k)), sorted(partitions_of(k)))
            assert sorted(top) == sorted(partitions_of(k))
            series = witten_chern_series(k, N)
            assert all(f.ring == RATIONAL and f.trunc == N for f in series.values())
            for h in range(2 * N + 1):
                grade = {p: f.coeffs[h] for p, f in series.items()}
                expected = class_product_part(a_hat(k), grade, k)
                got = {p: f.coeffs[h] for p, f in top.items() if f.coeffs[h] != 0}
                assert got == expected, (k, N, h)


def test_partitions_and_symmetry():
    assert sorted(partitions_of(3)) == [(1, 1, 1), (2, 1), (3,)]
    for cls in (a_hat(4), l_hat(4), witten_chern_series(4, 2)):
        assert all(list(p) == sorted(p, reverse=True) for p in cls)


def test_weight_truncation():
    # a class to weight 4k holds every partition of weight <= k and no more
    for k in (1, 3, 5):
        expected = sorted(p for n in range(k + 1) for p in partitions_of(n))
        assert sorted(a_hat(k)) == sorted(l_hat(k)) == expected
        assert sorted(witten_chern_series(k, 2)) == expected
        assert all(c != 0 for c in ch_witten(k, 1).values())


def test_cancellation_k1():
    rep = solve_cancellation(1)
    assert rep.residual_is_zero
    assert rep.exponents == [3]
    assert rep.h_coeffs == [1]
    # the recovered relation is L^(4) = 8 * (-A-hat^(4)) = -8 A-hat^(4)
    assert rep.combinations[0] == {p: -c for p, c in weight_part(a_hat(1), 1).items()}
    assert {p: 8 * c for p, c in rep.combinations[0].items()} == weight_part(l_hat(1), 1)


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
    chT = {(): 4 * k, **{(s,): Fraction(2, factorial(2 * s)) for s in range(1, k + 1)}}
    twisted = class_product_part(a_hat(k), chT, k)
    ahat = weight_part(a_hat(k), k)
    rhs = {p: 8 * twisted.get(p, 0) - 32 * ahat.get(p, 0) for p in partitions_of(k)}
    assert weight_part(l_hat(k), k) == {p: c for p, c in rhs.items() if c != 0}


def test_cancellation_insufficient_order():
    with pytest.raises(SingularSystem):
        solve_cancellation(2, q_order=1)


@pytest.mark.parametrize("k", [0, -1])
def test_cancellation_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="k must be at least 1"):
        solve_cancellation(k)


@pytest.mark.parametrize("order", [0, -1])
def test_cancellation_refuses_order_below_one(order):
    # like every other library entry, before the unknowns are counted
    with pytest.raises(ValueError, match="truncation order must be a positive integer"):
        solve_cancellation(2, order)


@pytest.mark.parametrize("k", range(1, 13))
def test_cancellation_matches_elimination_oracle(k):
    # the top weight at every partition against the basis at every stored
    # grade, then the L-class scalars over every partition, both by
    # Gauss-Jordan on Fractions, at the default order and k//2 + 1..k//2 + 4
    parts = sorted(partitions_of(k))
    ell = weight_part(l_hat(k), k)
    for order in (None, *range(k // 2 + 1, k // 2 + 5)):
        N = k // 2 + 2 if order is None else order
        top = _exp_power_sums(_witten_form(k, N, _a_hat_form(k)), parts)
        rep = solve_cancellation(k, order)
        got = {"combinations": rep.combinations, "h_coeffs": rep.h_coeffs,
               "exponents": rep.exponents, "schedule": rep.schedule, "residual": rep.residual}
        assert got == elimination_cancellation(top, ell, k, N), (k, order)


@pytest.mark.parametrize("form, s", [("_a_hat_form", 1), ("_l_hat_form", 3)])
def test_cancellation_refuses_a_perturbed_form(monkeypatch, form, s):
    # a_1 + 1 + c_1(q) is no weight-2 form, so its decomposition fails;
    # l_3 + 1 moves the L-class at (3,) alone, which the forward scalar
    # solve never reads, so the residual over every partition catches it
    build = getattr(chern, form)
    monkeypatch.setattr(chern, form, lambda k: {**build(k), s: build(k)[s] + 1})
    with pytest.raises(InconsistentSystem, match="extra equations do not vanish"):
        solve_cancellation(3)


def test_cancellation_rows_are_triangular():
    # at (2^b 1^(k-2b)) row b of the decomposition is nonzero and every
    # later row vanishes, which the forward L-class solve rests on
    for k in range(1, 21):
        combos = solve_cancellation(k).combinations
        for b in range(k // 2 + 1):
            lam = (2,) * b + (1,) * (k - 2 * b)
            assert combos[b].get(lam, 0) != 0, (k, b)
            assert all(lam not in later for later in combos[b + 1:]), (k, b)


def test_bases_are_built_once_per_call(monkeypatch):
    # one expansion of delta2 and of eps2 per call, whatever the weight
    expanded = []
    expand = chern.modform_qexp
    monkeypatch.setattr(chern, "modform_qexp", lambda name, N: expanded.append(name) or expand(name, N))
    for k in (1, 3, 8, 20):
        expanded.clear()
        solve_cancellation(k)
        assert sorted(expanded) == ["delta2", "eps2"], k
    for m in range(8):
        expanded.clear()
        p2_decompose(QSeries(RATIONAL, 5), m)
        assert sorted(expanded) == ["delta2", "eps2"], m


def test_bases_multiply_once_per_basis_past_weight_two(monkeypatch):
    # row m is (8 delta2)^(m-2b) eps2^b, b = 0..[m/2], and each entry of
    # rows 2..k costs one product: rows 0 and 1 are 1 and 8 delta2
    d2 = modform_qexp("delta2", 4).series.scale(8)
    e2 = modform_qexp("eps2", 4).series
    products = []
    mul = QSeries.__mul__

    def counting(self, other):
        if isinstance(other, QSeries):
            products.append(1)
        return mul(self, other)

    monkeypatch.setattr(QSeries, "__mul__", counting)
    for k in range(9):
        products.clear()
        table = _bases(k, 4)
        assert len(products) == sum(m // 2 + 1 for m in range(2, k + 1)), k
        for m in range(k + 1):
            assert table[m] == [d2 ** (m - 2 * b) * e2 ** b for b in range(m // 2 + 1)], (k, m)


def test_p2_decompose_basis_element():
    # decomposed on the grades the series holds, at every truncation
    for order in range(2, 7):
        d2 = modform_qexp("delta2", order).series.scale(8)
        assert p2_decompose(d2 * d2, 2) == [1, 0], order


def test_p2_decompose_zero_series():
    assert p2_decompose(QSeries(RATIONAL, 5), 2) == [0, 0]


@pytest.mark.parametrize("m", [-1, -2])
@pytest.mark.parametrize("series", [QSeries(RATIONAL, 4), modform_qexp("delta2", 4).series])
def test_p2_decompose_refuses_negative_weight(series, m):
    with pytest.raises(ValueError, match=f"m must be at least 0, got {m}"):
        p2_decompose(series, m)


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


def _outcome(solve):
    """What ``solve()`` returns, or the class and message of its solve error."""
    try:
        return solve()
    except (SingularSystem, InconsistentSystem) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("fractions", [False, True])
def test_p2_decompose_matches_fraction_oracle(fractions):
    # seeded combinations of the basis, int or Fraction, at truncations with
    # too few grades, exactly enough and more: the same coefficients as
    # Gauss-Jordan on Fractions, and with one extra grade perturbed the
    # same InconsistentSystem, or the same SingularSystem and rank text
    rng = random.Random(1968 + fractions)

    def entry():
        if fractions and rng.random() < 0.6:
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        return rng.randint(-30, 30)

    outcomes = []
    for m in range(1, 9):
        for N in (1, 2, 3, 6):
            d2 = modform_qexp("delta2", N).series.scale(8)
            e2 = modform_qexp("eps2", N).series
            basis = [d2 ** (m - 2 * b) * e2 ** b for b in range(m // 2 + 1)]
            rows = [[s.coeffs[h] for s in basis] for h in range(2 * N + 1)]
            x = [entry() for _ in basis]
            coeffs = [sum(c * xb for c, xb in zip(row, x)) for row in rows]
            if 2 * N + 1 > len(basis):
                cases = [coeffs, list(coeffs)]
                cases[1][rng.randrange(len(basis), 2 * N + 1)] += entry() or 1
            else:
                cases = [coeffs]
            for case in cases:
                expected = _outcome(lambda: [c[0] for c in fraction_solve(rows, [[c] for c in case])])
                got = _outcome(lambda: p2_decompose(QSeries(RATIONAL, N, case), m))
                assert got == expected, (m, N, case)
                if isinstance(got, list):
                    assert all(type(c) is Fraction for c in got)
                    assert case is not coeffs or got == x
                outcomes.append(got if isinstance(got, tuple) else None)
    assert {o and o[0] for o in outcomes} == {None, SingularSystem, InconsistentSystem}
    assert (SingularSystem, "rank 3 < 5 unknowns") in outcomes
