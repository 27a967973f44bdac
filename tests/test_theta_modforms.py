from fractions import Fraction

import pytest

from propergenus.core import LaurentPoly, QSeries, RATIONAL, complex_eval
from propergenus.errors import NotUpperHalfPlane
from propergenus.theta_modforms import (
    MODFORM_NAMES,
    THETA_KINDS,
    _divisor_table,
    modform_eval,
    modform_qexp,
    theta_eval,
    theta_qexp,
    verify_modform_transforms,
    verify_theta_transforms,
)

from oracles import divisors, odd_divisor_sum, theta_expansion_eval, theta_tail


def z_poly(d):
    return LaurentPoly(d, "z")


def test_theta2_constant_term():
    exp = theta_qexp("theta2", 3)
    assert exp.series.coefficient(0) == 1
    assert exp.prefactor_exponent == 0
    assert exp.trig is None


def test_theta3_half_grade_coefficient():
    exp = theta_qexp("theta3", 3)
    assert exp.series.coefficient(Fraction(1, 2)) == z_poly({1: 1, -1: 1})


def test_theta_q_coefficient():
    exp = theta_qexp("theta", 3)
    assert exp.prefactor_exponent == Fraction(1, 8)
    assert exp.trig == "sin"
    assert exp.series.coefficient(1) == z_poly({1: -1, 0: -1, -1: -1})


def test_z_clamp():
    wide = theta_qexp("theta3", 6, 6)
    narrow = theta_qexp("theta3", 6, 1)
    for g, c in narrow.series.nonzero_terms():
        assert max(abs(e) for e in c.coeffs) <= 1
    # at every grade the clamp keeps exactly the |e| <= 1 terms of the full expansion
    kept = wide.series.map_coefficients(
        lambda c: LaurentPoly({e: v for e, v in c.coeffs.items() if abs(e) <= 1}, "z"))
    assert narrow.series == kept


def test_formal_expansion_even_odd_in_z():
    # theta is odd in v (sin prefactor, z-symmetric series); theta1..3 even
    for kind in THETA_KINDS:
        exp = theta_qexp(kind, 5)
        for _, c in exp.series.nonzero_terms():
            flipped = LaurentPoly({-e: v for e, v in c.coeffs.items()}, "z")
            assert flipped == c


def test_theta_vanishes_at_v_zero():
    for tau in (1j, 0.3 + 0.8j):
        assert abs(theta_eval("theta", 0, tau)[0]) == 0


def test_theta1_positive_real_at_origin():
    val = theta_eval("theta1", 0, 1j)[0]
    assert abs(val.imag) < 1e-15
    assert val.real > 0


def test_theta2_equals_theta1_at_tau_i():
    a = theta_eval("theta2", 0, 1j)[0]
    b = theta_eval("theta1", 0, 1j)[0]
    assert abs(a - b) < 1e-12


def test_parity_numeric():
    v, tau = 0.13 + 0.07j, 0.2 + 1.1j
    assert abs(theta_eval("theta", -v, tau)[0] + theta_eval("theta", v, tau)[0]) < 1e-12
    for kind in ("theta1", "theta2", "theta3"):
        assert abs(theta_eval(kind, -v, tau)[0] - theta_eval(kind, v, tau)[0]) < 1e-12


def test_transforms_at_reference_point():
    report = verify_theta_transforms(0.1 + 0.05j, 0.2 + 1.1j, N=40, tol=1e-9)
    assert report["all_passed"], report["failed"]
    assert len(report["residuals"]) == 8


def test_transform_exact_zero_case():
    report = verify_theta_transforms(0, 1j, N=40, tol=1e-9)
    assert report["residuals"]["theta_T"] == 0
    assert report["all_passed"]


def test_theta2_T_swaps_to_theta3():
    v, tau = 0.07 + 0.02j, 0.15 + 0.95j
    lhs = theta_eval("theta2", v, tau + 1, 40)[0]
    rhs = theta_eval("theta3", v, tau, 40)[0]
    assert abs(lhs - rhs) < 1e-9


def test_eval_rejects_lower_half_plane():
    with pytest.raises(NotUpperHalfPlane):
        theta_eval("theta", 0.1, 0.5 - 1j)
    with pytest.raises(NotUpperHalfPlane):
        verify_theta_transforms(0.1, -1j)


def test_formal_vs_numeric_grid():
    taus = [0.9j, 0.2 + 1.1j, -0.3 + 1.4j]
    vs = [0.05, 0.1 + 0.04j, -0.2 + 0.1j]
    for kind in THETA_KINDS:
        exp = theta_qexp(kind, 24, 24)
        for tau in taus:
            for v in vs:
                formal = theta_expansion_eval(exp, v, tau)
                direct = theta_eval(kind, v, tau, 60)[0]
                assert abs(formal - direct) < 1e-9 + 10 * theta_tail(kind, v, tau, 60)


def test_eval_scale_bounds_the_value():
    # the scale is the product over absolute values, so it bounds |value|;
    # at the lattice zero v = 5 tau the value cancels far below it
    for kind in THETA_KINDS:
        for v, tau in ((0.1 + 0.05j, 0.2 + 1.1j), (0.3, 0.9j)):
            value, scale = theta_eval(kind, v, tau, 40)
            assert 0 < abs(value) <= scale
    value, scale = theta_eval("theta", 5j, 1j, 20)
    assert scale > 1e33 and abs(value) < 1e-12 * scale


# -- exact cross-checks of the q-expansions against sympy ---------------------


def _truncated_product(sympy, factors, gens, top):
    """prod factors as a sympy Poly in gens, dropping every term whose
    degree in gens[0] exceeds top after each factor."""
    out = sympy.Poly(1, *gens)
    for f in factors:
        out = out * sympy.Poly(f, *gens)
        out = sympy.Poly.from_dict(
            {m: c for m, c in out.as_dict().items() if m[0] <= top}, *gens)
    return out


# z-sign of the paired factors, and whether their q-powers are j - 1/2
_TRIPLE_PRODUCT = {"theta": (-1, False), "theta1": (1, False),
                   "theta2": (-1, True), "theta3": (1, True)}


@pytest.mark.parametrize("kind", THETA_KINDS)
def test_theta_qexp_matches_sympy_triple_product(kind):
    # prod_j (1 - q^j)(1 + s z q^h)(1 + s q^h / z) in r = q^(1/2), each
    # paired factor times z so that sympy sees a polynomial in z:
    # z (1 + s z r^h)(1 + s r^h / z) = z + s r^h (z^2 + 1) + r^(2h) z
    sympy = pytest.importorskip("sympy")
    r, z = sympy.symbols("r z")
    N = 6
    sign, half = _TRIPLE_PRODUCT[kind]
    factors = []
    for j in range(1, N + 1):
        h = 2 * j - 1 if half else 2 * j
        factors += [1 - r ** (2 * j), z + sign * r ** h * (z ** 2 + 1) + r ** (2 * h) * z]
    expected = [{} for _ in range(2 * N + 1)]
    for (a, b), c in _truncated_product(sympy, factors, (r, z), 2 * N).terms():
        expected[a][b - N] = int(c)
    exp = theta_qexp(kind, N)
    assert exp.prefactor_exponent == (Fraction(1, 8) if kind in ("theta", "theta1") else 0)
    assert exp.series.coeffs == [z_poly(c) for c in expected]


def test_modform_qexp_matches_sympy_theta_nullwert_products():
    # the identities of test_modforms_against_theta_nullwert_products,
    # expanded exactly in r = q^(1/2) to q^N: with T_k = theta_k(0, tau)^4,
    # delta1 = (T2 + T3)/8, eps1 = T2 T3/16, delta2 = -(T1 + T3)/8 and
    # eps2 = T1 T3/16, where T1 = 16 q^(1/2) prod (1 - q^j)^4 (1 + q^j)^8
    # and T2, T3 = prod (1 - q^j)^4 (1 -+ q^(j-1/2))^8
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    N = 8
    top = 2 * N

    def nullwert(pairs):
        return _truncated_product(
            sympy, [(1 - r ** (2 * j)) ** 4 * pairs(j) ** 8 for j in range(1, N + 1)], (r,), top)

    t1 = sympy.Poly(16 * r, r) * nullwert(lambda j: 1 + r ** (2 * j))
    t2 = nullwert(lambda j: 1 - r ** (2 * j - 1))
    t3 = nullwert(lambda j: 1 + r ** (2 * j - 1))
    identities = {"delta1": (t2 + t3) * sympy.Rational(1, 8),
                  "eps1": t2 * t3 * sympy.Rational(1, 16),
                  "delta2": -(t1 + t3) * sympy.Rational(1, 8),
                  "eps2": t1 * t3 * sympy.Rational(1, 16)}
    for name, poly in identities.items():
        expected = [Fraction(0)] * (top + 1)
        for (a,), c in poly.terms():
            if a <= top:
                expected[a] = Fraction(int(c.p), int(c.q))
        assert modform_qexp(name, N).series.coeffs == expected, name


def test_divisor_table_matches_trial_division():
    table = _divisor_table(240)
    assert table[0] == []
    assert all(table[n] == sorted(divisors(n)) for n in range(1, 241))


def test_modform_qexp_matches_trial_division_divisor_sums():
    # every coefficient at every order through 60, against the divisor
    # sums of the docstring with divisors found by trial division
    rules = {
        "delta1": (Fraction(1, 4), 2, lambda n: 6 * odd_divisor_sum(n)),
        "eps1": (Fraction(1, 16), 2, lambda n: sum((-1) ** d * d ** 3 for d in divisors(n))),
        "delta2": (Fraction(-1, 8), 1, lambda n: -3 * odd_divisor_sum(n)),
        "eps2": (0, 1, lambda n: sum(d ** 3 for d in divisors(n) if (n // d) % 2 == 1)),
    }
    for N in range(1, 61):
        for name, (constant, step, coefficient) in rules.items():
            expected = [constant] + [0] * (2 * N)
            for n in range(1, 2 * N // step + 1):
                expected[step * n] = coefficient(n)
            assert modform_qexp(name, N).series.coeffs == expected, (name, N)


def test_modform_leading_terms():
    d1 = modform_qexp("delta1", 4)
    assert d1.weight == 2 and d1.group == "Gamma_0(2)"
    assert [d1.series.coefficient(g) for g in (0, 1, 2)] == [Fraction(1, 4), 6, 6]
    e1 = modform_qexp("eps1", 4)
    assert e1.weight == 4
    assert [e1.series.coefficient(g) for g in (0, 1, 2)] == [Fraction(1, 16), -1, 7]
    d2 = modform_qexp("delta2", 4)
    assert d2.group == "Gamma^0(2)"
    assert d2.series.coefficient(0) == Fraction(-1, 8)
    assert d2.series.coefficient(Fraction(1, 2)) == -3
    assert d2.series.coefficient(1) == -3
    e2 = modform_qexp("eps2", 4)
    assert e2.series.coefficient(0) == 0
    assert e2.series.coefficient(Fraction(1, 2)) == 1
    assert e2.series.coefficient(1) == 8


def test_modform_integrality_through_grade_40():
    scaled = {"delta1": 4, "eps1": 16, "delta2": 8, "eps2": 1}
    for name, mult in scaled.items():
        series = modform_qexp(name, 40).series.scale(mult)
        for _, c in series.nonzero_terms():
            assert isinstance(c, int), (name, c)


def test_modform_transforms():
    for tau in (1j, 0.3 + 0.9j):
        report = verify_modform_transforms(tau, N=60, tol=1e-8)
        assert report["all_passed"], report["residuals"]


def test_modform_transform_at_i_signs():
    # delta2(i) = -delta1(i) since tau^2 = -1
    assert abs(modform_eval("delta2", 1j) + modform_eval("delta1", 1j)) < 1e-8


def test_product_of_transforms_weight_six():
    tau = 0.2 + 1.05j
    lhs = 8 * modform_eval("delta2", -1 / tau, 70) * modform_eval("eps2", -1 / tau, 70)
    rhs = tau ** 6 * 8 * modform_eval("delta1", tau, 70) * modform_eval("eps1", tau, 70)
    assert abs(lhs - rhs) < 1e-7


def test_T_periodicity_at_series_level():
    # delta1 has only whole grades, so tau -> tau+1 fixes it exactly;
    # delta2 flips the sign of the half-integer grades only
    d1 = modform_qexp("delta1", 12).series
    assert all(d1.coeffs[h] == 0 for h in range(1, 25, 2))
    d2 = modform_qexp("delta2", 12).series
    shifted = QSeries(RATIONAL, 12, [(-1) ** h * c for h, c in enumerate(d2.coeffs)])
    value_plus_one = complex_eval(shifted, 0.4 + 1.2j)[0]
    direct = complex_eval(d2, (0.4 + 1.2j) + 1)[0]
    assert abs(value_plus_one - direct) < 1e-12


def test_modforms_against_theta_nullwert_products():
    # the four forms are polynomial in the theta values at v = 0; the
    # divisor-sum expansions and the infinite products share no code
    for tau in (0.2 + 1.1j, 1j):
        t1 = theta_eval("theta1", 0, tau, 60)[0] ** 4
        t2 = theta_eval("theta2", 0, tau, 60)[0] ** 4
        t3 = theta_eval("theta3", 0, tau, 60)[0] ** 4
        assert abs(modform_eval("delta1", tau, 80) - (t2 + t3) / 8) < 1e-12
        assert abs(modform_eval("eps1", tau, 80) - t2 * t3 / 16) < 1e-12
        assert abs(modform_eval("delta2", tau, 80) + (t1 + t3) / 8) < 1e-12
        assert abs(modform_eval("eps2", tau, 80) - t1 * t3 / 16) < 1e-12


def test_unknown_names_rejected():
    with pytest.raises(ValueError):
        theta_qexp("theta9", 3)
    with pytest.raises(ValueError):
        modform_qexp("delta3", 3)
    assert set(MODFORM_NAMES) == {"delta1", "eps1", "delta2", "eps2"}


@pytest.mark.parametrize("N", [0, -1])
def test_numeric_checks_refuse_an_order_below_one(N):
    # theta_eval at N <= 0 would be its prefactor alone, and the T-laws
    # would pass on it; the refusal comes before any evaluation
    refusal = "^truncation order must be a positive integer$"
    with pytest.raises(ValueError, match=refusal):
        theta_eval("theta", 0.1, 1j, N)
    with pytest.raises(ValueError, match=refusal):
        verify_theta_transforms(0.1, 1j, N)
    with pytest.raises(ValueError, match=refusal):
        verify_modform_transforms(1j, N)
