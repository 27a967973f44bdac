"""Acceptance suite: one test per criterion, each printing a pass line
with its runtime and asserting the stated tolerance and time budget."""

import random
import time
from fractions import Fraction

from propergenus.chern import solve_cancellation
from propergenus.core import LAMBDA_RING, LaurentPoly, QSeries
from propergenus.induction import averaged_elliptic_genera, averaged_witten_genus, trace_series
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    ext_total,
    sym_total,
    theta_bundle,
    tilde,
)
from propergenus.lefschetz import (
    DIRAC,
    SIGNATURE,
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
)
from propergenus.theta_modforms import (
    modform_qexp,
    verify_modform_transforms,
    verify_theta_transforms,
)

from oracles import adams_theta_series, adams_total_power

ADJOINT = LaurentPoly({2: 1, -2: 1})


def _finish(number: int, label: str, t0: float, limit: float):
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {number} ({elapsed:.2f}s < {limit:.0f}s): {label}")
    assert elapsed < limit, f"criterion {number} exceeded its {limit}s budget"


def lam(d):
    return LaurentPoly(d)


def test_criterion_1_witten_bundle_coefficients():
    t0 = time.monotonic()
    t1 = theta_bundle(ADJOINT, THETA1, N=2)
    assert t1.coefficient(0) == 1
    assert t1.coefficient(Fraction(1, 2)) == 0
    assert t1.coefficient(1) == lam({2: 2, -2: 2, 0: -4})
    assert t1.coefficient(Fraction(3, 2)) == 0
    assert t1.coefficient(2) == lam({4: 2, 2: -6, 0: 8, -2: -6, -4: 2})
    t2 = theta_bundle(ADJOINT, THETA2, N=1)
    assert t2.coefficient(0) == 1
    assert t2.coefficient(Fraction(1, 2)) == lam({2: -1, -2: -1, 0: 2})
    assert t2.coefficient(1) == lam({2: -1, -2: -1, 0: 2})
    _finish(1, "half- and full-twist Witten bundle coefficients, d = 2", t0, 1.0)


def test_criterion_2_modular_form_expansions():
    t0 = time.monotonic()
    d1 = modform_qexp("delta1", 40).series
    assert [d1.coefficient(g) for g in (0, 1, 2)] == [Fraction(1, 4), 6, 6]
    e1 = modform_qexp("eps1", 40).series
    assert [e1.coefficient(g) for g in (0, 1, 2)] == [Fraction(1, 16), -1, 7]
    d2 = modform_qexp("delta2", 40).series
    assert [d2.coefficient(g) for g in (0, Fraction(1, 2), 1)] == [Fraction(-1, 8), -3, -3]
    e2 = modform_qexp("eps2", 40).series
    assert [e2.coefficient(g) for g in (0, Fraction(1, 2), 1)] == [0, 1, 8]
    for series, mult in ((d1, 4), (e1, 16), (d2, 8), (e2, 1)):
        for _, c in series.scale(mult).nonzero_terms():
            assert isinstance(c, int)
    _finish(2, "delta/eps q-expansions and integrality through grade 40", t0, 1.0)


def test_criterion_3_theta_transformation_laws():
    t0 = time.monotonic()
    points = [
        (0.1 + 0.05j, 0.2 + 1.1j),
        (0.0 + 0.0j, 1.0j),
        (-0.2 + 0.1j, -0.3 + 0.8j),
        (0.3 - 0.05j, 0.5 + 1.5j),
        (0.05 + 0.2j, -0.1 + 0.9j),
    ]
    for v, tau in points:
        report = verify_theta_transforms(v, tau, N=40, tol=1e-9)
        assert report["all_passed"], (v, tau, report["failed"])
    _finish(3, "eight theta laws at five sample points, residual < 1e-9", t0, 5.0)


def test_criterion_4_modform_transformation_laws():
    t0 = time.monotonic()
    for tau in (1j, 0.3 + 0.9j, -0.4 + 1.2j):
        report = verify_modform_transforms(tau, N=60, tol=1e-8)
        assert report["all_passed"], (tau, report["residuals"])
    _finish(4, "level-2 S-transformation laws, residual < 1e-8", t0, 5.0)


def test_criterion_5_example_pipeline():
    t0 = time.monotonic()
    for ws in ((0, 1, 2, 3), (0, 2)):
        witten = lefschetz_witten(ws, N=10)
        for _, c in witten.nonzero_terms():
            assert c.is_integral()
        assert witten.coefficient(0) == LaurentPoly.zero()
        p = p_series(ws, N=10)
        factored = theta_bundle(ADJOINT, THETA, N=10) * witten
        assert p == factored
        route_a = trace_series(p)
        route_b = trace_series(factored)
        assert route_a == route_b
        assert averaged_witten_genus(ws, N=10) == route_a
        phi1, phi2 = averaged_elliptic_genera(ws, N=8)
        assert phi1.is_zero() and phi2.is_zero()
    _finish(5, "worked-example pipeline for (0,1,2,3) and (0,2)", t0, 30.0)


def test_criterion_6_rigidity_constancy():
    t0 = time.monotonic()
    vectors = [(0, 2), (1, 3), (0, 1, 2, 3), (-3, -1, 0, 2), (0, 1, 2, 5), (-5, -2, 1, 4)]
    for ws in vectors:
        assert all(abs(a) <= 5 for a in ws) and len(ws) in (2, 4)
        for operator, twist in ((SIGNATURE, THETA1), (DIRAC, THETA2)):
            series = lefschetz_twisted(ws, operator, twist, N=8)
            for g, c in series.nonzero_terms():
                assert c.is_constant(), (ws, operator, twist, g)
    _finish(6, "rigidity: lambda-independence for six weight vectors", t0, 60.0)


def test_criterion_7_miraculous_cancellation():
    t0 = time.monotonic()
    schedules = {}
    for k in (1, 2, 3):
        report = solve_cancellation(k)
        assert report.residual_is_zero, k
        schedules[k] = report.exponents
    assert schedules == {1: [3], 2: [6, 0], 3: [9, 3]}  # 2^(3k - 6j)
    print(f"  recovered power-of-two schedules: {schedules}")
    _finish(7, "cancellation residual zero for k = 1, 2, 3", t0, 60.0)


def test_criterion_8_lambda_ring_property_suite():
    t0 = time.monotonic()
    rng = random.Random(123)

    def rand_char():
        char = LaurentPoly.zero()
        for _ in range(rng.randint(1, 4)):
            char = char + LaurentPoly.monomial(rng.randint(-5, 5), 1)
        return char

    for _ in range(100):
        E = rand_char()
        n = rng.randint(1, 8)
        grade = rng.choice([1, 2, Fraction(1, 2)])
        assert sym_total(E, grade, 1, n) * ext_total(E, grade, -1, n) == QSeries.one(LAMBDA_RING, n)
    for _ in range(100):
        E, F = rand_char(), rand_char()
        n = rng.randint(1, 4)
        assert theta_bundle(E + F, THETA, n) == theta_bundle(E, THETA, n) * theta_bundle(F, THETA, n)
    for _ in range(100):
        E = rand_char()
        n = rng.randint(1, 5)
        assert adams_total_power(E, 1, 1, n, exterior=False) == sym_total(E, 1, 1, n)
    for _ in range(100):
        E = rand_char()
        n = rng.randint(1, 4)
        variant = rng.choice([THETA, THETA1, THETA2])
        for _, c in adams_theta_series(tilde(E), variant, n).nonzero_terms():
            assert c.is_integral()
    _finish(8, "randomized lambda-ring identities, 100 instances each", t0, 30.0)
