"""Jacobi theta functions and the level-2 modular forms built from them.

The four theta functions are handled twice over: as formal q-expansions
with Laurent coefficients in z = e^(2 pi i v), and as numeric products
for complex arguments.  The modular forms delta_1, eps_1, delta_2,
eps_2 are exact divisor-sum q-series; their transformation laws under
tau -> -1/tau and the eight theta transformation laws are verified
numerically to a requested tolerance, relative to the size of the terms
each evaluation sums or multiplies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .core.laurent import Z, LaurentPoly
from .core.qseries import RATIONAL, Z_RING, QSeries, _binomial_product, _check_tau, complex_eval
from .errors import NumericOverflow

THETA_KINDS = ("theta", "theta1", "theta2", "theta3")

# (trig prefactor, z-sign of the paired factors, half-integer offset)
_THETA_SHAPE = {
    "theta": ("sin", -1, False),
    "theta1": ("cos", +1, False),
    "theta2": (None, -1, True),
    "theta3": (None, +1, True),
}


@dataclass
class ThetaExpansion:
    """Formal expansion: prefactor q^prefactor_exponent * trig * series."""

    kind: str
    prefactor_exponent: Fraction
    trig: str | None
    series: QSeries
    z_order: int


def theta_qexp(kind: str, n_q: int, n_z: int | None = None) -> ThetaExpansion:
    """Triple-product expansion of a theta function, truncated in q and z.

    The product is exact to q^n_q; then every term z^e with |e| > n_z is
    dropped from each grade.  That exact product never carries |e| > n_q,
    so n_z >= n_q drops nothing.  n_z defaults to n_q and must not be
    negative.
    """
    if kind not in _THETA_SHAPE:
        raise ValueError(f"unknown theta kind {kind!r}")
    if n_z is None:
        n_z = n_q
    if n_z < 0:
        raise ValueError(f"z-order must be non-negative, got {n_z}")
    trig, sign, half_offset = _THETA_SHAPE[kind]
    factors = []
    for j in range(1, n_q + 1):
        factors.append((-1, 0, 2 * j, False, 1))  # scalar factor (1 - q^j)
        h = 2 * j - 1 if half_offset else 2 * j
        factors += [(sign, 1, h, False, 1), (sign, -1, h, False, 1)]
    series = _binomial_product(Z_RING, n_q, factors)
    if n_z < n_q:
        series = series.map_coefficients(
            lambda c: LaurentPoly({e: v for e, v in c.coeffs.items() if abs(e) <= n_z}, Z))
    pref = Fraction(1, 8) if kind in ("theta", "theta1") else Fraction(0)
    return ThetaExpansion(kind, pref, trig, series, n_z)


def theta_eval(kind: str, v: complex, tau: complex, N: int = 40) -> tuple[complex, float]:
    """Numeric theta value from the infinite product, truncated at j <= N,
    and its scale: the same product over absolute values,
    |pref| prod_j |1 - q^j| (1 + |z q_h|) (1 + |q_h / z|).

    The scale bounds every partial product, so it sets the size of the
    rounding error even where the value itself cancels to zero.
    """
    if kind not in _THETA_SHAPE:
        raise ValueError(f"unknown theta kind {kind!r}")
    _check_tau(tau)
    trig, sign, half_offset = _THETA_SHAPE[kind]
    q = cmath.exp(2j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * v)
    if trig == "sin":
        pref = 2 * cmath.exp(2j * cmath.pi * tau / 8) * cmath.sin(cmath.pi * v)
    elif trig == "cos":
        pref = 2 * cmath.exp(2j * cmath.pi * tau / 8) * cmath.cos(cmath.pi * v)
    else:
        pref = 1.0
    value = complex(pref)
    scale = abs(pref)
    absz = abs(z)
    qj = 1.0
    # q_h = q^j or q^(j - 1/2); the half power must come from tau itself,
    # not a branch cut
    qh = cmath.exp(1j * cmath.pi * tau) if half_offset else q
    for _ in range(N):
        qj *= q
        a = 1 - qj
        value *= a * (1 + sign * z * qh) * (1 + sign * qh / z)
        absqh = abs(qh)
        scale *= abs(a) * (1 + absz * absqh) * (1 + absqh / absz)
        qh *= q
    return value, scale


def _s_factor(tau: complex, v: complex) -> complex:
    # principal branch of (tau / i)^(1/2), times e^(pi i tau v^2)
    return cmath.sqrt(tau / 1j) * cmath.exp(1j * cmath.pi * tau * v * v)


def verify_theta_transforms(v: complex, tau: complex, N: int = 40,
                            tol: float = 1e-9) -> dict:
    """Residuals of the eight T- and S-transformation laws.

    T-laws: theta and theta1 pick up e^(pi i / 4) under tau -> tau + 1,
    while theta2 and theta3 swap.  S-laws relate each value at -1/tau to
    a partner at tau through the factor (tau/i)^(1/2) e^(pi i tau v^2),
    with an extra 1/i for theta.  Square roots use the principal branch.
    """
    _check_tau(tau)
    _check_tau(-1 / tau, "-1/tau")
    t_partner = {"theta": "theta", "theta1": "theta1",
                 "theta2": "theta3", "theta3": "theta2"}
    t_phase = {"theta": cmath.exp(1j * cmath.pi / 4),
               "theta1": cmath.exp(1j * cmath.pi / 4),
               "theta2": 1.0, "theta3": 1.0}
    s_partner = {"theta": "theta", "theta1": "theta2",
                 "theta2": "theta1", "theta3": "theta3"}

    def sides():
        out = {}
        for kind in THETA_KINDS:
            out[f"{kind}_T"] = (theta_eval(kind, v, tau + 1, N),
                                _times(t_phase[kind], theta_eval(t_partner[kind], v, tau, N)))
            extra = 1 / 1j if kind == "theta" else 1.0
            out[f"{kind}_S"] = (theta_eval(kind, v, -1 / tau, N),
                                _times(extra * _s_factor(tau, v),
                                       theta_eval(s_partner[kind], tau * v, tau, N)))
        return out

    return _report(sides, tol)


def _times(c: complex, side: tuple[complex, float]) -> tuple[complex, float]:
    value, scale = side
    return c * value, abs(c) * scale


def _report(sides_of, tol: float) -> dict:
    """Judge each law lhs = rhs that sides_of() returns against tol.

    sides_of() maps a law's name to its two sides, each a (value, scale)
    pair.  Rounding error grows with the scale, the size of the terms
    that made a value, not with the value, which may cancel to zero; so
    the residual is |lhs - rhs| / max(1, scale_lhs, scale_rhs).  An
    evaluation that leaves the floating-point range, by overflow, by
    dividing by an underflowed zero or by an infinite argument (cmath
    raises ValueError), raises NumericOverflow, and so does a residual or
    a scale that is not finite: it decides nothing, and JSON cannot hold
    it.
    """
    try:
        residuals: dict[str, float] = {}
        for name, ((lhs, lhs_scale), (rhs, rhs_scale)) in sides_of().items():
            diff = abs(lhs - rhs)
            if not all(map(math.isfinite, (diff, lhs_scale, rhs_scale))):
                raise NumericOverflow("a residual or its scale is not a finite number")
            residuals[name] = diff / max(1.0, lhs_scale, rhs_scale)
    except (OverflowError, ZeroDivisionError, ValueError) as exc:
        raise NumericOverflow(f"the evaluation left the floating-point range: {exc}") from None
    failed = sorted(name for name, r in residuals.items() if not r < tol)
    return {
        "residuals": residuals,
        "tolerance": tol,
        "failed": failed,
        "all_passed": not failed,
    }


# -- modular forms over the level-2 subgroups --------------------------------

MODFORM_NAMES = ("delta1", "eps1", "delta2", "eps2")


@dataclass
class ModFormSeries:
    name: str
    series: QSeries
    weight: int
    group: str


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d * d != n:
                out.append(n // d)
        d += 1
    return out


def _odd_divisor_sum(n: int) -> int:
    return sum(d for d in _divisors(n) if d % 2 == 1)


def modform_qexp(name: str, N: int = 10) -> ModFormSeries:
    """Exact q-expansion by direct divisor sums.

    delta1 = 1/4 + 6 sum_{n, d|n odd} d q^n          (weight 2)
    eps1   = 1/16 + sum_{n, d|n} (-1)^d d^3 q^n      (weight 4)
    delta2 = -1/8 - 3 sum_{n, d|n odd} d q^(n/2)     (weight 2)
    eps2   = sum_{n, d|n, n/d odd} d^3 q^(n/2)       (weight 4)
    """
    s = QSeries(RATIONAL, N)
    if name == "delta1":
        s.coeffs[0] = Fraction(1, 4)
        for n in range(1, N + 1):
            s.coeffs[2 * n] = 6 * _odd_divisor_sum(n)
        return ModFormSeries(name, s, 2, "Gamma_0(2)")
    if name == "eps1":
        s.coeffs[0] = Fraction(1, 16)
        for n in range(1, N + 1):
            s.coeffs[2 * n] = sum((-1) ** d * d ** 3 for d in _divisors(n))
        return ModFormSeries(name, s, 4, "Gamma_0(2)")
    if name == "delta2":
        s.coeffs[0] = Fraction(-1, 8)
        for n in range(1, 2 * N + 1):
            s.coeffs[n] = -3 * _odd_divisor_sum(n)
        return ModFormSeries(name, s, 2, "Gamma^0(2)")
    if name == "eps2":
        for n in range(1, 2 * N + 1):
            s.coeffs[n] = sum(d ** 3 for d in _divisors(n) if (n // d) % 2 == 1)
        return ModFormSeries(name, s, 4, "Gamma^0(2)")
    raise ValueError(f"unknown modular form {name!r}")


def modform_eval(name: str, tau: complex, N: int = 60) -> complex:
    return complex_eval(modform_qexp(name, N).series, tau)[0]


def verify_modform_transforms(tau: complex, N: int = 60, tol: float = 1e-8) -> dict:
    """Residuals of delta2(-1/tau) = tau^2 delta1(tau) and
    eps2(-1/tau) = tau^4 eps1(tau), both sides summed as q-expansions."""
    _check_tau(tau)
    inv = -1 / tau
    _check_tau(inv, "-1/tau")

    def side(name, t):
        return complex_eval(modform_qexp(name, N).series, t)

    return _report(lambda: {
        "delta2_S": (side("delta2", inv), _times(tau ** 2, side("delta1", tau))),
        "eps2_S": (side("eps2", inv), _times(tau ** 4, side("eps1", tau))),
    }, tol)
