"""Jacobi theta functions and the level-2 modular forms built from them.

The four theta functions are handled twice over: as formal q-expansions
with Laurent coefficients in z = e^(2 pi i v), and as numeric products
for complex arguments.  The modular forms delta_1, eps_1, delta_2,
eps_2 are exact divisor-sum q-series; their transformation laws under
tau -> -1/tau and the eight theta transformation laws are verified
numerically to a requested tolerance.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .core.qseries import RATIONAL, Z_RING, QSeries, _binomial_product, complex_eval
from .errors import NotUpperHalfPlane

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
    """Truncated triple-product expansion of a theta function.

    z-exponents are clamped to |exponent| <= n_z after each factor;
    with n_z >= n_q no clamping ever happens because grade q^g carries
    z-exponents bounded by g.  n_z defaults to n_q and must not be
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
        factors.append((-1, 0, 2 * j, False))  # scalar factor (1 - q^j)
        h = 2 * j - 1 if half_offset else 2 * j
        factors += [(sign, 1, h, False), (sign, -1, h, False)]
    series = _binomial_product(Z_RING, n_q, factors, bound=n_z)
    pref = Fraction(1, 8) if kind in ("theta", "theta1") else Fraction(0)
    return ThetaExpansion(kind, pref, trig, series, n_z)


class EvalResult(NamedTuple):
    value: complex
    tail: float


def _check_tau(tau: complex):
    if complex(tau).imag <= 0:
        raise NotUpperHalfPlane(f"tau = {tau} is not in the upper half-plane")


def theta_eval(kind: str, v: complex, tau: complex, N: int = 40) -> EvalResult:
    """Numeric theta value from the infinite product, truncated at j <= N."""
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
    for j in range(1, N + 1):
        qj = q ** j
        # fractional q-powers must come from tau itself, not a branch cut
        qh = cmath.exp(2j * cmath.pi * tau * (j - 0.5)) if half_offset else qj
        value *= (1 - qj) * (1 + sign * z * qh) * (1 + sign * qh / z)
    growth = 2.0 + abs(z) + 1.0 / abs(z)
    absq = abs(q)
    log_tail = growth * absq ** (N + 0.5) / (1.0 - absq)
    tail = abs(value) * (cmath.exp(log_tail).real - 1.0) if absq < 1 else float("inf")
    return EvalResult(value, tail)


def theta_expansion_eval(exp: ThetaExpansion, v: complex, tau: complex) -> complex:
    """Numeric value of a formal expansion at z = e^(2 pi i v)."""
    _check_tau(tau)
    z = cmath.exp(2j * cmath.pi * v)
    q_pow = cmath.exp(2j * cmath.pi * tau * float(exp.prefactor_exponent))
    if exp.trig == "sin":
        pref = 2 * q_pow * cmath.sin(cmath.pi * v)
    elif exp.trig == "cos":
        pref = 2 * q_pow * cmath.cos(cmath.pi * v)
    else:
        pref = q_pow
    total = 0j
    for g, c in exp.series.nonzero_terms():
        total += c.evaluate(z) * cmath.exp(2j * cmath.pi * tau * float(g))
    return pref * total


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
    _check_tau(-1 / tau)
    t_partner = {"theta": "theta", "theta1": "theta1",
                 "theta2": "theta3", "theta3": "theta2"}
    t_phase = {"theta": cmath.exp(1j * cmath.pi / 4),
               "theta1": cmath.exp(1j * cmath.pi / 4),
               "theta2": 1.0, "theta3": 1.0}
    s_partner = {"theta": "theta", "theta1": "theta2",
                 "theta2": "theta1", "theta3": "theta3"}
    residuals: dict[str, float] = {}
    for kind in THETA_KINDS:
        lhs = theta_eval(kind, v, tau + 1, N).value
        rhs = t_phase[kind] * theta_eval(t_partner[kind], v, tau, N).value
        residuals[f"{kind}_T"] = abs(lhs - rhs)
        lhs = theta_eval(kind, v, -1 / tau, N).value
        extra = 1 / 1j if kind == "theta" else 1.0
        rhs = extra * _s_factor(tau, v) * theta_eval(s_partner[kind], tau * v, tau, N).value
        residuals[f"{kind}_S"] = abs(lhs - rhs)
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
    _check_tau(tau)
    return complex_eval(modform_qexp(name, N).series, tau)[0]


def verify_modform_transforms(tau: complex, N: int = 60, tol: float = 1e-8) -> dict:
    """Residuals of delta2(-1/tau) = tau^2 delta1(tau) and
    eps2(-1/tau) = tau^4 eps1(tau), both sides summed as q-expansions."""
    _check_tau(tau)
    inv = -1 / tau
    residuals = {
        "delta2_S": abs(modform_eval("delta2", inv, N) - tau ** 2 * modform_eval("delta1", tau, N)),
        "eps2_S": abs(modform_eval("eps2", inv, N) - tau ** 4 * modform_eval("eps1", tau, N)),
    }
    failed = sorted(name for name, r in residuals.items() if not r < tol)
    return {
        "residuals": residuals,
        "tolerance": tol,
        "failed": failed,
        "all_passed": not failed,
    }
