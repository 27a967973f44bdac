"""Jacobi theta functions and the level-2 modular forms built from them.

The four theta functions are formal q-expansions with Laurent
coefficients in z = e^(2 pi i v), read from the sum side of Jacobi's
triple product, and numeric products for complex arguments.  The
modular forms delta_1, eps_1, delta_2, eps_2 are exact divisor-sum
q-series; their transformation laws under tau -> -1/tau and the eight
theta transformation laws are verified numerically to a requested
tolerance, relative to the size of the terms each evaluation sums or
multiplies.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction

from .core.laurent import Z, LaurentPoly
from .core.qseries import RATIONAL, Z_RING, QSeries, _check_order, _check_tau, complex_eval
from .errors import NumericOverflow

# the default truncation orders of the numeric theta and modular-form
# evaluations and checks, and the checks' tolerances: the CLI's defaults too
THETA_ORDER = 40
MODFORM_ORDER = 60
THETA_TOL = 1e-9
MODFORM_TOL = 1e-8

# (trig prefactor, z-sign of the paired factors, half-integer offset)
_THETA_SHAPE = {
    "theta": ("sin", -1, False),
    "theta1": ("cos", +1, False),
    "theta2": (None, -1, True),
    "theta3": (None, +1, True),
}
THETA_KINDS = tuple(_THETA_SHAPE)

# each kind's laws (verify_theta_transforms):
# (T-partner, T-phase, S-partner, extra S-factor)
_THETA_LAWS = {
    "theta": ("theta", cmath.exp(1j * cmath.pi / 4), "theta", 1 / 1j),
    "theta1": ("theta1", cmath.exp(1j * cmath.pi / 4), "theta2", 1.0),
    "theta2": ("theta3", 1.0, "theta1", 1.0),
    "theta3": ("theta2", 1.0, "theta3", 1.0),
}


# formal expansion: prefactor q^prefactor_exponent * trig * series
ThetaExpansion = namedtuple("ThetaExpansion", "kind prefactor_exponent trig series z_order")


def theta_qexp(kind: str, n_q: int, n_z: int | None = None) -> ThetaExpansion:
    """Expansion of a theta function to q^n_q, keeping only z^e with |e| <= n_z.

    With s the kind's z-sign, Jacobi's triple product gives each nonzero
    grade in closed form (h counts half powers of q):
      theta2, theta3:  h = k^2,       s^k (z^k + z^-k), or 1 at k = 0;
      theta, theta1:   h = k (k+1),   (-1)^k sum_(|e| <= k) (-s)^e z^e.
    n_z defaults to n_q and must not be negative.
    """
    if kind not in _THETA_SHAPE:
        raise ValueError(f"unknown theta kind {kind!r}")
    if n_z is None:
        n_z = n_q
    if n_z < 0:
        raise ValueError(f"z-order must be non-negative, got {n_z}")
    trig, sign, half_offset = _THETA_SHAPE[kind]
    series = QSeries(Z_RING, n_q)
    for k in range(2 * n_q + 1):
        h = k * k if half_offset else k * (k + 1)
        if h > 2 * n_q:
            break
        if half_offset:
            grade = {e: sign ** k for e in (k, -k) if k <= n_z}
        else:
            r = min(k, n_z)
            grade = {e: (-1) ** k * (-sign) ** abs(e) for e in range(-r, r + 1)}
        series.coeffs[h] = LaurentPoly(grade, Z)
    pref = Fraction(1, 8) if kind in ("theta", "theta1") else Fraction(0)
    return ThetaExpansion(kind, pref, trig, series, n_z)


def theta_eval(kind: str, v: complex, tau: complex, N: int = THETA_ORDER) -> tuple[complex, float]:
    """Numeric theta value from the infinite product, truncated at j <= N,
    and its scale: the same product over absolute values,
    |pref| prod_j |1 - q^j| (1 + |z q_h|) (1 + |q_h / z|).

    The scale bounds every partial product, so it sets the size of the
    rounding error even where the value itself cancels to zero.
    """
    if kind not in _THETA_SHAPE:
        raise ValueError(f"unknown theta kind {kind!r}")
    _check_order(N)
    _check_tau(tau)
    trig, sign, half_offset = _THETA_SHAPE[kind]
    q = cmath.exp(2j * cmath.pi * tau)
    z = cmath.exp(2j * cmath.pi * v)
    pref = (2 * cmath.exp(2j * cmath.pi * tau / 8) * getattr(cmath, trig)(cmath.pi * v)
            if trig else 1.0)
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


def verify_theta_transforms(v: complex, tau: complex, N: int = THETA_ORDER,
                            tol: float = THETA_TOL) -> dict:
    """Residuals of the eight T- and S-transformation laws.

    T-laws: theta and theta1 pick up e^(pi i / 4) under tau -> tau + 1,
    while theta2 and theta3 swap.  S-laws relate each value at -1/tau to
    a partner at tau through the factor (tau/i)^(1/2) e^(pi i tau v^2),
    with an extra 1/i for theta.  Square roots use the principal branch.
    """
    _check_order(N)
    _check_tau(tau)
    _check_tau(-1 / tau, image=True)

    def sides():
        out = {}
        for kind, (t_partner, t_phase, s_partner, extra) in _THETA_LAWS.items():
            out[f"{kind}_T"] = (theta_eval(kind, v, tau + 1, N),
                                _times(t_phase, theta_eval(t_partner, v, tau, N)))
            out[f"{kind}_S"] = (theta_eval(kind, v, -1 / tau, N),
                                _times(extra * _s_factor(tau, v),
                                       theta_eval(s_partner, tau * v, tau, N)))
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

ModFormSeries = namedtuple("ModFormSeries", "name series weight group")


def _divisor_table(top: int) -> list[list[int]]:
    """Row n, n = 0..top, lists the divisors of n in ascending order."""
    rows = [[] for _ in range(top + 1)]
    for d in range(1, top + 1):
        for row in rows[d::d]:
            row.append(d)
    return rows


# name: (weight, group, constant term, half-unit step, coefficient of
#        q^(step n / 2) from n and the divisors of n)
_MODFORMS = {
    "delta1": (2, "Gamma_0(2)", Fraction(1, 4), 2, lambda n, ds: 6 * sum(d for d in ds if d % 2)),
    "eps1": (4, "Gamma_0(2)", Fraction(1, 16), 2, lambda n, ds: sum((-1) ** d * d ** 3 for d in ds)),
    "delta2": (2, "Gamma^0(2)", Fraction(-1, 8), 1, lambda n, ds: -3 * sum(d for d in ds if d % 2)),
    "eps2": (4, "Gamma^0(2)", 0, 1, lambda n, ds: sum(d ** 3 for d in ds if n // d % 2)),
}
MODFORM_NAMES = tuple(_MODFORMS)


def modform_qexp(name: str, N: int = 10) -> ModFormSeries:
    """Exact q-expansion by direct divisor sums.

    delta1 = 1/4 + 6 sum_{n, d|n odd} d q^n          (weight 2)
    eps1   = 1/16 + sum_{n, d|n} (-1)^d d^3 q^n      (weight 4)
    delta2 = -1/8 - 3 sum_{n, d|n odd} d q^(n/2)     (weight 2)
    eps2   = sum_{n, d|n, n/d odd} d^3 q^(n/2)       (weight 4)
    """
    if name not in _MODFORMS:
        raise ValueError(f"unknown modular form {name!r}")
    weight, group, constant, step, coefficient = _MODFORMS[name]
    s = QSeries(RATIONAL, N)
    s.coeffs[0] = constant
    for n, ds in enumerate(_divisor_table(2 * N // step)[1:], 1):
        s.coeffs[step * n] = coefficient(n, ds)
    return ModFormSeries(name, s, weight, group)


def modform_eval(name: str, tau: complex, N: int = MODFORM_ORDER) -> complex:
    return complex_eval(modform_qexp(name, N).series, tau)[0]


def verify_modform_transforms(tau: complex, N: int = MODFORM_ORDER, tol: float = MODFORM_TOL) -> dict:
    """Residuals of delta2(-1/tau) = tau^2 delta1(tau) and
    eps2(-1/tau) = tau^4 eps1(tau), both sides summed as q-expansions."""
    _check_order(N)
    _check_tau(tau)
    inv = -1 / tau
    _check_tau(inv, image=True)

    def side(name, t):
        return complex_eval(modform_qexp(name, N).series, t)

    return _report(lambda: {
        "delta2_S": (side("delta2", inv), _times(tau ** 2, side("delta1", tau))),
        "eps2_S": (side("eps2", inv), _times(tau ** 4, side("eps1", tau))),
    }, tol)
