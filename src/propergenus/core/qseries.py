"""Truncated formal power series in q^(1/2) over a pluggable exact ring.

Grades are stored internally in half-integer units: index h of the
coefficient array is the coefficient of q^(h/2), for h = 0..2N where N
is the truncation order in whole powers of q.  Series with only whole
powers simply have zero odd entries.  All operations are pure; values
are immutable after construction and safe to share.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
import sys
from fractions import Fraction
from math import gcd
from operator import itemgetter

from ..errors import (
    GradeOutOfRange,
    NonIntegral,
    NonUnitConstantTerm,
    NotUpperHalfPlane,
    RingMismatch,
)
from .laurent import LAMBDA, MU, Z, LaurentPoly, normalize_scalar, scalar_to_str


class RationalRing:
    """Coefficient ring tag for exact rationals (int or Fraction); 0 is falsy."""

    name = "rational"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return normalize_scalar(x)
        raise TypeError(f"cannot coerce {x!r} into the rational ring")

    def invert(self, x):
        if x == 0:
            raise NonUnitConstantTerm("zero is not invertible")
        return normalize_scalar(Fraction(1, 1) / x)

    def to_json(self, x) -> str:
        return scalar_to_str(x)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalRing()"


class LaurentRing:
    """Coefficient ring tag for Laurent polynomials in one variable; 0 is falsy."""

    def __init__(self, var: str):
        self.var = var
        self.name = f"laurent[{var}]"

    def zero(self):
        return LaurentPoly.zero(self.var)

    def one(self):
        return LaurentPoly.constant(1, self.var)

    def coerce(self, x):
        if isinstance(x, LaurentPoly):
            if x.var != self.var:
                raise RingMismatch(f"Laurent variable {x.var!r} != {self.var!r}")
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.constant(x, self.var)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def invert(self, x):
        return x.inverse_if_unit()

    def to_json(self, x):
        return x.to_json()

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentRing) and self.var == other.var

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"LaurentRing({self.var!r})"


RATIONAL = RationalRing()
LAMBDA_RING = LaurentRing(LAMBDA)
MU_RING = LaurentRing(MU)
Z_RING = LaurentRing(Z)


def half_units(grade) -> int:
    """Convert a grade (int, Fraction, or float multiple of 1/2) to half units."""
    h = Fraction(grade) * 2
    if h.denominator != 1:
        raise ValueError(f"grade {grade} is not a half-integer")
    return int(h)


class QSeries:
    """Truncated series sum_h c_h q^(h/2), h = 0..2N."""

    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring, trunc: int, coeffs=None):
        if trunc < 1:
            raise ValueError("truncation order must be a positive integer")
        self.ring = ring
        self.trunc = trunc
        n = 2 * trunc + 1
        if coeffs is None:
            self.coeffs = [ring.zero()] * n
        else:
            coeffs = [ring.coerce(c) for c in coeffs]
            if len(coeffs) < n:
                coeffs += [ring.zero()] * (n - len(coeffs))
            self.coeffs = coeffs[:n]

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring, trunc: int) -> "QSeries":
        s = cls(ring, trunc)
        s.coeffs[0] = ring.one()
        return s

    @classmethod
    def from_terms(cls, ring, trunc: int, terms: dict) -> "QSeries":
        s = cls(ring, trunc)
        for grade, c in terms.items():
            h = half_units(grade)
            if 0 <= h <= 2 * trunc:
                s.coeffs[h] = ring.coerce(c)
        return s

    # -- queries ----------------------------------------------------------

    def coefficient(self, grade):
        h = half_units(grade)
        if h < 0 or h > 2 * self.trunc:
            raise GradeOutOfRange(f"grade {grade} exceeds truncation {self.trunc}")
        return self.coeffs[h]

    def nonzero_terms(self):
        for h, c in enumerate(self.coeffs):
            if c:
                yield Fraction(h, 2), c

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSeries)
            and self.ring == other.ring
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def _check(self, other: "QSeries"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring.name} vs {other.ring.name}")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "QSeries") -> "QSeries":
        self._check(other)
        n = min(self.trunc, other.trunc)
        return QSeries(
            self.ring, n,
            [a + b for a, b in zip(self.coeffs[: 2 * n + 1], other.coeffs[: 2 * n + 1])],
        )

    def __neg__(self) -> "QSeries":
        return QSeries(self.ring, self.trunc, [-c for c in self.coeffs])

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def __mul__(self, other) -> "QSeries":
        if not isinstance(other, QSeries):
            return self.scale(other)
        self._check(other)
        n = min(self.trunc, other.trunc)
        top = 2 * n
        out = [self.ring.zero()] * (top + 1)
        a_nz = [(h, c) for h, c in enumerate(self.coeffs[: top + 1]) if c]
        b_nz = [(h, c) for h, c in enumerate(other.coeffs[: top + 1]) if c]
        if len(a_nz) > len(b_nz):
            a_nz, b_nz = b_nz, a_nz
        for ha, ca in a_nz:
            room = top - ha
            for hb, cb in b_nz:
                if hb > room:
                    break
                out[ha + hb] = out[ha + hb] + ca * cb
        return QSeries(self.ring, n, out)

    __rmul__ = __mul__

    def scale(self, c) -> "QSeries":
        c = self.ring.coerce(c) if not isinstance(c, (int, Fraction)) else c
        return QSeries(self.ring, self.trunc, [a * c for a in self.coeffs])

    def __pow__(self, n: int) -> "QSeries":
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return QSeries.one(self.ring, self.trunc)
        if n == 1:
            return self
        half = self ** (n // 2)
        square = half * half
        return square * self if n & 1 else square

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be a unit."""
        b0 = self.ring.invert(self.coeffs[0])
        top = 2 * self.trunc
        out = [self.ring.zero()] * (top + 1)
        out[0] = b0
        a = self.coeffs
        for h in range(1, top + 1):
            acc = self.ring.zero()
            for k in range(1, h + 1):
                if a[k]:
                    acc = acc + a[k] * out[h - k]
            out[h] = -(b0 * acc)
        return QSeries(self.ring, self.trunc, out)

    def exp(self) -> "QSeries":
        """Exponential of a series with zero constant term.

        f = exp(g) solves x f' = x g' f in x = q^(1/2), which is the
        recurrence h f_h = sum_k k g_k f_(h-k) (Brent and Kung, 1978).
        """
        ring = self.ring
        if self.coeffs[0]:
            raise ValueError("exp requires vanishing constant term")
        weighted = [(k, g * k) for k, g in enumerate(self.coeffs) if k and g]
        out = [ring.one()]
        for h in range(1, 2 * self.trunc + 1):
            acc = ring.zero()
            for k, kg in weighted:
                if k > h:
                    break
                f = out[h - k]
                if f:
                    acc = acc + kg * f
            out.append(acc * Fraction(1, h))
        return QSeries(ring, self.trunc, out)

    def map_coefficients(self, fn, ring=None) -> "QSeries":
        ring = ring or self.ring
        return QSeries(ring, self.trunc, [fn(c) for c in self.coeffs])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "truncation": self.trunc,
            "terms": [
                {"grade": str(Fraction(h, 2)), "coeff": self.ring.to_json(c)}
                for h, c in enumerate(self.coeffs)
            ],
        }

    def __str__(self) -> str:
        parts = []
        for h, c in enumerate(self.coeffs):
            if not c:
                continue
            g = Fraction(h, 2)
            c_str = str(c)
            if "+" in c_str or "-" in c_str[1:]:
                c_str = f"({c_str})"
            parts.append(c_str if h == 0 else f"{c_str}*q^{g}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.trunc + Fraction(1, 2)})"

    __repr__ = __str__


# memoryview (and struct) formats of the digit widths that one cast can read
_DIGIT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


def _width(bound: int) -> int:
    """The narrowest packed digit width B whose balanced digits hold every
    |c| <= bound, that is bound < 2^(B-1): 8, 16, 32 or 64, which one cast
    reads, or else a whole number of bytes."""
    bits = bound.bit_length() + 1
    return next((b for b in _DIGIT_FORMATS if b >= bits), -(-bits // 8) * 8)


@functools.lru_cache(maxsize=256)
def _half(B: int, n: int) -> int:
    """2^(B-1) in each of n digits of width B.  Adding it biases every
    balanced digit c to c + 2^(B-1) >= 0, so no digit borrows from the
    next one."""
    return int.from_bytes((bytes(B // 8 - 1) + b"\x80") * n, "little")


def _pack(poly: LaurentPoly, B: int, lo: int, step: int = 1) -> int:
    """The value of ``poly`` at x = 2^B, its exponent e at digit
    (e - lo) / step: sum_e c_e 2^(B (e - lo) / step).

    Every exponent is at least ``lo`` and congruent to it mod ``step``,
    and every |c_e| < 2^(B-1).  This is the one Kronecker layout of the
    package (Schoenhage 1982; von zur Gathen and Gerhard, Modern Computer
    Algebra, 8.4): the digits are laid out in two's complement, and the
    inverse of the bias step of :func:`_unpack` turns that into the
    signed value.
    """
    if not poly.coeffs:
        return 0
    n = (max(poly.coeffs) - lo) // step + 1
    digits = [0] * n
    for e, c in poly.coeffs.items():
        digits[(e - lo) // step] = c
    fmt = _DIGIT_FORMATS.get(B)
    if fmt:
        raw = struct.pack(f"<{n}{fmt}", *digits)
    else:
        raw = b"".join(d.to_bytes(B // 8, "little", signed=True) for d in digits)
    half = _half(B, n)
    return (int.from_bytes(raw, "little") ^ half) - half


def _unpack(value: int, B: int, lo: int, n: int, var: str, step: int = 1) -> LaurentPoly:
    """The inverse of :func:`_pack`: the Laurent polynomial in ``var``
    whose n balanced base-2^B digits, lowest first, are those of
    ``value``, digit i at exponent lo + step i.

    Adding the bias and flipping the top bit of each biased digit leaves
    c in two's complement, which one memoryview cast reads when B is 8,
    16, 32 or 64 (byte slices otherwise), and the zeros drop in C.
    Raises OverflowError when ``value`` has no n-digit balanced form.
    """
    half = _half(B, n)
    nbytes = B // 8
    raw = ((value + half) ^ half).to_bytes(nbytes * n, "little")
    fmt = _DIGIT_FORMATS.get(B)
    if fmt:
        digits = memoryview(raw).cast(fmt)
    else:
        digits = [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                  for i in range(0, len(raw), nbytes)]
    exponents = range(lo, lo + step * n, step)
    return LaurentPoly(dict(filter(itemgetter(1), zip(exponents, digits))), var)


def _convolve(rows, c, h: int, shift: int):
    """rows[k] += sum_(j >= 1) c_j (rows[k - j h] << j shift), k downwards."""
    for k in range(len(rows) - 1, h - 1, -1):
        acc = rows[k]
        for j in range(1, min(k // h, len(c) - 1) + 1):
            src = rows[k - j * h]
            if src:
                acc += c[j] * (src << j * shift)
        rows[k] = acc


def _apply(rows, s: int, h: int, divide: bool, mult: int, shift: int = 0):
    """Multiply rows (row k the coefficient of q^(k/2)) by (1 + s y)^mult,
    or divide them by (1 - s y)^mult, with y = q^(h/2) 2^shift.

    A multiplicity that the truncation does not cut is applied one unit
    at a time, k downwards to multiply and upwards to divide, one shift
    and one add per row.  A larger one is one pass of its binomial
    series cut at y^n, binom(mult + j - 1, j) s^j to divide and
    binom(mult, j) s^j to multiply: mult = 10^6 costs what mult = n does.
    """
    top = len(rows) - 1
    n = top // h
    if mult > n:
        c = [1]
        for j in range(1, n + 1):
            c.append(c[-1] * s * (mult + j - 1 if divide else mult - j + 1) // j)
        _convolve(rows, c, h, shift)
        return
    for _ in range(mult):
        for k in range(h, top + 1) if divide else range(top, h - 1, -1):
            src = rows[k - h]
            if not src:
                continue
            src <<= shift
            if s == 1:  # the common s = +-1 needs no multiplication
                rows[k] += src
            elif s == -1:
                rows[k] -= src
            else:
                rows[k] += s * src


def _binomial_product(ring: LaurentRing, trunc: int, factors, start: QSeries | None = None) -> QSeries:
    """The product of binomial factors over a Laurent ring, built in place.

    Each factor ``(s, w, h, divide, mult)`` multiplies the running
    product by (1 + s x^w q^(h/2))^mult or, when ``divide``, divides it
    by (1 - s x^w q^(h/2))^mult, with h >= 1.  The product starts from
    ``start`` (integer Laurent coefficients), by default 1.

    The factors with w = 0 carry no x: they multiply out first, on plain
    ints, into the scalar start ``base``, and base times the start is
    packed as the starting rows.  Row k, the coefficient of q^(k/2), is
    one int R_k = sum_e c_e 2^(B (e/g + r + m k)), the :func:`_pack` of
    that coefficient at lo = -g (r + m k) and step g: g is the gcd of the
    weights and of the start's exponents, m = max|w|/g, r = max|e|/g over
    the start, and B is the digit width in bits.  Row k only reaches
    |e/g| <= r + m k, so its digits sit at 0..2(r + m k).
    A weighted factor is ``R_k += s (R_(k-h) << B (w/g + m h))`` for k
    downwards, or upwards to divide, or one binomial series per row
    (:func:`_apply`); the shift is never negative.

    Evaluation at 2^B is a ring map and Python ints do not overflow, so
    the rows are exact as long as the final digits satisfy |c| < 2^(B-1).
    B comes from a proven bound, since the l1 norm of a product is at most
    the convolution of its factors' l1 norms: the majorant M_k starts
    from the start rows' l1 norms convolved with |base| (exactly |base_k|
    without a start) and runs the weighted factors on scalars with |s|.
    So B = :func:`_width` (max M_k) never overflows.  The product is exact
    to q^trunc: no exponent of x is dropped.  Each row is unpacked once,
    by :func:`_unpack`.
    """
    top = 2 * trunc
    base = [1] + [0] * top
    weighted = []
    for f in factors:
        if f[2] <= top:
            if f[1]:
                weighted.append(f)
            else:
                _apply(base, f[0], f[2], f[3], f[4])
    g = 0
    for f in weighted:
        g = gcd(g, f[1])
    if start is not None:
        if start.ring != ring:
            raise RingMismatch(f"{start.ring.name} vs {ring.name}")
        start = start.coeffs[:top + 1]
        for row in start:
            g = gcd(g, *row.coeffs)
    g = g or 1
    m = max((abs(f[1]) for f in weighted), default=0) // g
    r = max((abs(e) for row in start for e in row.coeffs), default=0) // g if start else 0

    if start is None:
        majorant = list(map(abs, base))
    else:
        majorant = [sum(map(abs, row.coeffs.values())) for row in start]
        if not all(type(n) is int for n in majorant):  # a Fraction makes its norm one
            raise NonIntegral("a start coefficient is not integral")
        _convolve(majorant, list(map(abs, base)), 1, 0)
    for s, _, h, divide, mult in weighted:
        _apply(majorant, abs(s), h, divide, mult)
    B = _width(max(majorant))

    if start is None:
        rows = [b << B * m * k for k, b in enumerate(base)]
    else:
        rows = [_pack(row, B, -g * r, g) << B * m * k for k, row in enumerate(start)]
        _convolve(rows, base, 1, B * m)
    for s, w, h, divide, mult in weighted:
        _apply(rows, s, h, divide, mult, B * (w // g + m * h))
    return QSeries(ring, trunc, [_unpack(row, B, -g * (r + m * k), 2 * (r + m * k) + 1, ring.var, g)
                                 for k, row in enumerate(rows)])


def _check_tau(tau: complex, name: str = "tau"):
    """Refuse tau outside the upper half-plane, and tau so close to the
    real axis that |q|^(1/2) = exp(-pi Im tau) rounds to 1.  The message
    calls the point ``name``, say -1/tau for an S-image."""
    tau = complex(tau)
    if tau.imag <= 0:
        raise NotUpperHalfPlane(f"{name} = {tau} is not in the upper half-plane")
    if math.exp(-math.pi * tau.imag) == 1.0:
        raise NotUpperHalfPlane(f"{name} = {tau} is so close to the real axis "
                                "that |q|^(1/2) rounds to 1")


def complex_eval(series: QSeries, tau: complex) -> tuple[complex, float]:
    """Evaluate a rational-coefficient series at q = exp(2 pi i tau).

    Returns the value and its scale sum_h |c_h| |q|^(h/2), the size of
    the terms summed, which sets the size of the rounding error.
    """
    _check_tau(tau)
    if not isinstance(series.ring, RationalRing):
        raise RingMismatch("complex_eval needs a rational-coefficient series")
    value = 0j
    scale = 0.0
    for h, c in enumerate(series.coeffs):
        if c != 0:
            term = float(c) * cmath.exp(2j * cmath.pi * tau * (h / 2.0))
            value += term
            scale += abs(term)
    return value, scale
