"""Truncated formal power series in q^(1/2) over a pluggable exact ring.

Grades are stored internally in half-integer units: index h of the
coefficient array is the coefficient of q^(h/2), for h = 0..2N where N
is the truncation order in whole powers of q.  Series with only whole
powers simply have zero odd entries.  All operations are pure; values
are immutable after construction and safe to share.
"""

from __future__ import annotations

import cmath
import sys
from fractions import Fraction
from math import gcd
from operator import itemgetter

from ..errors import (
    GradeOutOfRange,
    NonUnitConstantTerm,
    NotUpperHalfPlane,
    RingMismatch,
)
from .laurent import LaurentPoly, normalize_scalar, scalar_from_str, scalar_to_str


class RationalRing:
    """Coefficient ring tag for exact rationals (int or Fraction)."""

    name = "rational"

    def zero(self):
        return 0

    def one(self):
        return 1

    def coerce(self, x):
        if isinstance(x, (int, Fraction)):
            return normalize_scalar(x)
        raise TypeError(f"cannot coerce {x!r} into the rational ring")

    def is_zero(self, x) -> bool:
        return x == 0

    def invert(self, x):
        if x == 0:
            raise NonUnitConstantTerm("zero is not invertible")
        return normalize_scalar(Fraction(1, 1) / x)

    def to_json(self, x) -> str:
        return scalar_to_str(x)

    def from_json(self, s):
        return scalar_from_str(s)

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalRing)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalRing()"


class LaurentRing:
    """Coefficient ring tag for Laurent polynomials in a fixed variable."""

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

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def invert(self, x):
        return x.inverse_if_unit()

    def to_json(self, x):
        return x.to_json()

    def from_json(self, obj):
        return LaurentPoly.from_json(obj, self.var)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentRing) and self.var == other.var

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return f"LaurentRing({self.var!r})"


RATIONAL = RationalRing()
LAMBDA_RING = LaurentRing("lam")
MU_RING = LaurentRing("mu")
Z_RING = LaurentRing("z")


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
    def zeros(cls, ring, trunc: int) -> "QSeries":
        return cls(ring, trunc)

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

    @classmethod
    def monomial(cls, ring, trunc: int, grade, c) -> "QSeries":
        return cls.from_terms(ring, trunc, {grade: c})

    # -- queries ----------------------------------------------------------

    def coefficient(self, grade):
        h = half_units(grade)
        if h < 0 or h > 2 * self.trunc:
            raise GradeOutOfRange(f"grade {grade} exceeds truncation {self.trunc}")
        return self.coeffs[h]

    def nonzero_terms(self):
        for h, c in enumerate(self.coeffs):
            if not self.ring.is_zero(c):
                yield Fraction(h, 2), c

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(c) for c in self.coeffs)

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
        a_nz = [(h, c) for h, c in enumerate(self.coeffs[: top + 1]) if not self.ring.is_zero(c)]
        b_nz = [(h, c) for h, c in enumerate(other.coeffs[: top + 1]) if not other.ring.is_zero(c)]
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
        result = QSeries.one(self.ring, self.trunc)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
                if not self.ring.is_zero(a[k]):
                    acc = acc + a[k] * out[h - k]
            out[h] = -(b0 * acc)
        return QSeries(self.ring, self.trunc, out)

    def exp(self) -> "QSeries":
        """Exponential of a series with zero constant term.

        f = exp(g) solves x f' = x g' f in x = q^(1/2), which is the
        recurrence h f_h = sum_k k g_k f_(h-k) (Brent and Kung, 1978).
        """
        ring = self.ring
        if not ring.is_zero(self.coeffs[0]):
            raise ValueError("exp requires vanishing constant term")
        weighted = [(k, g * k) for k, g in enumerate(self.coeffs) if k and not ring.is_zero(g)]
        out = [ring.one()]
        for h in range(1, 2 * self.trunc + 1):
            acc = ring.zero()
            for k, kg in weighted:
                if k > h:
                    break
                f = out[h - k]
                if not ring.is_zero(f):
                    acc = acc + kg * f
            out.append(acc * Fraction(1, h))
        return QSeries(ring, self.trunc, out)

    def map_coefficients(self, fn, ring=None) -> "QSeries":
        ring = ring or self.ring
        return QSeries(ring, self.trunc, [fn(c) for c in self.coeffs])

    def truncate(self, n: int) -> "QSeries":
        if n > self.trunc:
            raise GradeOutOfRange(f"cannot extend truncation {self.trunc} to {n}")
        return QSeries(self.ring, n, self.coeffs[: 2 * n + 1])

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "truncation": self.trunc,
            "terms": [
                {"grade": str(Fraction(h, 2)), "coeff": self.ring.to_json(c)}
                for h, c in enumerate(self.coeffs)
            ],
        }

    @classmethod
    def from_json(cls, obj: dict, ring) -> "QSeries":
        s = cls(ring, int(obj["truncation"]))
        for term in obj["terms"]:
            h = half_units(Fraction(term["grade"]))
            s.coeffs[h] = ring.from_json(term["coeff"])
        return s

    def __str__(self) -> str:
        parts = []
        for h, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            g = Fraction(h, 2)
            c_str = str(c)
            if "+" in c_str or "-" in c_str[1:]:
                c_str = f"({c_str})"
            parts.append(c_str if h == 0 else f"{c_str}*q^{g}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(q^{self.trunc + Fraction(1, 2)})"

    __repr__ = __str__


# memoryview formats of the digit widths that one cast can read
_DIGIT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


def _binomial_product(ring: LaurentRing, trunc: int, factors, bound: int | None = None) -> QSeries:
    """The product of binomial factors over a Laurent ring, built in place.

    Each factor ``(s, w, h, divide)`` multiplies the running product by
    1 + s x^w q^(h/2) or, when ``divide``, divides it by 1 - s x^w q^(h/2),
    with h >= 1.  Row k of the product, the coefficient of q^(k/2), is
    one Kronecker-packed int R_k = sum_e c_e 2^(B (e/g + m k)): g is the
    gcd of the weights, m = max|w|/g, and B is the digit width in bits.
    A grade-k row only reaches |e/g| <= m k, so its digits sit at
    0..2mk.  Multiplying is ``R_k += s (R_(k-h) << B (w/g + m h))`` for
    k downwards, dividing the same update for k upwards; the shift is
    never negative.

    Evaluation at 2^B is a ring map, so the packed update is exact as
    long as the digits read back satisfy |c| < 2^(B-1).  B comes from a
    proven bound: the same recurrence on scalars with |s| (x = 1) gives
    M_k, which bounds the l1 norm of row k of the product, of every
    partial product and of every halfway state of an update.  So
    B = bits(max M_k) + 1, rounded up to whole bytes, never overflows.

    With ``bound`` >= 0, every row is clamped to |e| <= bound after each
    update, the initial 1 included, exactly as if each partial product
    were clamped: the digits outside the window are masked off in
    biased form, where every digit is c + 2^(B-1) >= 0.  A bound >=
    max|w| 2 trunc can never clip and is ignored.

    The rows are unpacked once at the end: flipping the top bit of each
    biased digit leaves c in two's complement, which one memoryview cast
    reads when B is 8, 16, 32 or 64 (byte slices otherwise).
    """
    top = 2 * trunc
    factors = [f for f in factors if f[2] <= top]
    g = 0
    for f in factors:
        g = gcd(g, f[1])
    g = g or 1
    m = max((abs(f[1]) for f in factors), default=0) // g

    majorant = [1] + [0] * top
    for s, _, h, divide in factors:
        a = abs(s)
        for k in range(h, top + 1) if divide else range(top, h - 1, -1):
            majorant[k] += a * majorant[k - h]
    width = max(majorant).bit_length() + 1
    B = next((b for b in _DIGIT_FORMATS if b >= width), -(-width // 8) * 8)
    # 2^(B-1) in every digit of the widest row; adding it biases every
    # digit to c + 2^(B-1) >= 0, so no digit borrows from the next one
    half = ((1 << (B * (2 * m * top + 1))) - 1) // ((1 << B) - 1) << (B - 1)

    windows = None
    if bound is not None and bound < g * m * top:
        b = bound // g
        windows = []
        for k in range(top + 1):
            lo, hi = max(m * k - b, 0), min(m * k + b, 2 * m * k)
            window = ((1 << (B * (hi - lo + 1))) - 1) << (B * lo)
            windows.append((window, half & window))

    rows = [1] + [0] * top
    for s, w, h, divide in factors:
        shift = B * (w // g + m * h)
        for k in range(h, top + 1) if divide else range(top, h - 1, -1):
            src = rows[k - h]
            if not src:
                continue
            src <<= shift
            if s == 1:  # the common s = +-1 needs no multiplication
                row = rows[k] + src
            elif s == -1:
                row = rows[k] - src
            else:
                row = rows[k] + s * src
            if windows:
                window, window_half = windows[k]
                row = ((row + half) & window) - window_half
            rows[k] = row

    fmt = _DIGIT_FORMATS.get(B)
    nbytes = B // 8
    out = []
    for k, row in enumerate(rows):
        raw = ((row + half) ^ half).to_bytes(nbytes * (2 * m * k + 1), "little")
        if fmt:
            coeffs = memoryview(raw).cast(fmt)
        else:
            coeffs = [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                      for i in range(0, len(raw), nbytes)]
        exponents = range(-g * m * k, g * m * k + 1, g)
        out.append(LaurentPoly(dict(filter(itemgetter(1), zip(exponents, coeffs))), ring.var))
    return QSeries(ring, trunc, out)


def complex_eval(series: QSeries, tau: complex) -> tuple[complex, float]:
    """Evaluate a rational-coefficient series at q = exp(2 pi i tau).

    Returns the value and a tail-bound estimate
    |q|^(N + 1/2) / (1 - |q|^(1/2)) scaled by the magnitude of the
    largest recent coefficient (a heuristic for the dropped tail).
    """
    if tau.imag <= 0:
        raise NotUpperHalfPlane(f"tau = {tau} is not in the upper half-plane")
    if not isinstance(series.ring, RationalRing):
        raise RingMismatch("complex_eval needs a rational-coefficient series")
    value = 0j
    for h, c in enumerate(series.coeffs):
        if c != 0:
            value += float(c) * cmath.exp(2j * cmath.pi * tau * (h / 2.0))
    absq_half = abs(cmath.exp(1j * cmath.pi * tau))
    top = [abs(float(c)) for c in series.coeffs[-(series.trunc + 1):]]
    scale = max(top) if top and max(top) > 0 else 1.0
    tail = scale * absq_half ** (2 * series.trunc + 1) / (1.0 - absq_half)
    return value, tail
