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
from fractions import Fraction
from itertools import count
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


def _check_order(trunc: int):
    if trunc < 1:
        raise ValueError("truncation order must be a positive integer")


class QSeries:
    """Truncated series sum_h c_h q^(h/2), h = 0..2N."""

    __slots__ = ("ring", "trunc", "coeffs")

    def __init__(self, ring, trunc: int, coeffs=None):
        _check_order(trunc)
        self.ring = ring
        self.trunc = trunc
        n = 2 * trunc + 1
        coeffs = [ring.coerce(c) for c in coeffs or ()][:n]
        self.coeffs = coeffs + [ring.zero()] * (n - len(coeffs))

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, ring, trunc: int) -> "QSeries":
        return cls(ring, trunc, [ring.one()])

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
        """One sparse convolution of the nonzero coefficients."""
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


class PackedSeries(QSeries):
    """A series over a Laurent ring held as packed rows, the layout of
    :func:`_binomial_product`, which returns one.

    ``packed`` = (rows, B, g, r, m, d): row k is the coefficient of
    q^(d k/2), one int whose balanced base-2^B digit e/g + r + m k holds
    the coefficient of x^e, and every grade off the lattice is zero.  The
    coefficients unpack on their first read, so a reader of the rows
    alone, such as the Laurent certificate of ``lefschetz``, never
    unpacks them.
    """

    __slots__ = ("packed",)

    def __init__(self, ring, trunc: int, packed: tuple):
        self.ring, self.trunc, self.packed = ring, trunc, packed

    def __getattr__(self, name):
        # reached only while the slot ``coeffs`` is unset
        if name != "coeffs":
            raise AttributeError(name)
        rows, B, g, r, m, d = self.packed
        coeffs = [self.ring.zero()] * (2 * self.trunc + 1)
        coeffs[::d] = [_unpack(row, B, -g * (r + m * k), self.ring.var, g) for k, row in enumerate(rows)]
        self.coeffs = coeffs
        return coeffs

    def spans(self) -> list:
        """(h, k, lo, l1) of every nonzero row k: its grade h in half units,
        its lowest exponent of x and the l1 norm of its coefficients, read
        from its digits (:func:`_span`)."""
        rows, B, g, r, m, d = self.packed
        out = []
        for k, row in enumerate(rows):
            if row:
                first, l1 = _span(row, B)
                out.append((d * k, k, g * (first - r - m * k), l1))
        return out

    def row(self, k: int, lo: int, B: int) -> int:
        """Row k at x = 2^B with exponent e at digit e - lo, for lo at most
        every exponent of the row.  A row of another width or step is
        re-laid by byte copies (:func:`_relay`): exponent e moves from
        digit e/g + r + m k to digit e + g (r + m k), exact when every
        coefficient fits a balanced base-2^B digit.  Then one shift, exact
        to the right too, since every digit it drops is zero."""
        rows, width, g, r, m, _ = self.packed
        row = rows[k] if width == B and g == 1 else _relay(rows[k], width, g, B)
        shift = B * (-lo - g * (r + m * k))
        return row << shift if shift >= 0 else row >> -shift


# struct codes of the digit widths that one format reads, always little-endian
_DIGIT_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"}
# the sign byte of a two's complement digit, from the digit's top byte
_SIGN_BYTES = bytes(0xFF if b & 0x80 else 0 for b in range(256))


def _width(bound: int) -> int:
    """The narrowest packed digit width B whose balanced digits hold every
    |c| <= bound, that is bound < 2^(B-1): 8, 16, 32 or 64, which one
    struct format reads, or else a whole number of bytes."""
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
    Algebra, 8.4): the digits are laid out in two's complement, and
    :func:`_value` turns that into the signed value.  One term is one
    shift.
    """
    if not poly.coeffs:
        return 0
    if len(poly.coeffs) == 1:
        ((e, c),) = poly.coeffs.items()
        return c << B * ((e - lo) // step)
    n = (max(poly.coeffs) - lo) // step + 1
    digits = [0] * n
    for e, c in poly.coeffs.items():
        digits[(e - lo) // step] = c
    fmt = _DIGIT_FORMATS.get(B)
    if fmt:
        raw = struct.pack(f"<{n}{fmt}", *digits)
    else:
        raw = b"".join(d.to_bytes(B // 8, "little", signed=True) for d in digits)
    return _value(raw, B)


def _raw(value: int, B: int) -> bytes:
    """The balanced base-2^B digits of ``value``, lowest first, each in
    two's complement in B/8 bytes: n = bit_length // B + 2 of them, since
    n digits hold every |value| < 2^(B (n - 1)); one fewer may not (32,640
    at B = 8 needs three).  Adding the bias and flipping the top bit of
    each biased digit leaves each digit c in two's complement."""
    n = value.bit_length() // B + 2
    half = _half(B, n)
    return ((value + half) ^ half).to_bytes(B // 8 * n, "little")


def _value(raw, B: int) -> int:
    """The inverse of :func:`_raw`: the value whose balanced base-2^B
    digits are the two's complement digits ``raw``, lowest first."""
    half = _half(B, len(raw) // (B // 8))
    return (int.from_bytes(raw, "little") ^ half) - half


def _read(raw: bytes, B: int):
    """The signed digits of :func:`_raw` bytes, on every host.

    A little-endian struct format reads them when B is 8, 16, 32 or 64.
    Any other width is re-laid onto 64 bits by byte copies
    (:func:`_recast`) when every digit fits, that is when each digit's
    bytes above its eighth repeat the sign of its eighth.  Byte slices
    read the rest.
    """
    nbytes = B // 8
    fmt = _DIGIT_FORMATS.get(B)
    if fmt:
        return struct.unpack(f"<{len(raw) // nbytes}{fmt}", raw)
    if nbytes > 8:
        sign = raw[7::nbytes].translate(_SIGN_BYTES)
        if any(raw[b::nbytes] != sign for b in range(8, nbytes)):
            return [int.from_bytes(raw[i:i + nbytes], "little", signed=True)
                    for i in range(0, len(raw), nbytes)]
    return struct.unpack(f"<{len(raw) // nbytes}q", _recast(raw, nbytes, 8))


def _unpack(value: int, B: int, lo: int, var: str, step: int = 1) -> LaurentPoly:
    """The inverse of :func:`_pack`: the Laurent polynomial in ``var``
    whose coefficients are the balanced base-2^B digits of ``value``
    (:func:`_raw`), digit i at exponent lo + step i.

    The zeros drop in C, so every digit kept is a nonzero int, and the
    result is built without the normalising constructor.
    """
    if not value:
        return LaurentPoly.zero(var)
    poly = LaurentPoly.__new__(LaurentPoly)
    poly.coeffs = dict(filter(itemgetter(1), zip(count(lo, step), _read(_raw(value, B), B))))
    poly.var = var
    return poly


def _span(value: int, B: int) -> tuple[int, int]:
    """(i, l1) of a nonzero ``value`` read as balanced base-2^B digits
    (:func:`_raw`): its lowest nonzero digit i and the l1 norm of its
    digits.  A digit is zero exactly when its two's complement bytes are,
    so stripping zero bytes finds i in C; only digits from i up are read.
    """
    raw = _raw(value, B)
    nbytes = B // 8
    i = (len(raw) - len(raw.lstrip(b"\0"))) // nbytes
    return i, sum(map(abs, _read(raw[i * nbytes:], B)))


def _recast(raw: bytes, old: int, new: int, step: int = 1) -> bytearray:
    """Two's complement digits of ``old`` bytes each as digits of ``new``
    bytes, digit i at digit step i and 0 between.  Each byte column is one
    strided copy in C: a narrower digit keeps its low bytes, exact when
    it fits, and a wider one repeats the sign byte of its top byte."""
    out = bytearray(((len(raw) // old - 1) * step + 1) * new)
    stride = step * new
    for b in range(min(old, new)):
        out[b::stride] = raw[b::old]
    if new > old:
        sign = raw[old - 1::old].translate(_SIGN_BYTES)
        for b in range(old, new):
            out[b::stride] = sign
    return out


def _relay(value: int, B: int, step: int, width: int) -> int:
    """The value whose base-2^width digit step i is balanced base-2^B
    digit i of ``value``, and every other digit 0: :func:`_recast` of its
    two's complement digits (:func:`_raw`).  Exact when every digit fits
    the new width."""
    return _value(_recast(_raw(value, B), B // 8, width // 8, step), width)


def _convolve(rows, c, h: int, shift: int):
    """rows[k] += sum_(j >= 1) c_j (rows[k - j h] << j shift), for every k:
    over the nonzero sources i downwards, c_j (rows[i] << j shift) goes into
    row i + j h.  Only rows below k add into row k, so each source is read
    before anything is added to it, and every sum is of the original rows."""
    top = len(rows) - 1
    for i in range(top - h, -1, -1):
        src = rows[i]
        if src:
            for j in range(1, min((top - i) // h, len(c) - 1) + 1):
                rows[i + j * h] += c[j] * (src << j * shift)


def _apply(rows, s: int, h: int, divide: bool, mult: int, shift: int = 0):
    """Multiply rows (row k the coefficient of u^k, u one step of the
    grade lattice) by (1 + s y)^mult, or divide them by (1 - s y)^mult,
    with s = +-1 and y = u^h 2^shift.

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
            if s > 0:
                rows[k] += src
            else:
                rows[k] -= src


def _triple(rows, s: int, w: int, m: int, B: int, mult: int):
    """Multiply rows (row i the coefficient of q^(i/2)) by
    (sum_k s^k x^(w k) q^(k^2/2))^mult, with s = +-1 and w > 0 in units of
    g, one downward pass per unit of multiplicity.  The terms k = +-j sit
    j^2 rows down, at shifts B (m j^2 -+ w j), so row i adds at most
    2 floor(sqrt(i)) shifted rows, each read before anything is added
    to it."""
    top = len(rows) - 1
    terms = [(j * j, s ** j, B * (m * j * j - w * j), 2 * B * w * j)
             for j in range(1, math.isqrt(top) + 1)]
    for _ in range(mult):
        for i in range(top, 0, -1):
            acc = rows[i]
            for offset, sign, shift, gap in terms:
                if offset > i:
                    break
                src = rows[i - offset]
                if src:
                    src <<= shift
                    src += src << gap
                    acc = acc + src if sign > 0 else acc - src
            rows[i] = acc


@functools.lru_cache(maxsize=256)
def _scalars(powers: tuple, c0: int, plus: int, minus: int, jtp: int, norms: tuple, top: int) -> tuple:
    """(base, d, M), the scalar part of :func:`_binomial_product`, one
    pass per distinct input; no exponent of x enters, so the twists at
    all fixed points of one call share one entry.

    The weight-0 line c0 gives every power (h, sign, exterior) one factor
    of :func:`_apply`, multiplied out on plain ints at the half-grades
    0..top.  d is the gcd of every h when a line is weighted (``plus`` or
    ``minus`` is not 0), of every index of a nonzero entry of that
    product and of every nonzero start norm of ``norms``.  M is max_k M_k,
    the bound on the l1 norm of every row: M_k starts as the start norms
    on the lattice convolved with the product's absolute values, then
    each power's factors of the ``plus`` positive and the ``minus``
    negative lines run on it with s = 1.  Only then does 1/(q; q)^jtp of
    the Theta2 pairs join the product, which is returned on the lattice
    as ``base``; pairs come with the odd powers h, so d = 1 then.
    """
    base = [1] + [0] * top
    for h, sign, ext in powers:
        _apply(base, sign if c0 > 0 else -sign, h, (c0 > 0) != ext, abs(c0))
    d = gcd(*(h for h, _, _ in powers if plus or minus), *(k for k, n in enumerate(norms) if n),
            *(k for k, b in enumerate(base) if b)) or 1
    majorant = list(norms[::d]) + [0] * (top // d + 1 - len(norms[::d]))
    _convolve(majorant, [abs(b) for b in base[::d]], 1, 0)
    for h, _, ext in powers if plus or minus else ():
        _apply(majorant, 1, h // d, not ext, plus)
        _apply(majorant, 1, h // d, ext, minus)
    for h in range(2, top + 1, 2):
        _apply(base, 1, h, True, jtp)
    return tuple(base[::d]), d, max(majorant)


def _binomial_product(E: LaurentPoly, powers, trunc: int, start: QSeries | None = None) -> PackedSeries:
    """The product of S_t(E), or L_t(E) when ``exterior``, over ``powers``
    (h, sign, exterior) with t = sign q^(h/2), h >= 1 and sign = +-1,
    times the series ``start`` (integer Laurent coefficients in the
    variable of E, by default 1), exact to the lower of the two
    truncations and built in place.

    A line c x^w of E gives each power one binomial factor: with s = sign
    when c > 0 and s = -sign when c < 0, the product is multiplied by
    (1 + s x^w t')^|c|, t' = q^(h/2), or divided by (1 - s x^w t')^|c|
    when c > 0 is not exterior or c < 0 is, by S_t(P - M) = S_t(P) L_-t(M)
    and L_t(P - M) = L_t(P) S_-t(M).  A c that is not an integer raises
    NonIntegral.  The weight-0 line's factors multiply out on plain ints
    into the scalar start ``base``, in one cached pass with d and the
    digit bound (:func:`_scalars`).  The start's rows are packed, padded
    with zero rows to the length of the lattice and multiplied by base
    (:func:`_convolve`).  Only the grade lattice q^(d k/2) is kept, d the
    gcd of every h (when E has a weighted line) and of every index of a
    nonzero entry of base or of the start; every other grade is zero.
    Row k, the coefficient of q^(d k/2), is one int
    R_k = sum_e c_e 2^(B (e/g + r + m k)), the :func:`_pack` of that
    coefficient at lo = -g (r + m k) and step g: g is the gcd of the
    weights and of the start's exponents, m = max|w|/g, r = max|e|/g
    over the start, and B is the digit width in bits.  Grade d k holds at
    most k weighted units, each moving |e/g| by at most m, so exponent e
    sits at digit e/g + r + m k, in 0..2(r + m k): for Theta and Theta1
    (every h even) half the rows at half the digits.  A weighted factor
    is ``R_k +-= R_(k-h/d) << B (w/g + m h/d)`` for k downwards, or
    upwards to divide, or one binomial series per row (:func:`_apply`).

    When the odd powers are one per odd h <= 2 trunc, all of one sign and
    kind (Theta2), each line pair +-w of one multiplying c with
    |c| <= 3 isqrt(2 trunc) runs by Jacobi's triple product (Hardy and
    Wright, Theorem 352): its odd factors are
    sum_k s^k x^(w k) q^(k^2/2) / (q; q)_inf, |c| downward passes of
    about 2 sqrt(2 trunc) shifted adds per row (:func:`_triple`), where
    the binomial passes win from about 4 isqrt(2 trunc) on.  Once the
    digit bound is read, 1/(q; q)^|c| joins the scalar start.  When every
    weighted line is paired and the start has no odd grade, the rest runs
    first on the whole-q rows, row k' at lo = -g (r + m k'); then row k'
    moves to half-grade 2k' by one shift of B m k', the scalar start is
    convolved and the triple product runs.

    Evaluation at 2^B is a ring map and Python ints do not overflow, so
    the rows are exact while the final digits satisfy |c| < 2^(B-1);
    intermediate digits may overflow.  The l1 norm of a product is at
    most the convolution of its factors' l1 norms, so B = :func:`_width`
    of the majorant M of the binomial factorisation (:func:`_scalars`)
    never overflows, and no exponent of x is dropped.  The rows are
    returned as they are (:class:`PackedSeries`) and unpack only when
    read.
    """
    _check_order(trunc)
    ring = LaurentRing(E.var)
    if start is None:
        start = [ring.one()]
    elif start.ring != ring:
        raise RingMismatch(f"{start.ring.name} vs {ring.name}")
    else:
        trunc = min(trunc, start.trunc)
        start = start.coeffs[:2 * trunc + 1]
    top = 2 * trunc
    for w, c in E.coeffs.items():
        if not isinstance(c, int):
            raise NonIntegral(f"multiplicity {c} at weight {w} is not an integer")
    powers = tuple(p for p in powers if p[0] <= top)
    lines = [(w, c) for w, c in E.coeffs.items() if w] if powers else []
    exponents = [e for row in start for e in row.coeffs]
    g = gcd(*(w for w, _ in lines), *exponents) or 1
    m = max((abs(w) for w, _ in lines), default=0) // g
    r = max(map(abs, exponents), default=0) // g
    norms = tuple(sum(map(abs, row.coeffs.values())) for row in start)
    if not all(type(n) is int for n in norms):  # a Fraction makes its norm one
        raise NonIntegral("a start coefficient is not integral")

    pairs = {}
    odd = [p for p in powers if p[0] & 1]
    kinds = {p[1:] for p in odd}
    if lines and len(kinds) == 1 and sorted(h for h, _, _ in odd) == list(range(1, top, 2)):
        ((sign, ext),) = kinds
        for w, c in lines:
            if w > 0 and E.coeffs.get(-w) == c and (c > 0) == ext and abs(c) <= 3 * math.isqrt(top):
                pairs[sign if ext else -sign, w] = abs(c)
    paired = {v for _, w in pairs for v in (w, -w)}
    plus = sum(c for _, c in lines if c > 0)
    minus = -sum(c for _, c in lines if c < 0)
    base, d, majorant = _scalars(powers, E.coeffs.get(0, 0), plus, minus, sum(pairs.values()), norms, top)
    B = _width(majorant)
    start = start[::d]
    # phase 1 runs on the whole-q rows (every = 2) when every weighted line is paired
    every = 2 if pairs and len(paired) == len(lines) and not any(start[1::2]) else 1
    rows = [_pack(row, B, -g * r, g) << B * m * k for k, row in enumerate(start[::every])]
    rows += [0] * (len(base[::every]) - len(rows))
    if every == 1:
        _convolve(rows, base, 1, B * m)
    units = [(w, B * w // g, c > 0, abs(c)) for w, c in lines]
    for h, sign, ext in powers:
        skip = paired if h & 1 else ()
        h //= d * every
        lift = B * m * h
        for w, shift, positive, mult in units:
            if w not in skip:
                _apply(rows, sign if positive else -sign, h, positive != ext, mult, shift + lift)
    if every == 2:
        spread = [0] * len(base)
        spread[::2] = [row << B * m * k for k, row in enumerate(rows)]
        rows = spread
        _convolve(rows, base, 1, B * m)
    for (s, w), mult in pairs.items():
        _triple(rows, s, w // g, m, B, mult)
    return PackedSeries(ring, trunc, (rows, B, g, r, m, d))


def _check_tau(tau: complex, image: bool = False):
    """Refuse tau outside the upper half-plane, and tau so close to the
    real axis that |q|^(1/2) = exp(-pi Im tau) rounds to 1.  The S-image
    -1/tau of a tau that passed (``image``) has Im tau / |tau|^2 > 0, so
    an Im of 0 there has underflowed, and is refused as close to the axis."""
    tau = complex(tau)
    name = "-1/tau" if image else "tau"
    if tau.imag <= 0 and not image:
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
