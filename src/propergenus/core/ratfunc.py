"""Univariate polynomials and rational functions over the rationals.

:class:`Poly` holds the one conversion to and from Laurent polynomials
(:meth:`Poly.from_laurent`, :meth:`Poly.to_laurent`), and its exact
``divmod`` certifies fixed-point sums.  :class:`RationalFunc`, reduced
by Euclid's gcd, is the reference reduction, off the hot path: it serves
diagnostics, failed certificates and the tests' oracle.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NotLaurent
from .laurent import MU, LaurentPoly, Scalar, normalize_scalar


class Poly:
    """Dense univariate polynomial, coefficient index = degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [normalize_scalar(c) if isinstance(c, Fraction) else c for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = coeffs

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def one(cls) -> "Poly":
        return cls([1])

    @classmethod
    def monomial(cls, deg: int, c: Scalar = 1) -> "Poly":
        return cls([0] * deg + [c])

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> tuple["Poly", int]:
        """Clear negative exponents: return (poly, shift) with p = poly * x^(-shift)."""
        shift = -min(0, p.min_exp())
        coeffs = [0] * (p.max_exp() + shift + 1) if p.coeffs else []
        for e, c in p.coeffs.items():
            coeffs[e + shift] = c
        return cls(coeffs), shift

    def to_laurent(self, shift: int, var: str = MU) -> LaurentPoly:
        """The Laurent polynomial self * x^(-shift); inverse of :meth:`from_laurent`."""
        return LaurentPoly({i - shift: c for i, c in enumerate(self.coeffs) if c != 0}, var)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(self.coeffs))

    def __add__(self, other: "Poly") -> "Poly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + [0] * (n - len(self.coeffs))
        b = other.coeffs + [0] * (n - len(other.coeffs))
        return Poly([x + y for x, y in zip(a, b)])

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                if b != 0:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(), Poly(rem)
        quo = [0] * (dq + 1)
        inv_lead = Fraction(1) / Fraction(other.leading())
        d = other.degree()
        for i in range(dq, -1, -1):
            c = rem[i + d] * inv_lead
            if c != 0:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = Fraction(1) / Fraction(self.leading())
        return Poly([c * inv for c in self.coeffs])

    def evaluate(self, x: Fraction) -> Fraction:
        total = Fraction(0)
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs[:-1])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0
        )

    __repr__ = __str__


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic() if not a.is_zero() else a


class RationalFunc:
    """A reduced quotient of univariate polynomials over the rationals.

    Invariants after construction: denominator monic and nonzero,
    gcd(numerator, denominator) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly, reduced: bool = False):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def from_poly(cls, p: Poly) -> "RationalFunc":
        return cls(p, Poly.one(), reduced=True)

    @classmethod
    def from_laurent(cls, p: LaurentPoly) -> "RationalFunc":
        """Embed a Laurent polynomial by clearing negative exponents."""
        poly, shift = Poly.from_laurent(p)
        return cls(poly, Poly.monomial(shift))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalFunc)
            and self.num == other.num
            and self.den == other.den
        )

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return RationalFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RationalFunc":
        return RationalFunc(-self.num, self.den, reduced=True)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunc":
        if isinstance(other, (int, Fraction)):
            return RationalFunc(self.num * other, self.den)
        return RationalFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def evaluate(self, x: Fraction) -> Fraction:
        d = self.den.evaluate(x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return self.num.evaluate(x) / d

    def to_laurent(self, var: str = MU) -> LaurentPoly:
        """Certify the reduced form as a Laurent polynomial.

        Succeeds exactly when the (monic) denominator is a monomial x^k;
        otherwise raises :class:`NotLaurent`.
        """
        if self.is_zero():
            return LaurentPoly.zero(var)
        if not self.den.is_monomial():
            raise NotLaurent(f"denominator {self.den} has a non-monomial factor")
        return self.num.to_laurent(self.den.degree(), var)

    def __str__(self) -> str:
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if num.is_zero():
        return Poly.zero(), Poly.one()
    g = poly_gcd(num, den)
    if g.degree() > 0:
        num, _ = divmod(num, g)
        den, _ = divmod(den, g)
    lead = Fraction(den.leading())
    if lead != 1:
        num = num * (Fraction(1) / lead)
        den = den.monic()
    return num, den

