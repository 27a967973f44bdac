"""Exact polynomial division, and the Euclid reduction that names a
grade which is not Laurent.

``lefschetz._exact_grade`` is this module's one caller.  It decides
every grade that the packed check leaves open by ``Poly``'s exact
``divmod`` by the monic D on ints.  When D does not divide the grade's
numerator, :class:`RationalFunc` reduces the grade's rational function
in mu by Euclid's gcd over the rationals, and
:meth:`RationalFunc.to_laurent` raises :class:`NotLaurent` naming the
reduced denominator.  :class:`Poly` holds only what these two need: the
division, :meth:`Poly.to_laurent` and the printed form of the message.
There is no product and no rational-function arithmetic here, and the
package does not export them.
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

    def to_laurent(self, shift: int, var: str = MU) -> LaurentPoly:
        """The Laurent polynomial self * x^(-shift)."""
        return LaurentPoly({i - shift: c for i, c in enumerate(self.coeffs) if c != 0}, var)

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Scalar:
        return self.coeffs[-1]

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        quo = [0] * (dq + 1)
        lead = other.leading()
        # a unit leading coefficient is its own inverse: stay in int arithmetic
        inv_lead = lead if lead in (1, -1) else Fraction(1) / Fraction(lead)
        d = other.degree()
        for i in range(dq, -1, -1):
            c = rem[i + d] * inv_lead
            if c != 0:
                quo[i] = c
                for j, b in enumerate(other.coeffs):
                    rem[i + j] -= c * b
        return Poly(quo), Poly(rem)

    def monic(self) -> "Poly":
        inv = Fraction(1) / Fraction(self.leading())
        return Poly([c * inv for c in self.coeffs])

    def is_monomial(self) -> bool:
        return bool(self.coeffs) and all(c == 0 for c in self.coeffs[:-1])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(
            f"{c}*x^{i}" for i, c in enumerate(self.coeffs) if c != 0
        )


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not b.is_zero():
        _, r = divmod(a, b)
        a, b = b, r
    return a.monic()


class RationalFunc:
    """A reduced quotient of univariate polynomials over the rationals.

    Invariants after construction: denominator monic and nonzero,
    gcd(numerator, denominator) = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        self.num, self.den = _reduce(num, den)

    def to_laurent(self, var: str = MU) -> LaurentPoly:
        """Certify the reduced form as a Laurent polynomial.

        Succeeds exactly when the (monic) denominator is a monomial x^k,
        as it is for a zero numerator, whose reduced denominator is 1;
        otherwise raises :class:`NotLaurent`.
        """
        if not self.den.is_monomial():
            raise NotLaurent(f"denominator {self.den} has a non-monomial factor")
        return self.num.to_laurent(self.den.degree(), var)


def _reduce(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    g = poly_gcd(num, den)
    num, _ = divmod(num, g)
    den, _ = divmod(den, g)
    lead = Fraction(den.leading())
    if lead != 1:
        num = Poly([c / lead for c in num.coeffs])
        den = den.monic()
    return num, den

