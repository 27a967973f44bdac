"""Sparse Laurent polynomials with exact rational coefficients.

A Laurent polynomial is stored as a map from integer exponent to
coefficient; an integral exponent of another type becomes its int, and
any other exponent is refused.  Coefficients are Python ints or
``fractions.Fraction``; integral fractions are normalised back to int so
that the common case stays in fast machine/bignum arithmetic.  Zero
coefficients are never stored, and the zero polynomial has an empty map.
"""

from __future__ import annotations

from fractions import Fraction

from ..errors import NonUnitConstantTerm

Scalar = int | Fraction

LAMBDA = "lam"   # character variable of the circle
MU = "mu"        # half-weight variable, lam = mu**2
Z = "z"          # theta-function variable, z = e^{2 pi i v}


def normalize_scalar(c: Scalar) -> Scalar:
    """Collapse integral Fractions to int."""
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class LaurentPoly:
    """A Laurent polynomial in a single tagged variable."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: dict[int, Scalar] | None = None, var: str = LAMBDA):
        clean: dict[int, Scalar] = {}
        for e, c in (coeffs or {}).items():
            if type(e) is not int and int(e) != e:
                raise ValueError(f"exponent {e} is not an integer")
            if type(c) is not int:  # an exact int is already normal
                c = normalize_scalar(c)
            if c:
                clean[int(e)] = c
        self.coeffs = clean
        self.var = var

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str = LAMBDA) -> "LaurentPoly":
        return cls({}, var)

    @classmethod
    def constant(cls, c: Scalar, var: str = LAMBDA) -> "LaurentPoly":
        return cls({0: c}, var)

    @classmethod
    def monomial(cls, exponent: int, c: Scalar = 1, var: str = LAMBDA) -> "LaurentPoly":
        return cls({exponent: c}, var)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return not self.coeffs or set(self.coeffs) == {0}

    def min_exp(self) -> int:
        return min(self.coeffs) if self.coeffs else 0

    def max_exp(self) -> int:
        return max(self.coeffs) if self.coeffs else 0

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs.values())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly):
            # a constant equals its scalar, so two constants compare by
            # value whatever their variables
            return self.coeffs == other.coeffs and (self.var == other.var or self.is_constant())
        if isinstance(other, (int, Fraction)):
            return self.coeffs == ({0: normalize_scalar(other)} if other != 0 else {})
        return NotImplemented

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar
        if self.is_constant():
            return hash(self.coeffs.get(0, 0))
        return hash((self.var, tuple(sorted(self.coeffs.items()))))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "LaurentPoly | None":
        if isinstance(other, LaurentPoly):
            return other if other.var == self.var else None
        if isinstance(other, (int, Fraction)):
            return LaurentPoly.constant(other, self.var)
        return None

    def __add__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in o.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out, self.var)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()}, self.var)

    def __sub__(self, other) -> "LaurentPoly":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "LaurentPoly":
        return -(self - other)

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return LaurentPoly({e: c * other for e, c in self.coeffs.items()}, self.var)
        if not isinstance(other, LaurentPoly) or other.var != self.var:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) > len(b):
            a, b = b, a
        out: dict[int, Scalar] = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out, self.var)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError("negative powers of Laurent polynomials are not defined here")
        result = LaurentPoly.constant(1, self.var)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse_if_unit(self) -> "LaurentPoly":
        """Invert a unit, i.e. a single-term Laurent polynomial."""
        if len(self.coeffs) != 1:
            raise NonUnitConstantTerm(f"{self} is not a unit in the Laurent ring")
        (e, c), = self.coeffs.items()
        return LaurentPoly({-e: normalize_scalar(Fraction(1, 1) / c)}, self.var)

    # -- substitutions and evaluations --------------------------------

    def substitute_power(self, k: int) -> "LaurentPoly":
        """Replace the variable x by x**k (the k-th Adams substitution)."""
        if int(k) != k or k < 1:
            raise ValueError(f"substitution power {k} is not an integer >= 1")
        return LaurentPoly({e * k: c for e, c in self.coeffs.items()}, self.var)

    def evaluate(self, x):
        """Evaluate at a nonzero scalar (Fraction or complex)."""
        total = 0
        for e, c in self.coeffs.items():
            if isinstance(x, complex):
                total += complex(c) * x ** e
            else:
                total += c * (Fraction(x) ** e)
        return total

    def eval_one(self) -> Scalar:
        """Value at 1: the rank of the virtual representation."""
        return normalize_scalar(sum(self.coeffs.values()))

    # -- serialization ------------------------------------------------

    def to_json(self) -> dict[str, str]:
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(str(c))
            else:
                var = self.var if e == 1 else f"{self.var}^{e}"
                parts.append(var if c == 1 else f"-{var}" if c == -1 else f"{c}*{var}")
        return " + ".join(parts).replace("+ -", "- ")

    __repr__ = __str__
