"""Tour of the exact arithmetic layer.

Everything downstream rests on three containers: truncated series in
q^(1/2) over a pluggable coefficient ring, sparse Laurent polynomials,
and reduced rational functions.  All three are exact; no floats appear
until a number is finally evaluated.
"""

from fractions import Fraction

from propergenus import (
    LAMBDA_RING,
    RATIONAL,
    LaurentPoly,
    Poly,
    QSeries,
    RationalFunc,
    complex_eval,
)

print("= Truncated q-series over exact rings =")
one_minus_q = QSeries.from_terms(RATIONAL, 6, {0: 1, 1: -1})
print("1/(1-q)            :", one_minus_q.inverse())

lam2 = LaurentPoly({2: 1})
geometric = QSeries.from_terms(LAMBDA_RING, 4, {0: 1, 1: -lam2}).inverse()
print("1/(1 - lam^2 q)    :", geometric)

print()
print("= Series with half-integer grades =")
half = QSeries.from_terms(RATIONAL, 3, {0: 1, Fraction(1, 2): -1})
print("(1 - q^(1/2))^(-1) :", half.inverse())

print()
print("= Rational functions in mu reduce and certify =")
f = RationalFunc(Poly([-1, 0, 1]), Poly([-1, 1]))
print("(mu^2-1)/(mu-1)    :", f.to_laurent())

g = RationalFunc(Poly([0, 1, 0, 1]), Poly.monomial(2))
print("(mu^3+mu)/mu^2     :", g.to_laurent())

try:
    RationalFunc(Poly([1]), Poly([-1, 1])).to_laurent()
except Exception as exc:
    print("1/(mu-1)           : rejected,", type(exc).__name__)

print()
print("= Numeric evaluation and its scale =")
series = QSeries.from_terms(RATIONAL, 20, {0: 1, 1: -1})
value, scale = complex_eval(series, 1j)
print(f"1 - q at tau=i     : {value.real:.8f}  (1 - exp(-2 pi) = 0.998132557...),"
      f" scale sum |c_h| |q|^(h/2) = {scale:.8f}")
