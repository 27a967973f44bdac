"""Tour of the exact arithmetic layer.

Everything downstream rests on two containers: truncated series in
q^(1/2) over a pluggable coefficient ring, and sparse Laurent
polynomials.  Both are exact; no floats appear until a number is finally
evaluated.  A fixed-point sum is a rational function at every q-grade,
and the Laurent certificate proves it a Laurent polynomial or names the
pole that stops it from being one.
"""

from fractions import Fraction

from propergenus import LAMBDA_RING, RATIONAL, LaurentPoly, QSeries, complex_eval
from propergenus.errors import NotLaurent
from propergenus.lefschetz import lefschetz_twisted, lefschetz_witten

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
print("= The Laurent certificate of a fixed-point sum =")
print("signed, (0,1,2,5)  :", lefschetz_witten((0, 1, 2, 5), N=2))
try:
    lefschetz_twisted((0, 2), twist=None, N=1, signed=False)
except NotLaurent as exc:
    print("unsigned, (0,2)    : NotLaurent:", exc)

print()
print("= Numeric evaluation and its scale =")
series = QSeries.from_terms(RATIONAL, 20, {0: 1, 1: -1})
value, scale = complex_eval(series, 1j)
print(f"1 - q at tau=i     : {value.real:.8f}  (1 - exp(-2 pi) = 0.998132557...),"
      f" scale sum |c_h| |q|^(h/2) = {scale:.8f}")
