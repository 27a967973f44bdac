"""The three Witten bundles of a circle representation.

The weight-(+-2) adjoint character lam^2 + lam^-2 is the representation
carried by the two-dimensional slice of SL(2,R); its rank-reduced Witten
bundles drive the induced-genus computations.  The Fourier coefficients
printed here are exact virtual characters.
"""

from fractions import Fraction

from propergenus.core import LAMBDA_RING, QSeries
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    VirtualChar,
    ext_total,
    fourier_coefficient,
    sym_total,
    theta_bundle,
)

adjoint = VirtualChar.rep(2) + VirtualChar.rep(-2)
print("adjoint character  :", adjoint)
print("rank               :", adjoint.rank)
print("rank-reduced       :", adjoint.tilde())

print()
print("= Total symmetric and exterior powers =")
print("S_q                :", sym_total(adjoint, 1, 1, 3))
print("L_q                :", ext_total(adjoint, 1, 1, 3))
check = sym_total(adjoint, 1, 1, 6) * ext_total(adjoint, 1, -1, 6)
print("S_q . L_(-q)       :", check)

print()
print("= Witten bundles of the reduced adjoint =")
for variant in (THETA, THETA1, THETA2):
    series = theta_bundle(adjoint, variant, N=3)
    print(f"{variant:7}:")
    for grade in (0, Fraction(1, 2), 1, Fraction(3, 2), 2):
        coeff = fourier_coefficient(series, grade)
        if not coeff.char.is_zero() or grade <= 1:
            print(f"   q^{str(grade):4} -> {coeff.char}")

print()
print("= Adams operations: S_t(E) = exp(sum_k psi^k(E) t^k / k) =")
virtual = VirtualChar.rep(3) - VirtualChar.rep(1)
N = 5
log_sym = QSeries.from_terms(
    LAMBDA_RING, N, {k: virtual.adams(k).char * Fraction(1, k) for k in range(1, N + 1)})
print("virtual input      :", virtual)
print("exp agrees with S_q:", log_sym.exp() == sym_total(virtual, 1, 1, N))
