"""The three Witten bundles of a circle representation.

The weight-(+-2) adjoint character lam^2 + lam^-2 is the representation
carried by the two-dimensional slice of SL(2,R); its rank-reduced Witten
bundles drive the induced-genus computations.  The Fourier coefficients
printed here are exact virtual characters.
"""

from fractions import Fraction

from propergenus.core import LAMBDA_RING, LaurentPoly, QSeries
from propergenus.lambda_ring import (
    THETA,
    THETA1,
    THETA2,
    ext_total,
    sym_total,
    theta_bundle,
    tilde,
)

adjoint = LaurentPoly({2: 1, -2: 1})
print("adjoint character  :", adjoint)
print("rank               :", adjoint.eval_one())
print("rank-reduced       :", tilde(adjoint))

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
        coeff = series.coefficient(grade)
        if not coeff.is_zero() or grade <= 1:
            print(f"   q^{str(grade):4} -> {coeff}")

print()
print("= Adams operations: S_t(E) = exp(sum_k psi^k(E) t^k / k) =")
virtual = LaurentPoly({3: 1, 1: -1})
N = 5
log_sym = QSeries.from_terms(
    LAMBDA_RING, N, {k: virtual.substitute_power(k) * Fraction(1, k) for k in range(1, N + 1)})
print("virtual input      :", virtual)
print("exp agrees with S_q:", log_sym.exp() == sym_total(virtual, 1, 1, N))
