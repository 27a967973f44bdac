"""Fixed-point genera of weighted circle actions on CP^(2l-1).

A weight vector with distinct entries and even sum gives a spin circle
action with isolated fixed points.  The exact fixed-point sums below
certify, grade by grade, that the equivariant Witten series is an
integral Laurent polynomial in lam; tracing lam^n to -|n - 1| then
produces the averaged Witten genus of the induced bundle over the
modular surface, and the elliptic genera vanish identically.
"""

from propergenus.induction import averaged_elliptic_genera, averaged_witten_genus
from propergenus.lambda_ring import THETA1, THETA2
from propergenus.lefschetz import (
    lefschetz_twisted,
    lefschetz_witten,
    p_series,
    validate_weights,
)

print("= Fixed-point data for weights (0, 1, 2, 5) =")
for datum in validate_weights((0, 1, 2, 5)):
    print(f"  point {datum.index}: weight {datum.weight}, tangent {datum.tangent_weights},"
          f" sign {datum.sign:+d}")

print()
print("= The equivariant Witten series (exact Laurent coefficients) =")
series = lefschetz_witten((0, 1, 2, 5), N=5)
for grade, coeff in series.nonzero_terms():
    print(f"  q^{grade}: {coeff}")

print()
print("= Arithmetically special vectors collapse entirely =")
print("(0,2)    Witten series zero:", lefschetz_witten((0, 2), N=6).is_zero())
print("(0,1,2,3) Witten series zero:", lefschetz_witten((0, 1, 2, 3), N=6).is_zero())

print()
print("= Rigidity of the elliptic twists =")
sig = lefschetz_twisted((0, 1, 2, 5), "signature", THETA1, N=6)
dir2 = lefschetz_twisted((0, 1, 2, 5), "dirac", THETA2, N=6)
print("signature/full-twist lam-free:", all(c.is_constant() for _, c in sig.nonzero_terms()))
print("dirac/half-twist     lam-free:", all(c.is_constant() for _, c in dir2.nonzero_terms()))
print("both identically zero        :", sig.is_zero() and dir2.is_zero())

print()
print("= Averaged genera of the induced manifolds =")
genus = averaged_witten_genus((0, 1, 2, 5), N=8)
print("Witten genus, weights (0,1,2,5):", genus)
phi1, phi2 = averaged_elliptic_genera((0, 1, 2, 5), N=6)
print("elliptic genera vanish        :", phi1.is_zero() and phi2.is_zero())

print()
print("= The three-factor series factors through the Witten bundle =")
print("p-series grades for (0,1,2,5):")
p = p_series((0, 1, 2, 5), N=4)
for grade, coeff in p.nonzero_terms():
    print(f"  q^{grade}: {coeff}")
