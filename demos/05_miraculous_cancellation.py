"""The cancellation identity between the top L-class and twisted A-hat
classes, verified in closed form for 4k-dimensional manifolds, k <= 3.

The q-series of top-weight twisted A-hat classes is decomposed exactly
in the monomial basis (8 delta_2)^a eps_2^b; the scalars relating the
decomposition to the top L-class come out as the powers 2^(3k - 6j),
settling the exponent schedule by computation.
"""

from propergenus.chern import a_hat, ch_witten, l_hat, p2_decompose, solve_cancellation
from propergenus.core import RATIONAL, QSeries
from propergenus.theta_modforms import modform_qexp


def fmt(cls):
    """A {partition: coefficient} class as c*p1*p2 + ..., partitions in order."""
    if not cls:
        return "0"
    return " + ".join(f"{c}*" + "*".join(f"p{r}" for r in p) if p else f"{c}"
                      for p, c in sorted(cls.items()))


print("= Classical classes in the power-sum basis =")
for k in (1, 2):
    print(f"A-hat (k={k}):", fmt(a_hat(k)))
    print(f"L     (k={k}):", fmt(l_hat(k)))

print()
print("= Chern characters of the half-twisted Witten coefficients =")
for grade in (0, 0.5, 1):
    print(f"  grade {grade}:", fmt(ch_witten(2, grade)))

print()
print("= Cancellation reports =")
for k in (1, 2, 3):
    report = solve_cancellation(k)
    print(f"k = {k} (dimension {4 * k}):")
    print("  residual zero:", report.residual_is_zero)
    print("  exponents    :", report.exponents, "->", report.schedule)
    for b, combo in enumerate(report.combinations):
        print(f"  class[{b}]     : {fmt(combo)}")

print()
print("= Decomposing modular forms in the (8 delta2)^a eps2^b basis =")
d2 = modform_qexp("delta2", 8).series.scale(8)
e2 = modform_qexp("eps2", 8).series


def show(label, coeffs):
    print(label, "->", [str(c) for c in coeffs])


show("(8 delta2)^2       ", p2_decompose(d2 * d2, 2))
show("(8 delta2)^2 + eps2", p2_decompose(d2 * d2 + e2, 2))
show("zero series        ", p2_decompose(QSeries(RATIONAL, 6), 2))
