"""Jacobi theta functions and the level-2 modular forms.

The formal q-expansions carry Laurent coefficients in z = e^(2 pi i v);
the numeric evaluations verify the eight transformation laws and the
S-transformation exchanging the two level-2 families.
"""

from fractions import Fraction

from propergenus.theta_modforms import (
    MODFORM_NAMES,
    THETA_KINDS,
    modform_eval,
    modform_qexp,
    theta_eval,
    theta_qexp,
    verify_modform_transforms,
    verify_theta_transforms,
)

print("= Formal expansions (low grades) =")
for kind in THETA_KINDS:
    exp = theta_qexp(kind, 2)
    pref = f"q^{exp.prefactor_exponent}" if exp.prefactor_exponent else ""
    trig = {"sin": "2 sin(pi v)", "cos": "2 cos(pi v)", None: ""}[exp.trig]
    print(f"{kind:7}: {pref} {trig} * [{exp.series}]")

print()
print("= Numeric values on the imaginary axis =")
print("theta (0, i) :", theta_eval("theta", 0, 1j)[0])
print("theta1(0, i) :", f"{theta_eval('theta1', 0, 1j)[0].real:.12f}")
print("theta2(0, i) :", f"{theta_eval('theta2', 0, 1j)[0].real:.12f}   (equal by the S-law)")

print()
print("= The eight transformation laws =")
report = verify_theta_transforms(0.1 + 0.05j, 0.2 + 1.1j, N=40, tol=1e-9)
for name, residual in sorted(report["residuals"].items()):
    print(f"  {name:10} residual {residual:.2e}")
print("all passed:", report["all_passed"])

print()
print("= Level-2 modular forms =")
for name in MODFORM_NAMES:
    mf = modform_qexp(name, 3)
    print(f"{name:6} (weight {mf.weight}, {mf.group}): {mf.series}")

print()
print("= S-transformation between the two families =")
for tau in (1j, 0.3 + 0.9j):
    rep = verify_modform_transforms(tau, N=60, tol=1e-8)
    print(f"tau = {tau}: residuals "
          + ", ".join(f"{k} {v:.1e}" for k, v in rep["residuals"].items()))
print("delta2(i) = -delta1(i):",
      f"{modform_eval('delta2', 1j).real:.10f} vs {-modform_eval('delta1', 1j).real:.10f}")
