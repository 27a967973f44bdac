"""Exact computation of Witten and elliptic genera for weighted circle
actions, together with the theta-function and modular-form identities
that control them.

Everything symbolic is computed over exact rationals; floating point
enters only in the numeric verification of transformation laws.
"""

from .core import (
    LAMBDA,
    LAMBDA_RING,
    MU,
    MU_RING,
    RATIONAL,
    Z_RING,
    LaurentPoly,
    LaurentRing,
    Poly,
    QSeries,
    RationalFunc,
    RationalRing,
    complex_eval,
)

__version__ = "0.1.0"
