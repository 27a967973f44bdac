from .laurent import LAMBDA, MU, Z, LaurentPoly
from .qseries import (
    LAMBDA_RING,
    MU_RING,
    RATIONAL,
    Z_RING,
    LaurentRing,
    QSeries,
    RationalRing,
    complex_eval,
    half_units,
)
from .ratfunc import Poly, RationalFunc, poly_gcd

__all__ = [
    "LAMBDA", "MU", "Z", "LaurentPoly",
    "LAMBDA_RING", "MU_RING", "RATIONAL", "Z_RING",
    "LaurentRing", "QSeries", "RationalRing", "complex_eval", "half_units",
    "Poly", "RationalFunc", "poly_gcd",
]
