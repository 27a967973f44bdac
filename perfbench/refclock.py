"""Reference clock: wall time rescaled to a nominal machine speed.

The machines this benchmark runs on are shared, and their speed drifts
by a third within minutes: the same operation takes 0.55 s in one
minute and 0.95 s in the next.  Raw wall times would therefore differ
between two sets of runs of the same code by more than any useful bound.

So every timed measurement is paired with calibrations taken right
before and right after it.  A calibration times a fixed pure-Python
kernel five times, with the collector paused, and keeps the median.  The
kernel does the package's two kinds of arithmetic: a sparse product of
dict polynomials with ``Fraction`` coefficients, like ``LaurentPoly``,
and a dense long division over ``Fraction``, like ``Poly.__divmod__``.
The measurement is multiplied by ``NOMINAL_S / kernel time``.  A
reference second is therefore a wall second on a machine where the
kernel takes ``NOMINAL_S``.  The kernel is not part of the package, so
no change to the package can speed it up or slow it down.

Rescaling removes most of the drift but not all of it: operations
dominated by large-integer ``Fraction`` division (``witten-cert``) track
the kernel less closely than the others.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter_ns

NOMINAL_S = 0.01
REPEATS = 5

_A = {e: (e * 7919) % 101 - 50 for e in range(-30, 30)}
_B = {e: Fraction((e * 31) % 17 - 8, 1 + e % 3) for e in range(-22, 23)}
_NUM = [Fraction((i * 37) % 23 - 11, 1 + i % 4) for i in range(60)]
_DEN = [Fraction((i * 13) % 17 - 8, 1 + i % 3) for i in range(25)] + [Fraction(1)]


def _kernel():
    product: dict = {}
    for e1, c1 in _A.items():
        for e2, c2 in _B.items():
            e = e1 + e2
            product[e] = product.get(e, 0) + c1 * c2
    rem = list(_NUM)
    d = len(_DEN) - 1
    for i in range(len(_NUM) - len(_DEN), -1, -1):
        c = rem[i + d] / _DEN[-1]
        for j, b in enumerate(_DEN):
            rem[i + j] -= c * b
    return product, rem


def scale() -> float:
    """Reference seconds per wall second at this moment."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(REPEATS):
            start = perf_counter_ns()
            _kernel()
            samples.append(perf_counter_ns() - start)
    finally:
        if enabled:
            gc.enable()
    return NOMINAL_S * 1e9 / statistics.median(samples)
