"""Domain errors shared by all modules.

The CLI reports an error as a machine-readable object whose ``code``
is the exception's class name, so each class name is a stable code.
"""


class DomainError(Exception):
    """An input or intermediate result outside the domain of a computation."""


class RingMismatch(DomainError):
    """Two series over different coefficient rings were combined."""


class NonUnitConstantTerm(DomainError):
    """Series inversion requires an invertible constant term."""


class GradeOutOfRange(DomainError):
    """A coefficient beyond the truncation order was requested."""


class NotLaurent(DomainError):
    """A rational function did not reduce to a Laurent polynomial.

    In fixed-point sums this signals a sign-convention or truncation
    error upstream.
    """


class NonIntegral(DomainError):
    """A value expected to have integer coefficients does not."""


class DuplicateWeights(DomainError):
    """The weights of a circle action are not distinct."""


class OddWeightSum(DomainError):
    """The weights of a circle action have an odd sum, so it is not spin."""


class NotUpperHalfPlane(DomainError):
    """tau is not in the upper half-plane, or so close to the real axis
    that |q|^(1/2) rounds to 1 and no q-series converges numerically."""


class NumericOverflow(DomainError):
    """A numeric evaluation left the floating-point range."""


class SingularSystem(DomainError):
    """Linear solve hit a singular system (wrong order or basis)."""


class InconsistentSystem(DomainError):
    """Overdetermined linear solve has no exact solution."""
