"""Domain errors shared by all modules.

Every error carries a stable ``code`` string so the CLI can emit
machine-readable error objects.
"""


class DomainError(Exception):
    code = "DomainError"


class RingMismatch(DomainError):
    """Two series over different coefficient rings were combined."""
    code = "RingMismatch"


class NonUnitConstantTerm(DomainError):
    """Series inversion requires an invertible constant term."""
    code = "NonUnitConstantTerm"


class GradeOutOfRange(DomainError):
    """A coefficient beyond the truncation order was requested."""
    code = "GradeOutOfRange"


class NotLaurent(DomainError):
    """A rational function did not reduce to a Laurent polynomial.

    In fixed-point sums this signals a sign-convention or truncation
    error upstream.
    """
    code = "NotLaurent"


class NonIntegral(DomainError):
    """A value expected to have integer coefficients does not."""
    code = "NonIntegral"


class DuplicateWeights(DomainError):
    code = "DuplicateWeights"


class OddWeightSum(DomainError):
    code = "OddWeightSum"


class NotUpperHalfPlane(DomainError):
    """tau is not in the upper half-plane, or so close to the real axis
    that |q|^(1/2) rounds to 1 and no q-series converges numerically."""
    code = "NotUpperHalfPlane"


class NumericOverflow(DomainError):
    """A numeric evaluation left the floating-point range."""
    code = "NumericOverflow"


class SingularSystem(DomainError):
    """Linear solve hit a singular system (wrong order or basis)."""
    code = "SingularSystem"


class InconsistentSystem(DomainError):
    """Overdetermined linear solve has no exact solution."""
    code = "InconsistentSystem"

