"""Exception types shared across the package."""


class GpcError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedDimensionError(GpcError, ValueError):
    """No built-in unbiased-bases construction exists for this dimension."""


class MubValidationError(GpcError, ValueError):
    """A family of bases failed orthonormality or unbiasedness checks."""


class BadProbabilitiesError(GpcError, ValueError):
    """Probability weights are negative or do not sum to one."""


class DimensionMismatchError(GpcError, ValueError):
    """Operands live in incompatible dimensions."""


class FamilyMismatchError(GpcError, ValueError):
    """Two channels do not share the same basis family."""


class TooLargeError(GpcError, ValueError):
    """Requested object exceeds the desk-scale resource guard."""


class OutOfRangeError(GpcError, ValueError):
    """Query point lies outside the supported range."""


class InvalidTrajectoryError(GpcError, ValueError):
    """An eigenvalue trajectory violates positivity at some grid time."""


class NotCPTPError(GpcError, ValueError):
    """Eigenvalues fail the complete-positivity inequalities.

    Carries which bound failed (``"lower"`` or ``"upper"``) and by how much.
    """

    def __init__(self, message: str, bound: str | None = None, violation: float | None = None):
        super().__init__(message)
        self.bound = bound
        self.violation = violation
