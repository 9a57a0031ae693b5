"""Exception types raised by the library.

Everything derives from :class:`DomainError`, so callers (and the CLI) can
catch one class to mean "the inputs were rejected on mathematical grounds"
as opposed to a programming error.
"""


class DomainError(ValueError):
    """Input rejected on mathematical grounds (shape, symmetry, spectrum...)."""


class DimensionMismatch(DomainError):
    """Matrix or vector dimensions are incompatible."""


class NotSymmetric(DomainError):
    """Matrix is not (complex) symmetric within tolerance."""


class NotHermitian(DomainError):
    """Matrix is not Hermitian within tolerance.

    ``asymmetry`` is the ||A - A^H|| / ||A|| the test measured (None where
    no number was recorded).
    """

    def __init__(self, message, asymmetry=None):
        self.asymmetry = asymmetry
        super().__init__(message)


class NotPositiveDefinite(DomainError):
    """Matrix is not positive definite within tolerance."""


class NotPositiveSemidefinite(DomainError):
    """Matrix has eigenvalues below the negative tolerance."""


class SingularCovariance(DomainError):
    """Covariance matrix is singular (or numerically so)."""


class InvalidPair(DomainError):
    """A covariance / complementary-covariance pair failed validation."""

    def __init__(self, reason, message=None):
        self.reason = reason
        super().__init__(message or f"invalid pair: {reason}")


class SpectrumAtOne(DomainError):
    """A circularity coefficient is at (or beyond) 1, where the closed forms blow up."""


class TooFewSamples(DomainError):
    """Sample set too small for the requested estimator."""


class TiedSamples(DomainError):
    """Sample points coincide, so a kNN estimator's log-distance is -infinity.

    ``tied`` of the ``count`` points have a k-th neighbor distance of 0.
    """

    def __init__(self, tied, count, what):
        self.tied = int(tied)
        self.count = int(count)
        super().__init__(f"{self.tied} of {self.count} points tied: {what} is 0")


class DegenerateConditional(DomainError):
    """The phase conditional has no density (point mass); the estimate diverges."""


class PowerExceeded(DomainError):
    """Input covariance trace exceeds the power budget."""


class AssumptionViolated(DomainError):
    """Channel spec violates the closed-form solver's assumptions.

    Carries the list of :class:`~improper.capacity.Violation` records.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        names = ", ".join(v.name for v in self.violations)
        super().__init__(f"assumptions violated: {names}")
