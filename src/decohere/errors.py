"""Exception taxonomy shared across the package.

Construction-time invariant violations derive from :class:`ValidationError`
(a ``ValueError``), runtime numerical failures from :class:`NumericsError`
(a ``RuntimeError``).  The CLI maps ``ValidationError``/``ParseError`` to
exit code 2 and every other error, invariant drift too, to exit code 1.
"""


class DecohereError(Exception):
    """Base class for all package errors."""


class ValidationError(DecohereError, ValueError):
    """An input violates a documented invariant or schema constraint."""


class DimensionMismatchError(ValidationError):
    """Operands have incompatible dimensions."""


class NotHermitianError(ValidationError):
    """A matrix required to be Hermitian is not, within tolerance."""


class NegativeFrequencyError(ValidationError):
    """Spectral density evaluated at a negative frequency."""


class ZeroMomentumTransferError(ValidationError):
    """Structure factor evaluated at q = 0."""


class QuadratureSupportError(ValidationError):
    """Discretization nodes do not cover the momentum law's support."""


class ParseError(DecohereError, ValueError):
    """Scenario text is not valid JSON; carries line/column."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class NumericsError(DecohereError, RuntimeError):
    """A numerical routine failed to meet its contract."""


class NoConvergenceError(NumericsError):
    """Eigensolver iteration exceeded its internal bound."""


class MatrixOverflowError(NumericsError):
    """Matrix exponential result, or its input's 1-norm, is not finite
    (overflows double precision)."""


class QuadratureError(NumericsError):
    """Adaptive quadrature could not reach the requested tolerance."""


class MaxSubdivisionsError(QuadratureError):
    """Adaptive bisection budget exhausted."""


class NonFiniteIntegrandError(QuadratureError):
    """Integrand returned NaN or Inf."""


class OdeError(NumericsError):
    """ODE integration failed."""


class StepUnderflowError(OdeError):
    """Required step size fell below machine spacing."""


class MaxStepsError(OdeError):
    """Step budget exhausted before reaching the final time."""


class InvariantViolationError(NumericsError):
    """An integrated state is NaN or its trace, Hermiticity or positivity
    drifted past the hard error threshold."""


class NegativeRateWarning(UserWarning):
    """A time-dependent rate went negative; the generator is not GKSL at
    this instant and complete positivity of the map is not certified."""
