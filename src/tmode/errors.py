"""Exception types shared across the package.

A public function fails in one of two kinds: DomainError for an argument
outside the documented domain (the CLI exits 2), and ConvergenceError for
an expansion or quadrature that stopped short (the CLI exits 1). Every
other class but MonotonicityViolationError subclasses one of the two.
"""

__all__ = [
    "DomainError",
    "DimensionMismatchError",
    "MomentExistenceError",
    "QuadratureConvergenceError",
    "ConvergenceError",
    "MonotonicityViolationError",
]


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a function."""


class DimensionMismatchError(DomainError):
    """A point's length does not match the requested dimension."""


class MomentExistenceError(DomainError):
    """A radial moment was requested that the distribution does not possess.

    The m-th radial moment of the heavy-tailed family exists only for
    m < nu; kurtosis comparisons additionally need nu > 4.
    """


class ConvergenceError(RuntimeError):
    """A series or continued fraction ran out of iterations.

    Carries the expansion's value when it stopped and the number of
    iterations it ran, so callers can still inspect the partial result.
    """

    def __init__(self, message: str, best_estimate: float, iterations: int):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.iterations = iterations


class QuadratureConvergenceError(ConvergenceError):
    """The quadrature reached its level cap (iterations); carries its last error estimate too."""

    def __init__(self, message: str, best_estimate: float, error_estimate: float, iterations: int):
        super().__init__(message, best_estimate, iterations)
        self.error_estimate = error_estimate


class MonotonicityViolationError(RuntimeError):
    """Numerical evidence contradicted the proven monotonicity pattern.

    This is raised when derivative signs on a grid are mixed, when mode
    values move against the classified sign, or when the odd-dimension
    induction inequality fails.
    Each event would indicate a defect in the numerics, so it should
    never fire in practice.
    """

    def __init__(self, message: str, witnesses=None):
        super().__init__(message)
        self.witnesses = list(witnesses) if witnesses is not None else []
