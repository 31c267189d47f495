"""Exception types shared across the package."""

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


class DimensionMismatchError(ValueError):
    """A point's length does not match the requested dimension."""


class MomentExistenceError(ValueError):
    """A radial moment was requested that the distribution does not possess.

    The m-th radial moment of the heavy-tailed family exists only for
    m < nu; kurtosis comparisons additionally need nu > 4.
    """


class QuadratureConvergenceError(RuntimeError):
    """The quadrature reached its level cap without converging.

    Carries the best estimate obtained so far plus the achieved error
    estimate, so callers can still inspect the partial result.
    """

    def __init__(self, message: str, best_estimate: float, error_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.error_estimate = error_estimate


class ConvergenceError(RuntimeError):
    """A series or continued fraction ran out of iterations.

    Carries the expansion's value when it stopped and the number of
    iterations it ran, so callers can still inspect the partial result.
    """

    def __init__(self, message: str, best_estimate: float, iterations: int):
        super().__init__(message)
        self.best_estimate = best_estimate
        self.iterations = iterations


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
