"""Mode values, ball probabilities and radial moments of isotropic
multivariate Student t distributions, with the Gaussian as the
infinite-degrees-of-freedom member of the family.

The Monte Carlo oracle (`tmode.mcoracle` and the names it exports) is
loaded on first use: it is the only part of the package that needs
numpy, whose import costs more than the rest of the package together.
"""

import importlib

from .ballprob import (
    QuadResult,
    Table1Row,
    ball_prob,
    ball_prob_quadrature,
    format_published,
    table1,
)
from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    MomentExistenceError,
    MonotonicityViolationError,
    QuadratureConvergenceError,
)
from .monotone import (
    MonotonicityReport,
    classify_monotonicity,
    default_nu_grid,
    dlog_mode_value,
    induction_step_check,
    mode_value_even_product,
)
from .specfun import digamma, log_gamma, log_gamma_ratio, polygamma, reg_inc_beta, reg_lower_inc_gamma
from .tdist import (
    GAUSSIAN_DOF,
    check_dim,
    check_dof,
    kurtosis_ratio,
    log_density,
    log_mode_value,
    mode_value,
    moment_ratio,
    radial_moment,
)

__version__ = "0.1.0"

__all__ = [
    "GAUSSIAN_DOF",
    "ConvergenceError",
    "DimensionMismatchError",
    "DomainError",
    "MomentExistenceError",
    "MonotonicityReport",
    "MonotonicityViolationError",
    "QuadResult",
    "QuadratureConvergenceError",
    "SampleBatch",
    "SplitMix64",
    "Table1Row",
    "ball_prob",
    "ball_prob_quadrature",
    "check_dim",
    "check_dof",
    "classify_monotonicity",
    "default_nu_grid",
    "digamma",
    "dlog_mode_value",
    "estimate_ball_prob",
    "estimate_ball_prob_prefixes",
    "format_published",
    "induction_step_check",
    "kurtosis_ratio",
    "log_density",
    "log_gamma",
    "log_gamma_ratio",
    "log_mode_value",
    "mode_value",
    "mode_value_even_product",
    "moment_ratio",
    "polygamma",
    "radial_moment",
    "reg_inc_beta",
    "reg_lower_inc_gamma",
    "sample_t",
    "table1",
    "__version__",
]


_MCORACLE_NAMES = frozenset(
    ("SampleBatch", "SplitMix64", "estimate_ball_prob", "estimate_ball_prob_prefixes", "sample_t")
)


def __getattr__(name):
    if name == "mcoracle" or name in _MCORACLE_NAMES:
        mcoracle = importlib.import_module(".mcoracle", __name__)
        return mcoracle if name == "mcoracle" else getattr(mcoracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
