"""Mode values, ball probabilities and radial moments of isotropic
multivariate Student t distributions, with the Gaussian as the
infinite-degrees-of-freedom member of the family.

`errors`, `specfun` and `tdist`, which every CLI subcommand needs, load
with the package. `ballprob` (for `table1` and `sample`), `monotone` (for
the log-spaced grids and `verify`) and `mcoracle` (for Monte Carlo), and
the names each exports here, load on first use: a process without valid
bytecode compiles every module it imports, and `mcoracle` also imports
numpy, which costs more than the rest of the package together.
"""

import importlib

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DomainError,
    MomentExistenceError,
    MonotonicityViolationError,
    QuadratureConvergenceError,
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


# deferred submodule -> the names it exports here
_DEFERRED = {
    "ballprob": ("QuadResult", "Table1Row", "ball_prob", "ball_prob_quadrature", "format_published", "table1"),
    "monotone": (
        "MonotonicityReport",
        "classify_monotonicity",
        "default_nu_grid",
        "dlog_mode_value",
        "induction_step_check",
        "mode_value_even_product",
    ),
    "mcoracle": ("SampleBatch", "SplitMix64", "estimate_ball_prob", "estimate_ball_prob_prefixes", "sample_t"),
}
_HOMES = {name: module for module, names in _DEFERRED.items() for name in names}


def __getattr__(name):
    home = name if name in _DEFERRED else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    return module if name == home else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_DEFERRED, *_HOMES})
