"""Mode values, ball probabilities and radial moments of isotropic
multivariate Student t distributions, with the Gaussian as the
infinite-degrees-of-freedom member of the family.

`import tmode` loads no submodule. Every public name and submodule
follows one rule: its home module is imported on first use and the
result is bound here, so later lookups are plain attribute hits. A
process without valid bytecode compiles every module it imports, and
`mcoracle` also imports numpy, which costs more than the rest of the
package together.
"""

import importlib

__version__ = "0.1.0"

# home submodule -> the public names it exports here
_EXPORTS = {
    "errors": (
        "ConvergenceError",
        "DimensionMismatchError",
        "DomainError",
        "MomentExistenceError",
        "MonotonicityViolationError",
        "QuadratureConvergenceError",
    ),
    "specfun": ("digamma", "log_gamma", "log_gamma_ratio", "polygamma", "reg_inc_beta", "reg_lower_inc_gamma"),
    "tdist": (
        "GAUSSIAN_DOF",
        "check_dim",
        "check_dof",
        "kurtosis_ratio",
        "log_density",
        "log_mode_value",
        "mode_value",
        "moment_ratio",
        "radial_moment",
    ),
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
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    home = name if name in _EXPORTS else _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module("." + home, __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS, *_HOMES})
