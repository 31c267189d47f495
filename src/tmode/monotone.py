"""Numerical verification of how the mode value moves with the tail weight.

The mode value c(nu, k), viewed as a function of nu at fixed dimension k,
is increasing for k = 1, identically 1/(2 pi) for k = 2, and decreasing
for every k >= 3. This module evaluates the analytic derivative

    d/dnu ln c(nu, k) = (1/2) (psi((nu+k)/2) - psi(nu/2) - k/nu)

on grids, classifies the sign pattern, cross-checks the derivative
against a central finite difference of the log mode value, and exposes
the even-dimension product form plus the odd-dimension induction step
used to establish the pattern analytically.

A mixed sign pattern would contradict the proven classification, so it
raises MonotonicityViolationError instead of being folded into a report;
that error firing means a numerical defect, not new mathematics.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import DomainError, MonotonicityViolationError
from .specfun import _real, _require_count, _require_positive, digamma
from .tdist import check_dim, check_dof, log_mode_value, mode_value

__all__ = [
    "DEFAULT_GRID_RANGE",
    "DEFAULT_GRID_POINTS",
    "ZERO_TOL",
    "FD_STEP_SCALE",
    "FD_RESIDUAL_FLOOR",
    "INDUCTION_SLACK",
    "default_nu_grid",
    "dlog_mode_value",
    "mode_value_even_product",
    "MonotonicityReport",
    "classify_monotonicity",
    "induction_step_check",
    "FD_RESIDUAL_BOUND",
    "PRODUCT_RTOL",
    "VERIFY_COLUMNS",
    "verify_dimension",
]

DEFAULT_GRID_RANGE = (0.01, 1e4)
DEFAULT_GRID_POINTS = 200
# |derivative| at or below this counts as zero when classifying signs
ZERO_TOL = 1e-12
# central difference step is nu * FD_STEP_SCALE
FD_STEP_SCALE = 1e-6
# finite-difference residuals are measured relative to
# max(FD_RESIDUAL_FLOOR, |derivative|) so the constant case stays finite
FD_RESIDUAL_FLOOR = 1e-8
# slack allowed when checking the induction chain inequality
INDUCTION_SLACK = 1e-12
# verify_dimension's bounds: the worst finite-difference residual, and the
# worst relative gap between mode_value and the even-k product form; the
# residual bound is kept as text too, as failure messages print it
_FD_BOUND_TEXT = "1e-5"
FD_RESIDUAL_BOUND = float(_FD_BOUND_TEXT)
PRODUCT_RTOL = 1e-12
# the fields of verify_dimension's row
VERIFY_COLUMNS = ("k", "expected", "classification", "max_fd_residual", "aux_check", "ok")

# consecutive mode values are compared directly only where they cannot
# underflow into ties; above this the derivative signs carry the claim
_VALUE_CHECK_NU_MAX = 100.0


def default_nu_grid(
    lo: float = DEFAULT_GRID_RANGE[0],
    hi: float = DEFAULT_GRID_RANGE[1],
    points: int = DEFAULT_GRID_POINTS,
) -> tuple[float, ...]:
    """Log-spaced tail-weight grid that starts at exactly lo and ends at exactly hi."""
    lo = _real(lo, "lo")
    hi = _real(hi, "hi")
    if not 0.0 < lo < hi < math.inf:
        raise DomainError(f"grid range must satisfy 0 < lo < hi < inf, got [{lo}, {hi}]")
    points = _require_count(points, "grid points", 2)
    llo = math.log10(lo)
    lhi = math.log10(hi)
    return (lo, *(10.0 ** (llo + i * (lhi - llo) / (points - 1)) for i in range(1, points - 1)), hi)


def _derivative_sum(nu: float, k: int) -> float:
    # psi((nu+k)/2) - psi(nu/2) - k/nu; dlog_mode_value is half of this
    return digamma(0.5 * (nu + k)) - digamma(0.5 * nu) - k / nu


def dlog_mode_value(nu, k: int) -> float:
    """Analytic nu-derivative of ln c(nu, k), for finite nu."""
    nu = check_dof(nu)
    if math.isinf(nu):
        raise DomainError("the derivative in nu is not defined at the Gaussian limit")
    k = check_dim(k)
    return 0.5 * _derivative_sum(nu, k)


def mode_value_even_product(nu, k: int) -> float:
    """c(nu, k) for even k via the finite product

        pi^(-k/2) * (1/2 + (k/2-1)/nu) * ... * (1/2 + 1/nu) * (1/2),

    which needs no Gamma evaluations at all. Serves as an independent
    route against mode_value for even dimensions.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    if k % 2:
        raise DomainError(f"the product form exists only for even dimensions, got k={k}")
    if math.isinf(nu):
        return (2.0 * math.pi) ** (-0.5 * k)
    value = 0.5 * math.pi ** (-0.5 * k)
    for j in range(1, k // 2):
        value *= 0.5 + j / nu
    return value


class MonotonicityReport(NamedTuple):
    """Grid evidence for one dimension's classification."""

    classification: str  # "increasing" | "constant" | "decreasing"
    max_derivative_residual: float


def _validate_grid(grid: Sequence[float]) -> tuple[float, ...]:
    vals = tuple(_require_positive(v, "grid point") for v in grid)
    if len(vals) < 2:
        raise DomainError("grid needs at least 2 points")
    if not all(a < b for a, b in zip(vals, vals[1:])):
        raise DomainError("grid must be strictly increasing")
    return vals


def classify_monotonicity(k: int, grid: Sequence[float] | None = None) -> MonotonicityReport:
    """Classify the sign of d/dnu ln c(nu, k) over a tail-weight grid.

    The grid defaults to default_nu_grid(). Returns a report carrying the
    classification and the worst discrepancy between the analytic
    derivative and a central finite difference of the log mode value
    (step nu * 1e-6, measured relative to max(1e-8, |derivative|)).
    Derivatives within ZERO_TOL of 0 count as zero; mixed signs beyond
    it raise MonotonicityViolationError listing the offending
    (nu, derivative) pairs; with correct numerics that never happens.
    """
    k = check_dim(k)
    vals = default_nu_grid() if grid is None else _validate_grid(grid)

    derivs = []
    signs = set()
    max_residual = 0.0
    for nu in vals:
        d = dlog_mode_value(nu, k)
        derivs.append(d)
        if d > ZERO_TOL:
            signs.add(1)
        elif d < -ZERO_TOL:
            signs.add(-1)
        else:
            signs.add(0)
        h = nu * FD_STEP_SCALE
        fd = (log_mode_value(nu + h, k) - log_mode_value(nu - h, k)) / (2.0 * h)
        residual = abs(d - fd) / max(FD_RESIDUAL_FLOOR, abs(d))
        if residual > max_residual:
            max_residual = residual

    if signs == {0}:
        classification = "constant"
    elif 1 in signs and -1 not in signs:
        classification = "increasing"
    elif -1 in signs and 1 not in signs:
        classification = "decreasing"
    else:
        witnesses = [(nu, d) for nu, d in zip(vals, derivs) if abs(d) > ZERO_TOL]
        raise MonotonicityViolationError(
            f"mixed derivative signs for k={k}; the classification is ill-defined",
            witnesses=witnesses,
        )

    # corroborate with actual value movement where values cannot tie
    witnesses = []
    value_a = mode_value(vals[0], k)
    for nu_a, nu_b in zip(vals, vals[1:]):
        if nu_b > _VALUE_CHECK_NU_MAX:
            break
        value_b = mode_value(nu_b, k)
        delta = value_b - value_a
        value_a = value_b
        ok = (
            delta > 0.0
            if classification == "increasing"
            else delta < 0.0
            if classification == "decreasing"
            else delta == 0.0
        )
        if not ok:
            witnesses.append((nu_a, delta))
    if witnesses:
        raise MonotonicityViolationError(
            f"mode values move against the '{classification}' classification for k={k}",
            witnesses=witnesses,
        )

    return MonotonicityReport(classification, max_residual)


def induction_step_check(nu, k: int) -> tuple[float, float]:
    """Evaluate the odd-dimension induction chain at one point.

    For odd k >= 3 returns (lhs(k+2), lhs(k)) where

        lhs(k) = psi((nu+k)/2) - psi(nu/2) - k/nu.

    Stepping k -> k+2 adds 2/(nu+k) - 2/nu <= 0, so the chain must not
    increase; a violation beyond INDUCTION_SLACK raises
    MonotonicityViolationError. Both components are nonpositive in this
    range, matching the decreasing classification.
    """
    nu = check_dof(nu)
    if math.isinf(nu):
        raise DomainError("the induction chain is a finite-nu statement")
    k = check_dim(k)
    if k < 3 or k % 2 == 0:
        raise DomainError(f"the induction step applies to odd k >= 3, got k={k}")
    lhs_k = _derivative_sum(nu, k)
    lhs_next = _derivative_sum(nu, k + 2)
    if lhs_next > lhs_k + INDUCTION_SLACK:
        raise MonotonicityViolationError(
            f"induction chain increased at nu={nu}, k={k}: {lhs_next} > {lhs_k}",
            witnesses=[(nu, lhs_next - lhs_k)],
        )
    return lhs_next, lhs_k


def verify_dimension(k: int, grid: Sequence[float]) -> tuple[list, list[str]]:
    """Check the proven pattern for one dimension along a tail-weight grid.

    Returns a row with the fields VERIFY_COLUMNS and the failures found,
    one line each starting "k=<k>: "; ok is true exactly when there are
    none. Three checks: the classification is the proven one (increasing
    for k = 1, constant for k = 2, decreasing from k = 3 on), the
    finite-difference residual is at most FD_RESIDUAL_BOUND, and an
    independent route agrees (the product form within PRODUCT_RTOL for
    even k, the induction step at every grid point for odd k >= 3). A
    mixed sign pattern gives the row (k, expected, "violated", nan, "-",
    False).
    """
    k = check_dim(k)
    grid = _validate_grid(grid)
    expected = {1: "increasing", 2: "constant"}.get(k, "decreasing")
    try:
        report = classify_monotonicity(k, grid=grid)
    except MonotonicityViolationError as exc:
        return [k, expected, "violated", math.nan, "-", False], [f"k={k}: {exc}"]
    failures = []
    aux = "-"
    if k % 2 == 0:
        pairs = [(mode_value(nu, k), mode_value_even_product(nu, k)) for nu in grid]
        rel = max(abs(c - product) / c for c, product in pairs)
        aux = f"product rel {rel:.2e}"
    elif k >= 3:
        aux = "induction"
        try:
            for nu in grid:
                induction_step_check(nu, k)
        except MonotonicityViolationError as exc:
            failures.append(f"k={k}: {exc}")
    residual = report.max_derivative_residual
    if report.classification != expected:
        failures.append(f"k={k}: classified {report.classification}, expected {expected}")
    if not residual <= FD_RESIDUAL_BOUND:
        failures.append(f"k={k}: finite-difference residual {residual:.2e} exceeds {_FD_BOUND_TEXT}")
    if k % 2 == 0 and not rel <= PRODUCT_RTOL:
        failures.append(f"k={k}: product-form disagreement {aux}")
    return [k, expected, report.classification, residual, aux, not failures], failures
