"""Probability mass inside centered balls, via two independent routes.

The closed form reduces P(|X| <= r) to the regularized incomplete beta
(finite nu) or the regularized lower incomplete gamma (Gaussian limit).
The quadrature route integrates the radial density with adaptive Simpson
refinement and knows nothing about either incomplete function, so the
two can be played against each other as a cross-check.

table1() reproduces the published 4x4 grid of ball probabilities at
r = 0.1 that motivates the whole exercise: mass increasing in the tail
weight in dimension 1, nearly flat in dimension 2, decreasing in
dimensions 3 and 4.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import DomainError, QuadratureConvergenceError
from .specfun import _reg_inc_beta, _require_nonnegative, digamma, log_gamma, reg_lower_inc_gamma
from .tdist import check_dim, check_dof, log_mode_value

__all__ = [
    "QUAD_ABS_TOL",
    "QUAD_REL_TOL",
    "QUAD_MAX_DEPTH",
    "QuadResult",
    "ball_prob",
    "ball_prob_quadrature",
    "Table1Row",
    "table1",
    "TABLE1_NU",
    "TABLE1_RADIUS",
    "TABLE1_DIMS",
    "TABLE1_PRINTED",
    "TABLE1_DECIMALS",
    "format_published",
]


# adaptive Simpson's tolerance is max(QUAD_ABS_TOL, QUAD_REL_TOL * |integral|)
QUAD_ABS_TOL = 1e-10
QUAD_REL_TOL = 1e-12
QUAD_MAX_DEPTH = 60


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def ball_prob(nu, k: int, r) -> float:
    """P(|X| <= r) by the closed form.

    For finite nu the squared norm satisfies |X|^2/k ~ F(k, nu), so the
    probability is I_x(k/2, nu/2) at x = r^2/(r^2 + nu), with the
    complement 1 - x = nu/(r^2 + nu) passed alongside so it is never
    formed by subtraction; the Gaussian limit uses the chi-square law,
    P(k/2, r^2/2).
    """
    nu = check_dof(nu)
    k = check_dim(k)
    r = _require_nonnegative(r, "radius")
    if r == 0.0:
        return 0.0
    if math.isinf(nu):
        return reg_lower_inc_gamma(0.5 * k, 0.5 * r * r)
    r2 = r * r
    total = r2 + nu
    if math.isinf(total):
        raise DomainError(f"r^2 + nu overflows at nu={nu!r}, r={r!r}")
    y = nu / total
    if y == 0.0 or 0.5 * nu == 0.0:
        # nu < 4.4e-16: ln(1 - P) = b (ln y + psi(k/2) - psi(1)) to first order in b = nu/2,
        # clamped where r^2 is near nu and the true P is a few subnormals at most
        log_tail = (math.log(nu) - math.log(total) + digamma(0.5 * k) - digamma(1.0)) * 0.5 * nu
        return max(0.0, -math.expm1(log_tail))
    return _reg_inc_beta(0.5 * k, 0.5 * nu, r2 / total, y)


def _simpson_recurse(
    f: Callable[[float], float],
    a: float,
    fa: float,
    m: float,
    fm: float,
    b: float,
    fb: float,
    whole: float,
    tol: float,
    depth_left: int,
) -> tuple[float, float, bool]:
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, abs(delta) / 15.0, True
    if depth_left == 0:
        # out of depth: report the Richardson-extrapolated value anyway
        return left + right + delta / 15.0, abs(delta) / 15.0, False
    lv, le, lok = _simpson_recurse(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth_left - 1)
    rv, re, rok = _simpson_recurse(f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth_left - 1)
    return lv + rv, le + re, lok and rok


def _adaptive_simpson(f, a: float, b: float) -> QuadResult:
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(QUAD_ABS_TOL, QUAD_REL_TOL * abs(whole))
    value, err, ok = _simpson_recurse(f, a, fa, m, fm, b, fb, whole, tol, QUAD_MAX_DEPTH)
    if not ok:
        raise QuadratureConvergenceError(
            f"refinement depth {QUAD_MAX_DEPTH} exhausted on [{a}, {b}]",
            best_estimate=value,
            error_estimate=err,
        )
    return QuadResult(value, err)


def ball_prob_quadrature(nu, k: int, r) -> QuadResult:
    """P(|X| <= r) by integrating the radial density.

    Integrates  S(k) * s^(k-1) * f(s e1)  over [0, r], where S(k) is the
    surface area of the unit (k-1)-sphere, to the fixed QUAD_* tolerances.
    Returns the value with its error estimate; raises
    QuadratureConvergenceError (carrying the best estimate) if
    QUAD_MAX_DEPTH refinement levels run out.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    r = _require_nonnegative(r, "radius")
    if r == 0.0:
        return QuadResult(0.0, 0.0)

    log_surface = math.log(2.0) + 0.5 * k * math.log(math.pi) - log_gamma(0.5 * k)
    base = log_mode_value(nu, k)
    gaussian = math.isinf(nu)

    def integrand(s: float) -> float:
        if gaussian:
            log_f = base - 0.5 * s * s
        else:
            log_f = base - 0.5 * (nu + k) * math.log1p(s * s / nu)
        if s == 0.0:
            return math.exp(log_surface + log_f) if k == 1 else 0.0
        return math.exp(log_surface + (k - 1) * math.log(s) + log_f)

    return _adaptive_simpson(integrand, 0.0, r)


# ------------------------------------------------------------------ table 1

TABLE1_NU: tuple[float, ...] = (1.0, 2.0, 10.0, math.inf)
TABLE1_DIMS: tuple[int, ...] = (1, 2, 3, 4)
TABLE1_RADIUS = 0.1

# Decimal places the published table prints per dimension column.
TABLE1_DECIMALS: tuple[int, ...] = (6, 8, 9, 10)

# The published entries, verbatim. The matching rule is: format the
# computed probability with the column's decimal count and compare the
# strings exactly.
TABLE1_PRINTED: dict[float, tuple[str, str, str, str]] = {
    1.0: ("0.063451", "0.00496281", "0.000419374", "0.0000368831"),
    2.0: ("0.070535", "0.00497512", "0.000350918", "0.0000247519"),
    10.0: ("0.077679", "0.00498503", "0.000284236", "0.0000149302"),
    math.inf: ("0.079656", "0.00498752", "0.000265165", "0.0000124584"),
}


def format_published(value: float, k: int) -> str:
    """Format a ball probability the way the published table prints it."""
    check_dim(k)
    if k not in TABLE1_DIMS:
        raise DomainError(f"published table covers k in {TABLE1_DIMS}, got {k}")
    return f"{value:.{TABLE1_DECIMALS[k - 1]}f}"


class Table1Row(NamedTuple):
    """One tail weight's row of ball probabilities for k = 1..4."""

    nu: float
    probs: tuple[float, float, float, float]


def table1() -> list[Table1Row]:
    """Recompute the published grid at r = 0.1 from the closed form."""
    rows = []
    for nu in TABLE1_NU:
        probs = tuple(ball_prob(nu, k, TABLE1_RADIUS) for k in TABLE1_DIMS)
        if not (probs[0] <= 1.0 and probs[-1] >= 0.0 and all(a > b for a, b in zip(probs, probs[1:]))):
            raise DomainError(f"nu={nu} row is not probabilities decreasing in the dimension: {probs}")
        rows.append(Table1Row(nu, probs))
    return rows
