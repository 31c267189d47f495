"""Probability mass inside centered balls, via two independent routes.

The closed form reduces P(|X| <= r) to the regularized incomplete beta
(finite nu) or the regularized lower incomplete gamma (Gaussian limit).
The quadrature route integrates the radial density with the tanh-sinh
rule and knows nothing about either incomplete function, so the two can
be played against each other as a cross-check.

table1() reproduces the published 4x4 grid of ball probabilities at
r = 0.1 that motivates the whole exercise: mass increasing in the tail
weight in dimension 1, nearly flat in dimension 2, decreasing in
dimensions 3 and 4.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

from .errors import DomainError, QuadratureConvergenceError
from .specfun import _NORMAL_MIN, _log_gamma_ratio, _reg_inc_beta, _reg_lower_inc_gamma, _require_nonnegative, digamma
from .tdist import check_dim, check_dof

__all__ = [
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


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def ball_prob(nu, k: int, r) -> float:
    """P(|X| <= r) by the closed form.

    For finite nu the squared norm satisfies |X|^2/k ~ F(k, nu), so the
    probability is I_x(k/2, nu/2) at x = r^2/(r^2 + nu), with the
    complement 1 - x = nu/(r^2 + nu) passed alongside so it is never
    formed by subtraction. Where r^2 + nu overflows, both come from
    ln(1 - x) = ln nu - 2 ln r - log1p(nu/r^2), which also goes to the
    front factor. Where r^2 or x falls below the normal doubles,
    ln x = 2 ln r - ln(r^2 + nu) goes to the front factor instead, so tiny
    radii keep their relative accuracy. The Gaussian limit uses the
    chi-square law, P(k/2, r^2/2), or its leading series term where r^2
    falls below the normal doubles.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    r = _require_nonnegative(r, "radius")
    if r == 0.0:
        return 0.0
    if math.isinf(nu):
        if r * r < _NORMAL_MIN:
            # r^2 has lost bits or underflowed: P(k/2, x) is its leading series
            # term x^(k/2) / Gamma(k/2 + 1), from ln x = 2 ln r - ln 2 with
            # r = m 2^e split exactly so that the power of two goes to ldexp
            m, e = math.frexp(r)
            return math.ldexp(math.exp(k * (math.log(m) - 0.5 * math.log(2.0)) - math.lgamma(0.5 * k + 1.0)), e * k)
        return _reg_lower_inc_gamma(0.5 * k, 0.5 * r * r)
    r2 = r * r
    total = r2 + nu
    log_min = None
    if math.isinf(total):
        # r > 1.34e154: y = nu / (r^2 + nu) < 1/2, the smaller side, comes from its log
        log_min = math.log(nu) - 2.0 * math.log(r) - math.log1p(nu / r / r)
        y, x = math.exp(log_min), -math.expm1(log_min)
    else:
        y, x = nu / total, r2 / total
    if (y == 0.0 and nu < 2.0**-51) or 0.5 * nu == 0.0:
        # nu < 4.4e-16: ln(1 - P) = b (ln y + psi(k/2) - psi(1)) to first order in b = nu/2,
        # clamped where r^2 is near nu and the true P is a few subnormals at most
        log_y = math.log(nu) - math.log(total) if log_min is None else log_min
        log_tail = (log_y + digamma(0.5 * k) - digamma(1.0)) * 0.5 * nu
        return max(0.0, -math.expm1(log_tail))
    # where r^2 or x falls below the normal doubles it has lost bits or
    # underflowed, so ln x, the log of the smaller side, comes from ln r
    if (x < _NORMAL_MIN or r2 < _NORMAL_MIN) and r2 < nu:
        log_min = 2.0 * math.log(r) - math.log(total)
    return _reg_inc_beta(0.5 * k, 0.5 * nu, x, y, log_min)


@functools.cache
def _nodes(level: int) -> tuple[tuple[float, float], ...]:
    # tanh-sinh nodes new on this level, t = j 0.375 / 2^level <= 4.5 (j odd past level 0), as
    # (distance from an end as a fraction of the interval, weight); each end takes t = 0 at half weight
    nodes = []
    for j in range(13) if level == 0 else range(1, 12 << level, 2):
        u = 0.5 * math.pi * math.sinh(t := j * 0.375 * 0.5**level)
        w = 0.25 * math.pi * math.cosh(t) / math.cosh(u) ** 2
        nodes.append((1.0 / (1.0 + math.exp(2.0 * u)), w if j else 0.5 * w))
    return tuple(nodes)


def _tanh_sinh(parts) -> QuadResult:
    """Sum over (log_f, a, b) in parts of the integral of exp(log_f) on [a, b].

    Tanh-sinh (Takahasi & Mori 1974), its step halved each level; a node at
    a + (b - a) d or b - (b - a) d keeps its relative accuracy near an end.
    Level 0 drops each end's nodes past the first below 1e-15 of the sum. It
    stops once two levels differ by at most 1e-10 of the value (no absolute
    floor) and raises QuadratureConvergenceError at level 7.
    """
    sides = [(log_f, end, step) for log_f, a, b in parts if b > a for end, step in ((a, b - a), (b, a - b))]
    terms = [[abs(step) * w * math.exp(log_f(end + step * d)) for d, w in _nodes(0)] for log_f, end, step in sides]
    raw = sum(map(sum, terms))
    lasts = [min(12, 1 + max((j for j, g in enumerate(t) if g > 1e-15 * raw), default=-1)) for t in terms]
    # the outermost kept nodes' share: large where mass lies past them, so that sum runs to the cap
    edge = sum(t[last] for t, last in zip(terms, lasts))
    value = 0.375 * raw
    for level in range(1, 8):
        for (log_f, end, step), last in zip(sides, lasts):
            raw += abs(step) * sum(w * math.exp(log_f(end + step * d)) for d, w in _nodes(level)[: last << level - 1])
        h = 0.375 * 0.5**level
        prev, value = value, h * raw
        error = abs(value - prev) + h * edge
        if error <= 1e-10 * value:
            return QuadResult(value, error)
    raise QuadratureConvergenceError(f"tanh-sinh level cap {level} reached", value, error, iterations=level)


def ball_prob_quadrature(nu, k: int, r) -> QuadResult:
    """P(|X| <= r) by integrating the radial density with the tanh-sinh rule.

    For finite nu the density of s = |X| is C sin^(k-1) theta cos^(nu-1) theta in
    theta = atan(s / sqrt(nu)), split at pi/4, the radial mode and s = sqrt(k-1) + 40,
    and taken in pi/2 - theta above pi/4. At nu = inf it is the chi density up to
    sqrt(k-1) + 40, past which it is below e^-800 of its peak. Measured for
    k <= 500: within 1e-13 relative of ball_prob on the published grid and on
    nu >= 0.7, k <= 6, r in [0.01, 10] (8.0e-15), and within 1.8e-13 of mpmath
    over nu in [1e-8, 1e12] plus inf, r in [1e-200, 1e150]. The rounding of the
    ln Gamma(k/2) and (k-1) ln s terms grows with k: at k = 5000 the result
    reaches 1 + 1.4e-12. Where the mass lies past the last node it raises
    QuadratureConvergenceError. On r = 1e-200, 1e-195, ..., 1e150 at k = 1, 4 and 20
    that is r >= 1e65 for nu <= 0.1 (1e60 for nu <= 0.05), and from smaller r as nu
    falls: r >= 1e30 at nu = 1e-50, 1e5 at 1e-100, 1e-55 at 1e-150 and 1e-130 at 1e-300.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    r = _require_nonnegative(r, "radius")
    a, s, k1, root_k1 = 0.5 * nu, 0.5 * k, k - 1, math.sqrt(k - 1)
    # ln of S(k) (2 pi)^(-k/2), with S(k) the surface area of the unit (k-1)-sphere
    log_chi = (1.0 - s) * math.log(2.0) - math.lgamma(s)
    if math.isinf(nu):
        top = min(r, root_k1 + 40.0)

        def chi(x: float) -> float:
            return log_chi + k1 * math.log(x) - 0.5 * x * x if x else (log_chi if k1 == 0 else -math.inf)

        return _tanh_sinh([(chi, 0.0, min(root_k1, top)), (chi, root_k1, top)])
    # ln C = ln(2 Gamma(a + s) / (Gamma(a) Gamma(s))) less (k-1) ln scale, from terms small at each end of nu
    if nu <= 1.0:
        scale, log_c = 1.0, math.log(nu) - math.lgamma(1.0 + a) + _log_gamma_ratio(s, a) + a * math.log(s)
    else:
        scale, log_c = math.sqrt(nu), log_chi + _log_gamma_ratio(a, s) + 0.5 * math.log(nu)
    log_c_phi = log_c + k1 * math.log(scale)
    half = 0.5 * (nu + k - 2.0)  # ln cos = -log1p(tan^2) / 2

    def in_theta(x: float) -> float:
        ts = scale * (t := math.tan(x))
        return log_c + k1 * math.log(ts) - half * math.log1p(t * t) if ts else (log_c if k1 == 0 else -math.inf)

    def in_phi(x: float) -> float:
        return log_c_phi + (nu - 1.0) * math.log(t := math.tan(x)) - half * math.log1p(t * t)

    # ends (theta, pi/2 - theta) = (atan2(y, x), atan2(x, y)); parts past pi/4 run in pi/2 - theta
    yx = ((0.0, 1.0), (1.0, 1.0), (root_k1, math.sqrt(nu + 1.0)), (root_k1 + 40.0, math.sqrt(nu)), (r, math.sqrt(nu)))
    ends = [(math.atan2(y, x), math.atan2(x, y)) for y, x in yx]
    ends = sorted(end for end in ends if end[0] <= ends[-1][0])
    parts = [(in_theta, lo[0], hi[0]) if hi[0] <= hi[1] else (in_phi, hi[1], lo[1]) for lo, hi in zip(ends, ends[1:])]
    return _tanh_sinh(parts)


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
