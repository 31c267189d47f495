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
    formed by subtraction, and so is the log of the smaller of the two.
    Where r^2 + nu overflows, both come from
    ln(1 - x) = ln nu - 2 ln r - log1p(nu/r^2). Where r^2 or x falls below
    the normal doubles, the log is ln x = 2 ln r - ln(r^2 + nu), so tiny
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
    log_small = None
    if math.isinf(total):
        # y = nu / (r^2 + nu) comes from its log; x is the smaller side only where nu > 9e307
        log_small = math.log(nu) - 2.0 * math.log(r) - math.log1p(nu / r / r)
        y, x = math.exp(log_small), -math.expm1(log_small)
        if x < y:
            log_small = math.log(x)
    else:
        y, x = nu / total, r2 / total
    if (y == 0.0 and nu < 2.0**-51) or 0.5 * nu == 0.0:
        # nu < 4.4e-16: ln(1 - P) = b (ln y + psi(k/2) - psi(1)) to first order in b = nu/2,
        # clamped where r^2 is near nu and the true P is a few subnormals at most
        log_y = math.log(nu) - math.log(total) if log_small is None else log_small
        log_tail = (log_y + digamma(0.5 * k) - digamma(1.0)) * 0.5 * nu
        return max(0.0, -math.expm1(log_tail))
    # where r^2 or x falls below the normal doubles it has lost bits or
    # underflowed, so ln x, the log of the smaller side, comes from ln r
    if (x < _NORMAL_MIN or r2 < _NORMAL_MIN) and r2 < nu:
        log_small = 2.0 * math.log(r) - math.log(total)
    return _reg_inc_beta(0.5 * k, 0.5 * nu, x, y, math.log(min(x, y)) if log_small is None else log_small)


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


def _tanh_sinh(log_f, ends) -> QuadResult:
    """The integral of exp(log_f) over the parts [a, b] between neighbouring ends, b > a.

    Tanh-sinh (Takahasi & Mori 1974), its step halved each level; a node at
    a + (b - a) d or b - (b - a) d keeps its relative accuracy near an end.
    Level 0 drops each end's nodes past the first below 1e-15 of the sum. It
    stops once two levels differ by at most 1e-10 of the value (no absolute
    floor) and raises QuadratureConvergenceError at level 7.
    """
    sides = [(end, step) for a, b in zip(ends, ends[1:]) if b > a for end, step in ((a, b - a), (b, a - b))]
    terms = [[abs(step) * w * math.exp(log_f(end + step * d)) for d, w in _nodes(0)] for end, step in sides]
    raw = sum(map(sum, terms))
    lasts = [min(12, 1 + max((j for j, g in enumerate(t) if g > 1e-15 * raw), default=-1)) for t in terms]
    # the outermost kept nodes' share: large where mass lies past them, so that sum runs to the cap
    edge = sum(t[last] for t, last in zip(terms, lasts))
    value = 0.375 * raw
    for level in range(1, 8):
        for (end, step), last in zip(sides, lasts):
            raw += abs(step) * sum(w * math.exp(log_f(end + step * d)) for d, w in _nodes(level)[: last << level - 1])
        h = 0.375 * 0.5**level
        prev, value = value, h * raw
        error = abs(value - prev) + h * edge
        if error <= 1e-10 * value:
            return QuadResult(value, error)
    raise QuadratureConvergenceError(f"tanh-sinh level cap {level} reached", value, error, iterations=level)


def ball_prob_quadrature(nu, k: int, r) -> QuadResult:
    """P(|X| <= r) by integrating the radial density with the tanh-sinh rule.

    The variable is v = sigma log1p(s^2/nu) for s = |X|, a = k/2, b = nu/2 and
    sigma = max(1, b) (v = s^2/2 at nu = inf), with density
    C (-sigma expm1(-v/sigma))^(a-1) e^(-v b/sigma), C = -ln B(a, b) - a ln sigma,
    on [0, V], V = sigma log1p(r^2/nu), cut (40 + 12 sqrt(a)) sigma/b past the mode
    and split at the mode when a > 1. Where V (a + 1) < 4e-18 it is the leading
    term e^C V^a / a. Measured against mpmath, relative, for k <= 20 and 500:
    4.6e-15 and 3.0e-14 on nu = 5e-324 to 1e-2, r = 1e-3 to 1e200 (a subnormal
    result to its last ulp); 1.4e-14 and 7.4e-14 on nu = 0.3 to 1e4, r = 1e-3 to
    1e10; 1.2e-14 and 1.9e-13 on nu = 1e8 to 1e300 and inf, r = 0.01 to 100; and
    1.6e-13 for k <= 20 at r down to 1e-300. The rounding of ln Gamma(a) and
    (a-1) ln v grows with k: 1 + 2.1e-12 at k = 5000, 1.7e-8 at k = 10^7.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    r = _require_nonnegative(r, "radius")
    a, b, a1 = 0.5 * k, 0.5 * nu, 0.5 * k - 1.0
    sigma, rate, scale = max(1.0, b), min(1.0, b), 1.0
    # V = sigma log1p(t) at t = r^2/nu, from logs where t overflows; r^2 / min(nu, 2) to double precision below 1e-17
    t = r / nu * r
    w = math.log1p(t) if t < math.inf else 2.0 * math.log(r) - math.log(nu)
    top = sigma * w if t >= 1e-17 else r * (r / min(nu, 2.0))
    mode = max(a1, 0.0) if math.isinf(nu) else sigma * math.log1p(max(k - 2.0, 0.0) / nu)
    # C = Q(b, a) - ln Gamma(a); below b = 1, 1/B(a, b) = b Gamma(a+b) / (Gamma(a) Gamma(1+b)), whose factor
    # nu multiplies the sum instead, so that the integrand and the result keep their bits down to nu = 5e-324
    if b < 1.0:
        scale, log_c = nu, _log_gamma_ratio(a, b) + b * math.log(a) - math.lgamma(1.0 + b) - math.log(2.0)
    else:
        log_c = (0.0 if math.isinf(nu) else _log_gamma_ratio(b, a)) - math.lgamma(a)
    if top * (a + 1.0) < 4e-18:
        # the leading term, within 1e-17; the nodes would leave the doubles below r = 1e-154
        log_v = 2.0 * math.log(r) - math.log(min(nu, 2.0)) if r else -math.inf
        return QuadResult(value := scale * math.exp(log_c + a * log_v - math.log(a)), value * top * (a + 1.0))
    width = 40.0 + 12.0 * math.sqrt(a)
    top = mode + width / rate if rate * (top - mode) > width else top

    # -s expm1(-v/s) is v within v/s, below 1e-180 for s past 1e200, where v/s could leave the normal doubles
    s = min(sigma, 1e200)

    def log_f(v: float) -> float:
        return log_c + a1 * math.log(-s * math.expm1(-v / s)) - rate * v

    value, error = _tanh_sinh(log_f, (0.0, min(mode, top), top))
    return QuadResult(scale * value, scale * error)


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
