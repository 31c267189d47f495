"""Numerical verification of how the mode value moves with the tail weight.

The mode value c(nu, k), viewed as a function of nu at fixed dimension k,
is increasing for k = 1, identically 1/(2 pi) for k = 2, and decreasing
for every k >= 3. This module evaluates the analytic derivative

    d/dnu ln c(nu, k) = L(k) / 2,   L(k) = psi((nu+k)/2) - psi(nu/2) - k/nu,

from the identities the proof rests on, not as a difference of digammas:
psi(x+1) = psi(x) + 1/x gives L(2) = 0 and L(k+2) = L(k) - 2k/(nu(nu+k)),
and L(1) > 0 is a series of positive terms. Scaled by nu(nu+k), no term
cancels or leaves the double range, so every sign is exact. The module
classifies the sign pattern on grids, cross-checks the derivative against
a central finite difference of the log mode value, and exposes the
even-dimension product form plus the odd-dimension induction step used
to establish the pattern analytically.

verify_dimensions checks k = 1..K in one walk over the grid per block of
dimensions, not one per k: at each point the log-gamma sums behind ln c
are prefix sums of one list of log1p terms per parity, and the induction
step reads the sum for k + 2 from the point's row. math.fsum is
correctly rounded, so every row equals verify_dimension's, the same walk
for one k. classify_monotonicity walks the grid for its one k alone; one
helper judges both walks.

A mixed sign pattern would contradict the proven classification, so it
raises MonotonicityViolationError instead of being folded into a report;
that error firing means a numerical defect, not new mathematics.
"""

from __future__ import annotations

import functools
import math
from array import array
from itertools import chain, repeat
from typing import NamedTuple, Sequence

from .errors import DomainError, MonotonicityViolationError
from .specfun import _HALF_SHIFT, _NORMAL_MIN, _RATIO_SERIES_MIN, _real, _require_count, _require_positive
from .tdist import _LN_2PI, _exp, _log_ratio_nu, _log_ratio_values, check_dim, check_dof

__all__ = [
    "DEFAULT_GRID_RANGE",
    "DEFAULT_GRID_POINTS",
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
    "verify_dimensions",
]

DEFAULT_GRID_RANGE = (0.01, 1e4)
DEFAULT_GRID_POINTS = 200
# central difference step is nu * FD_STEP_SCALE
FD_STEP_SCALE = 1e-6
# finite-difference residuals are measured relative to
# max(FD_RESIDUAL_FLOOR, |derivative|) so the constant case stays finite
FD_RESIDUAL_FLOOR = 1e-8
# slack allowed when checking the induction chain inequality
INDUCTION_SLACK = 1e-12
# verify_dimension's bounds: the worst finite-difference residual, and the
# worst relative gap between mode_value and the even-k product form where both
# are normal doubles (see _product_rel for the others); the residual bound is
# kept as text too, as failure messages print it
_FD_BOUND_TEXT = "1e-5"
FD_RESIDUAL_BOUND = float(_FD_BOUND_TEXT)
PRODUCT_RTOL = 1e-12
# the fields of verify_dimension's row
VERIFY_COLUMNS = ("k", "expected", "classification", "max_fd_residual", "aux_check", "ok")

# up to this nu the central difference of ln c still resolves the sign of
# its movement, so it must move with the classification; above it the
# derivative signs alone carry the claim
_VALUE_CHECK_NU_MAX = 100.0

# ln(1/2) and ln(pi), for _product_rel
_LOG_HALF = math.log(0.5)
_LOG_PI = math.log(math.pi)

# L(1)'s series in 1/y^2 (see _scaled_derivative_sum): its Horner coefficients
# n * _HALF_SHIFT[n-1] for odd n, highest first, and the z = 2y from which it holds
_L1_SERIES = tuple(n * _HALF_SHIFT[n - 1] for n in range(len(_HALF_SHIFT) - 1, 0, -2))
_L1_SERIES_MIN = 2.0 * _RATIO_SERIES_MIN


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


def _scaled_derivative_sum(nu: float, k: int) -> float:
    # nu (nu + k) L(k) for finite nu: L(k) is L(2) = 0, or L(1) for odd k, plus the steps
    # -2j/(nu (nu+j)) for j = k-2, k-4, ..., each scaled to -2j (nu+k)/(nu+j) = -2 c / (1 + nu/j)
    c = nu + k
    line = 0.0
    if k % 2:
        # nu c L(1): L(1) at y = z/2 exceeds L(1) at y + 1 by 2/(z (z+1) (z+2));
        # from y = _RATIO_SERIES_MIN on, L(1) = psi(y+1/2) - psi(y) - 1/(2y) is
        # the y-derivative of log_gamma_ratio's half-shift series in 1/y, whose
        # even orders vanish
        parts = []
        z = nu
        while z < _L1_SERIES_MIN:
            parts.append(2.0 * (nu / z) * c / ((z + 1.0) * (z + 2.0)))
            z += 2.0
        y = 0.5 * z
        w = 1.0 / (y * y)
        t = 0.0
        for b in _L1_SERIES:
            t = t * w + b
        parts.append(-(nu / y) * (c / y) * t)
        line = math.fsum(parts)
    if k < 3:
        return line
    return line - 2.0 * math.fsum(c / (1.0 + nu / j) for j in range(2 - k % 2, k - 1, 2))


def dlog_mode_value(nu, k: int) -> float:
    """Analytic nu-derivative of ln c(nu, k), for finite nu.

    The sign is exact (+0.0 for k = 2) and the relative error is below
    1e-13 wherever the value is a normal double. It saturates to +/-inf as
    nu -> 0 and underflows to +/-0.0, keeping its sign, past nu = 1e154.
    """
    nu = check_dof(nu)
    if math.isinf(nu):
        raise DomainError("the derivative in nu is not defined at the Gaussian limit")
    k = check_dim(k)
    return 0.5 * _scaled_derivative_sum(nu, k) / nu / (nu + k)


def mode_value_even_product(nu, k: int) -> float:
    """c(nu, k) for even k via the finite product

        pi^(-k/2) * (1/2 + (k/2-1)/nu) * ... * (1/2 + 1/nu) * (1/2),

    which needs no Gamma evaluations at all. Serves as an independent
    route against mode_value for even dimensions.

    The running product is kept as value * 2**scale with value between
    2^-512 and 2^512, so it never passes through the subnormals; wherever
    the plain product stays a normal double the bits are its own.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    if k % 2:
        raise DomainError(f"the product form exists only for even dimensions, got k={k}")
    if math.isinf(nu):
        return (2.0 * math.pi) ** (-0.5 * k)
    value, scale = 0.5 * math.pi ** (-0.5 * k), 0
    if value < _NORMAL_MIN:
        # k > 1236: the start itself is below the normal doubles, so build
        # pi^(-k/2) from normal powers pi^-512
        value = 0.5
        for h in range(k // 2, 0, -512):
            value, e = math.frexp(value * math.pi ** -min(h, 512))
            scale += e
    for j in range(1, k // 2):
        value *= 0.5 + j / nu
        if not 2.0**-512 <= value <= 2.0**512:
            value, e = math.frexp(value)
            scale += e
    try:
        return math.ldexp(value, scale)
    except OverflowError:
        return math.inf


def _product_rel(nu: float, k: int, log_c: float) -> tuple[float, float]:
    # (gap, bound): the gap |c - p| / c between the mode value c = exp(log_c), log_c =
    # ln c(nu, k), and the even-k product form at a finite nu, and the largest gap that
    # passes. Where both are normal doubles the bound is PRODUCT_RTOL. Where either is not
    # (c past 1.8e308 at tiny nu, or under 2.2e-308 at large k) the gap is
    # |expm1(ln p - ln c)|, with each factor's log formed without overflow:
    # ln(1/2 + j/nu) = ln j - ln nu + log1p(nu/(2j)). There rounding alone moves ln p - ln c
    # by whole ulps of the logs, and the bound allows for it:
    # - ln c (an fsum of positive log1p terms less (k/2) ln 2 pi) and ln p (an fsum plus
    #   ln 1/2 less (k/2) ln pi) round by about 2 ulps each at the scale of the sums on either
    #   side, m = |ln c| + (k/2) ln 2 pi;
    # - each of ln p's k/2 - 1 factors carries the same rounding of ln nu, and its own ones
    #   of ln j, the difference, the log1p and the sum, so they move ln p by up to k ulps
    #   of the largest log in them, max(|ln nu|, ln k).
    # For even k <= 1300 on the default grid and 60 points from 1e-320 to 1e300, and even
    # k <= 4000 on 12 such points, the gap stays below half the bound
    c = _exp(log_c)
    p = mode_value_even_product(nu, k)
    if _NORMAL_MIN <= c < math.inf and _NORMAL_MIN <= p < math.inf:
        return abs(c - p) / c, PRODUCT_RTOL
    log_nu = math.log(nu)
    log_p = math.fsum(math.log(j) - log_nu + math.log1p(0.5 * nu / j) for j in range(1, k // 2))
    gap = abs(math.expm1(log_p + _LOG_HALF - 0.5 * k * _LOG_PI - log_c))
    rounding = 4.0 * math.ulp(abs(log_c) + 0.5 * k * _LN_2PI) + k * math.ulp(max(abs(log_nu), math.log(k)))
    return gap, max(PRODUCT_RTOL, rounding)


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


@functools.cache
def _default_grid() -> tuple[float, ...]:
    # default_nu_grid(), built once for every call that names no grid
    return default_nu_grid()


def classify_monotonicity(k: int, grid: Sequence[float] | None = None) -> MonotonicityReport:
    """Classify the sign of d/dnu ln c(nu, k) over a tail-weight grid.

    The grid defaults to default_nu_grid(). Returns a report carrying the
    classification and the worst discrepancy between the analytic
    derivative and a central finite difference of the log mode value
    (step nu * 1e-6, none where it underflows to 0 and none where the
    derivative or the difference is infinite, as for k >= 3 below about
    nu = 1e-308, measured relative to max(1e-8, |derivative|)). The exact
    signs decide, with no tolerance band: all zero is "constant". Mixed
    signs raise MonotonicityViolationError listing the (nu, derivative)
    pairs of nonzero sign; so does a central difference at nu <= 100 of
    another sign than the classification (exactly 0 for "constant"),
    listing the (nu, difference) pairs. With correct numerics neither
    happens.
    """
    k = check_dim(k)
    vals = _default_grid() if grid is None else _validate_grid(grid)
    sums = array("d", map(_scaled_derivative_sum, vals, repeat(k)))
    fds = array("d")
    pi_term = 0.5 * k * _LN_2PI
    for nu in vals:
        h = nu * FD_STEP_SCALE
        if h:
            # log_mode_value(nu +/- h, k) less its checks: k and the grid are checked, and
            # 0 < h < nu; _log_ratio_nu takes nu + h = inf and a subnormal nu - h
            up, down = _log_ratio_nu(nu + h, k), _log_ratio_nu(nu - h, k)
            fds.append(((up - pi_term) - (down - pi_term)) / (2.0 * h))
        else:
            fds.append(math.nan)
    report = _report(k, vals, sums, fds)
    if isinstance(report, MonotonicityViolationError):
        raise report
    return report


# verify takes the dimensions in blocks that keep at most this many derivative sums,
# and at least one dimension, so what it holds at once is bounded whatever the
# number of dimensions
_BLOCK_SUMS = 2**14


def _sweep(ks: range, vals: tuple[float, ...]) -> list[tuple]:
    # (k, its MonotonicityReport or MonotonicityViolationError, verdict) per k of one block
    # of dimensions, from one walk over the grid; the verdict is the independent route's:
    # for even k the worst product-form gap and whether every gap is within its bound, for
    # odd k >= 3 the first induction failure (None if none). At each point the walk makes
    # the row of scaled derivative sums of every k, the central differences of ln c, and the
    # independent route, whose induction step reads S(nu, k + 2) from the row. The log-gamma sums at nu +/- h (and at nu for ln c) are
    # prefix sums of one term list per parity and point (see _log_ratio_values)
    n = len(ks)
    sums, fds = array("d"), array("d")
    verdicts = [None] * n
    pi_terms = [0.5 * k * _LN_2PI for k in ks]
    evens = ks[ks[0] % 2 :: 2]
    for nu in vals:
        row = list(map(_scaled_derivative_sum, repeat(nu, n), ks))
        sums.extend(row)
        h = nu * FD_STEP_SCALE
        if h:
            ups, downs = _log_ratio_values(nu + h, ks), _log_ratio_values(nu - h, ks)
            fds.extend([((up - t) - (down - t)) / (2.0 * h) for up, down, t in zip(ups, downs, pi_terms)])
        else:
            fds.extend(repeat(math.nan, n))
        centers = iter(_log_ratio_values(nu, evens) if evens else ())
        for i, k in enumerate(ks):
            if k % 2 == 0:
                rel, bound = _product_rel(nu, k, next(centers) - pi_terms[i])
                worst, passed = (rel, True) if verdicts[i] is None else verdicts[i]
                verdicts[i] = (max(worst, rel), passed and rel <= bound)
            elif k >= 3 and verdicts[i] is None:
                ahead = row[i + 2] if i + 2 < n else _scaled_derivative_sum(nu, k + 2)
                try:
                    _induction_step(nu, k, row[i], ahead)
                except MonotonicityViolationError as exc:
                    verdicts[i] = exc
    return [(k, _report(k, vals, sums[i::n], fds[i::n]), verdicts[i]) for i, k in enumerate(ks)]


def _report(k: int, vals: tuple[float, ...], sums: array, fds: array) -> MonotonicityReport | MonotonicityViolationError:
    # k's classification from the signs of its scaled derivative sums along the grid, then
    # the central differences fds of ln c check the derivative and, where they resolve, the
    # classified sign; fd is nan, and there is no difference, where the step underflows to 0
    column = {(s > 0.0) - (s < 0.0) for s in sums}
    if {1, -1} <= column:
        return MonotonicityViolationError(
            f"mixed derivative signs for k={k}; the classification is ill-defined",
            witnesses=[(nu, 0.5 * s / nu / (nu + k)) for nu, s in zip(vals, sums) if s],
        )
    # without mixed signs, their sum is the one nonzero sign, or 0
    sign = sum(column)
    classification = ("constant", "increasing", "decreasing")[sign]
    worst, moves = 0.0, []
    for nu, s, fd in zip(vals, sums, fds):
        if fd != fd:  # the one nan: a finite ln c at nu +/- h gives no other
            continue
        d = 0.5 * s / nu / (nu + k)
        # where both saturate to +/-inf (below about nu = 1e-308) there is no residual
        if math.isfinite(d) and math.isfinite(fd):
            residual = abs(d - fd) / max(FD_RESIDUAL_FLOOR, abs(d))
            if residual > worst:
                worst = residual
        if nu <= _VALUE_CHECK_NU_MAX and (fd > 0.0) - (fd < 0.0) != sign:
            moves.append((nu, fd))
    if moves:
        return MonotonicityViolationError(
            f"mode values move against the '{classification}' classification for k={k}",
            witnesses=moves,
        )
    return MonotonicityReport(classification, worst)


def induction_step_check(nu, k: int) -> tuple[float, float]:
    """Evaluate the odd-dimension induction chain at one point.

    For odd k >= 3 returns (lhs(k+2), lhs(k)) where

        lhs(k) = psi((nu+k)/2) - psi(nu/2) - k/nu,

    twice dlog_mode_value, with its accuracy and saturation. Stepping
    k -> k+2 adds 2/(nu+k) - 2/nu <= 0, so the chain must not increase;
    a violation beyond INDUCTION_SLACK raises MonotonicityViolationError.
    Both components are nonpositive in this range, matching the
    decreasing classification.
    """
    nu = check_dof(nu)
    if math.isinf(nu):
        raise DomainError("the induction chain is a finite-nu statement")
    k = check_dim(k)
    if k < 3 or k % 2 == 0:
        raise DomainError(f"the induction step applies to odd k >= 3, got k={k}")
    return _induction_step(nu, k, _scaled_derivative_sum(nu, k), _scaled_derivative_sum(nu, k + 2))


def _induction_step(nu: float, k: int, scaled_k: float, scaled_next: float) -> tuple[float, float]:
    # induction_step_check for checked arguments, given nu (nu + k) lhs(k) and
    # nu (nu + k + 2) lhs(k + 2)
    lhs_k = scaled_k / nu / (nu + k)
    lhs_next = scaled_next / nu / (nu + k + 2)
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
    independent route agrees (for even k the product form within
    PRODUCT_RTOL, or within the rounding of the logs they are compared in
    where either value leaves the normal doubles; for odd k >= 3 the
    induction step at every grid point). A
    mixed sign pattern gives the row (k, expected, "violated", nan, "-",
    False).
    """
    k = check_dim(k)
    return _verify(range(k, k + 1), _validate_grid(grid))[0]


def verify_dimensions(k_max: int, grid: Sequence[float]) -> list[tuple[list, list[str]]]:
    """verify_dimension for k = 1..k_max, in one sweep of the grid.

    The rows and failures are those of verify_dimension(k, grid) for each
    k, bit for bit; what does not depend on k is formed once per grid
    point and block of dimensions instead of once per k.
    """
    k_max = check_dim(k_max)
    return _verify(range(1, k_max + 1), _validate_grid(grid))


def _verify(ks: range, vals: tuple[float, ...]) -> list[tuple[list, list[str]]]:
    out = []
    size = max(1, _BLOCK_SUMS // len(vals))
    blocks = (range(first, min(first + size, ks.stop)) for first in range(ks.start, ks.stop, size))
    for k, report, verdict in chain.from_iterable(_sweep(block, vals) for block in blocks):
        expected = {1: "increasing", 2: "constant"}.get(k, "decreasing")
        if isinstance(report, MonotonicityViolationError):
            out.append(([k, expected, "violated", math.nan, "-", False], [f"k={k}: {report}"]))
            continue
        failures = []
        aux = "-"
        if k % 2 == 0:
            worst, passed = verdict
            aux = f"product rel {worst:.2e}"
        elif k >= 3:
            aux = "induction"
            if verdict is not None:
                failures.append(f"k={k}: {verdict}")
        residual = report.max_derivative_residual
        if report.classification != expected:
            failures.append(f"k={k}: classified {report.classification}, expected {expected}")
        if not residual <= FD_RESIDUAL_BOUND:
            failures.append(f"k={k}: finite-difference residual {residual:.2e} exceeds {_FD_BOUND_TEXT}")
        if k % 2 == 0 and not passed:
            failures.append(f"k={k}: product-form disagreement {aux}")
        out.append(([k, expected, report.classification, residual, aux, not failures], failures))
    return out
