"""Isotropic multivariate Student t family: mode values, densities, moments.

The family is indexed by the tail weight nu in (0, inf] and the dimension
k >= 1. The density at a point x is

    f(x) = c(nu, k) * (1 + |x|^2 / nu)^(-(nu+k)/2),
    c(nu, k) = Gamma((nu+k)/2) / ((pi nu)^(k/2) Gamma(nu/2)),

and nu = GAUSSIAN_DOF (float infinity) selects the standard Gaussian
limit with c(k) = (2 pi)^(-k/2). The mode value c(nu, k) is what the
monotone module studies as a function of nu.

Numerical core: no Gamma quotient is formed from raw log_gamma
differences. With a = nu/2 those differences grow like a*ln(a) while the
result stays O(k), so one ulp of the intermediates (about 9e-10 at
nu = 1e6) would swamp the advertised accuracy. Every quotient instead
goes through specfun.log_gamma_ratio, Q(a, s) = ln Gamma(a + s) -
ln Gamma(a) - s ln a, which stays tiny for large a:

    ln c(nu, k) = Q(nu/2, k/2) - (k/2) ln(2 pi),
    ln E|X|^m   = (m/2) ln k + Q(k/2, m/2) + Q(nu/2, -m/2),

and the nu term vanishes in the Gaussian limit. For k = 2, Q = 0 and the
mode value is the constant 1/(2 pi) to within two ulps for every nu.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, DomainError, MomentExistenceError
from .specfun import _NOT_REAL, _real, _require_count, _require_nonnegative, log_gamma_ratio

__all__ = [
    "GAUSSIAN_DOF",
    "log_mode_value",
    "mode_value",
    "log_density",
    "radial_moment",
    "moment_ratio",
    "kurtosis_ratio",
]

# Explicit marker for the Gaussian member of the family.
GAUSSIAN_DOF = math.inf

_LN_2PI = math.log(2.0 * math.pi)


def check_dof(nu) -> float:
    """Validate a tail-weight parameter: positive real or infinity."""
    try:
        nu = float(nu)
    except _NOT_REAL:
        _real(nu, "nu")  # raises DomainError
    if math.isnan(nu) or nu <= 0.0:
        raise DomainError(f"nu must be positive (or inf for the Gaussian), got {nu!r}")
    return nu


def check_dim(k) -> int:
    """Validate a dimension: integer k >= 1."""
    return _require_count(k, "dimension", 1)


def _check_moment_order(m, *nus: float) -> float:
    # the m-th moment of each member exists for m < nu (always at nu = inf)
    m = _require_nonnegative(m, "moment order")
    for nu in nus:
        if m >= nu:
            raise MomentExistenceError(f"moment of order {m} does not exist for nu={nu} (needs m < nu)")
    return m


def _exp(x: float) -> float:
    # exp that saturates to inf instead of raising OverflowError
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_ratio_nu(nu: float, s: float) -> float:
    # Q(nu/2, s), which is 0 in the Gaussian limit. Only nu = 5e-324 halves to 0;
    # there Q has reached its a -> 0 limit lgamma(s) + (1 - s) ln a (0 at s = 0)
    if math.isinf(nu):
        return 0.0
    if 0.5 * nu == 0.0:
        return math.lgamma(s) + (1.0 - s) * (math.log(nu) - math.log(2.0)) if s else 0.0
    return log_gamma_ratio(0.5 * nu, s)


def log_mode_value(nu, k: int) -> float:
    """ln of the density's value at the origin, ln c(nu, k).

    Finite for every valid input; no intermediate overflows even for
    nu = 1e8 and k = 500 because all Gamma arithmetic stays in log space.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    return _log_ratio_nu(nu, 0.5 * k) - (0.5 * k) * _LN_2PI


def mode_value(nu, k: int) -> float:
    """Density at the mode (the origin): c(nu, k).

    Saturates to inf when the true value exceeds double range (tiny nu
    together with large k); use log_mode_value for those corners.
    """
    return _exp(log_mode_value(nu, k))


def log_density(nu, k: int, point: Sequence[float] | Iterable[float]) -> float:
    """Log density at a k-dimensional point.

    The point must have exactly k coordinates; anything else raises
    DimensionMismatchError. The density depends on the point only
    through its norm (the family is isotropic).
    """
    nu = check_dof(nu)
    k = check_dim(k)
    try:
        coords = [float(c) for c in point]
    except _NOT_REAL as exc:
        raise DomainError(f"coordinates must be real numbers: {exc}") from None
    if len(coords) != k:
        raise DimensionMismatchError(f"expected {k} coordinates, got {len(coords)}")
    for c in coords:
        if math.isnan(c) or math.isinf(c):
            raise DomainError(f"coordinates must be finite, got {c!r}")
    try:
        sq = math.fsum(c * c for c in coords)
    except OverflowError:
        # finite squares whose sum passes the double range
        sq = math.inf
    base = log_mode_value(nu, k)
    if math.isinf(nu):
        return base - 0.5 * sq
    if sq == math.inf:
        # |x| above about 1.3e154: ln q from the coordinates scaled by the largest |c|,
        # and ln(1 + q) = ln q + log1p(1/q) as q > 1
        s = max(abs(c) for c in coords)
        log_q = 2.0 * math.log(s) + math.log(math.fsum((c / s) ** 2 for c in coords)) - math.log(nu)
        return base - 0.5 * (nu + k) * (log_q + math.log1p(math.exp(-log_q)))
    q = sq / nu
    # where q overflows, log1p(q) is ln sq - ln nu to the last bit
    return base - 0.5 * (nu + k) * (math.log1p(q) if q < math.inf else math.log(sq) - math.log(nu))


def radial_moment(nu, k: int, m) -> float:
    """E |X|^m for the family member with tail weight nu in dimension k.

    Exists for 0 <= m < nu (always, in the Gaussian limit):

        E |X|^m = nu^(m/2) Gamma((k+m)/2) Gamma((nu-m)/2)
                  / (Gamma(k/2) Gamma(nu/2)),

    with the chi-distribution moment 2^(m/2) Gamma((k+m)/2) / Gamma(k/2)
    at nu = inf. m = 0 returns exactly 1.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    m = _check_moment_order(m, nu)
    return _exp(0.5 * m * math.log(k) + log_gamma_ratio(0.5 * k, 0.5 * m) + _log_ratio_nu(nu, -0.5 * m))


def moment_ratio(nu1, nu2, k: int, m) -> float:
    """Ratio of m-th radial moments between tail weights nu1 and nu2.

    The dimension-dependent factor Gamma((k+m)/2)/Gamma(k/2) is common to
    both members and cancels, so the ratio

        (nu1/nu2)^(m/2) Gamma((nu1-m)/2) Gamma(nu2/2)
        / (Gamma((nu2-m)/2) Gamma(nu1/2))

    does not involve k at all. k is still validated so the signature
    mirrors radial_moment, and the test suite checks this closed form
    against the direct quotient of radial_moment calls.
    """
    nu1 = check_dof(nu1)
    nu2 = check_dof(nu2)
    check_dim(k)
    m = _check_moment_order(m, nu1, nu2)
    return _exp(_log_ratio_nu(nu1, -0.5 * m) - _log_ratio_nu(nu2, -0.5 * m))


def kurtosis_ratio(nu1, nu2, k: int) -> float:
    """Ratio of multivariate kurtosis E|X|^4 / (E|X|^2)^2 between members.

    Both tail weights must exceed 4 so the fourth moment exists. The
    kurtosis itself is (k+2)(nu-2) / (k(nu-4)); in the ratio the
    dimension factor cancels, leaving (nu1-2)(nu2-4) / ((nu1-4)(nu2-2)),
    so the result is exactly free of k.
    """
    nu1 = check_dof(nu1)
    nu2 = check_dof(nu2)
    check_dim(k)
    for nu in (nu1, nu2):
        if not math.isinf(nu) and nu <= 4.0:
            raise MomentExistenceError(f"kurtosis comparison needs nu > 4, got nu={nu}")

    def excess(nu: float) -> float:
        return 1.0 if math.isinf(nu) else (nu - 2.0) / (nu - 4.0)

    return excess(nu1) / excess(nu2)
