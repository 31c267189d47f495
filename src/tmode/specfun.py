"""Self-contained gamma-family special functions.

Everything here is scalar, pure and reentrant: log_gamma (the standard
library's lgamma), the Gamma quotient log_gamma_ratio, digamma,
polygamma, the regularized incomplete beta and the regularized lower
incomplete gamma. One table of Bernoulli numbers feeds every
asymptotic series: the Gamma quotient's and the psi family's. Accuracy
was checked against high-precision references.

Domains are the positive reals (plus x in [0, 1] for the beta argument).
Arguments outside the domain, or not real numbers at all, raise
DomainError rather than returning NaN, so callers never have to re-check
outputs. A series or continued fraction that runs out of iterations
raises ConvergenceError.
"""

from __future__ import annotations

import math
import sys
from math import fsum, log1p

from .errors import ConvergenceError, DomainError

__all__ = [
    "log_gamma",
    "log_gamma_ratio",
    "digamma",
    "polygamma",
    "reg_inc_beta",
    "reg_lower_inc_gamma",
    "LOG_GAMMA_RTOL",
    "DIGAMMA_ATOL",
    "POLYGAMMA_ATOL",
    "REG_INC_BETA_ATOL",
    "REG_LOWER_INC_GAMMA_ATOL",
]

# Advertised accuracy targets (see the test suite for the measurements).
# log_gamma error is relative to max(1, |value|) since the function has
# zeros at x = 1 and x = 2 where a pure relative bound is meaningless.
LOG_GAMMA_RTOL = 1e-14
DIGAMMA_ATOL = 5e-15
POLYGAMMA_ATOL = 5e-15
REG_INC_BETA_ATOL = 1e-12
REG_LOWER_INC_GAMMA_ATOL = 1e-12

# Bernoulli numbers B_0..B_14, with B_1 = -1/2.
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0, -691 / 2730, 0.0, 7 / 6)

# For 0 < f < 1, Q(a, f) = sum_n c_n(f) / a^n with
# c_n(f) = (-1)^(n+1) (B_(n+1)(f) - B_(n+1)) / (n (n+1)). Row n - 1 holds
# the coefficients of c_n as a polynomial in f, highest power first; its
# constant term is zero. Twelve terms leave a remainder below 7e-18 for
# a >= _RATIO_SERIES_MIN; below that the direct lgamma difference is
# accurate because the values themselves are O(10).
_RATIO_ROWS = tuple(
    tuple((-1) ** (n + 1) * math.comb(n + 1, j) * _BERNOULLI[j] / (n * (n + 1)) for j in range(n + 1))
    for n in range(1, 13)
)
_RATIO_SERIES_MIN = 15.0


def _ratio_coefficients(f: float, terms: int) -> list[float]:
    coefficients = []
    for row in _RATIO_ROWS[:terms]:
        c = 0.0
        for b in row:
            c = c * f + b
        coefficients.append(c * f)
    return coefficients


# the half shift is what every odd dimension needs
_HALF_SHIFT = tuple(_ratio_coefficients(0.5, len(_RATIO_ROWS)))

# Whole shifts above this are not summed step by step (see log_gamma_ratio).
_MAX_STEPS = 10_000


# the least positive normal double; below it a float has lost bits
_NORMAL_MIN = sys.float_info.min

# what float() raises for an argument that is no real number
_NOT_REAL = (TypeError, ValueError, OverflowError)


# The package's argument rules. Each raises DomainError "<name> must be ...".
def _real(x, name: str) -> float:
    try:
        return float(x)
    except _NOT_REAL as exc:
        raise DomainError(f"{name} must be a real number: {exc}") from None


def _require_count(n, name: str, least: float = -math.inf) -> int:
    if isinstance(n, bool) or not isinstance(n, int):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    if n < least:
        # by its size past 2^53: Python formats no integer of more than 4300 digits
        got = n if n.bit_length() <= 53 else f"a negative {n.bit_length()}-bit integer"
        raise DomainError(f"{name} must be >= {least}, got {got}")
    return n


# The range rules, check_dof and log_gamma_ratio inline _real's conversion and
# call it only to raise: they run on every closed-form call.
def _require_positive(x, name: str) -> float:
    try:
        x = float(x)
    except _NOT_REAL:
        _real(x, name)  # raises DomainError
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be a finite positive real, got {x!r}")
    return x


def _require_nonnegative(x, name: str) -> float:
    try:
        x = float(x)
    except _NOT_REAL:
        _real(x, name)  # raises DomainError
    if not 0.0 <= x < math.inf:
        raise DomainError(f"{name} must be a finite nonnegative real, got {x!r}")
    return x


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0."""
    return math.lgamma(_require_positive(x, "x"))


def log_gamma_ratio(a: float, s: float) -> float:
    """Q(a, s) = ln Gamma(a + s) - ln Gamma(a) - s ln a, for a > 0 and a + s > 0.

    Every Gamma quotient in the package goes through this function. The
    raw log_gamma terms grow like a ln a while Q stays of order s^2 / a,
    so Q is summed from small pieces: log1p((f + j) / a) steps for the
    whole part of s and a Bernoulli-polynomial series in 1/a for its
    fractional part f. A negative shift uses
    Q(a, -t) = t log1p(t / (a - t)) - Q(a - t, t). Q(a, 0) and Q(a, 1)
    are exactly 0. Past 10^4 whole steps the absolute error grows to
    about 1e-16 * s.
    """
    a = _require_positive(a, "a")
    try:
        s = float(s)
    except _NOT_REAL:
        _real(s, "shift")  # raises DomainError
    if not math.isfinite(s) or a + s <= 0.0:
        raise DomainError(f"shift must be finite with a + s > 0, got a={a!r}, s={s!r}")
    return _log_gamma_ratio(a, s)


def _log_gamma_ratio(a: float, s: float) -> float:
    # log_gamma_ratio for a finite a > 0 and a finite s with a + s > 0: the
    # checks are the callers', made once outside their loops
    if s < 0.0:
        # a + s is finite and positive, and so is -s: the same rules hold
        b = a + s
        return -s * math.log1p(-s / b) - _log_gamma_ratio(b, -s)
    whole = int(s)
    f = s - whole
    if whole > _MAX_STEPS or (f + whole) / a == math.inf:
        # s > a (or a subnormal a, whose s ln a dwarfs ln Gamma(a)) leaves the
        # direct difference nothing to cancel; for larger a, Stirling's series
        # needs only its 1/(12 z) term
        if a < _MAX_STEPS:
            return math.lgamma(a + s) - math.lgamma(a) - s * math.log(a)
        return (a + s - 0.5) * math.log1p(s / a) - s - s / (12.0 * a * (a + s))
    return fsum(_ratio_terms(a, f, whole))


def _ratio_terms(a: float, f: float, whole: int) -> list[float]:
    # the terms of Q(a, f + whole) on _log_gamma_ratio's main branch, 0 <= f < 1: Q(a, f),
    # then log1p((f + j) / a) for j < whole, so the first w + 1 of them sum to Q(a, f + w)
    # for every w <= whole. For f = 0 the first two are 0.0, which leaves every fsum as is
    terms = [_fraction_term(a, f) if f else 0.0]
    for j in range(whole):
        terms.append(log1p((f + j) / a))
    return terms


def _fraction_term(a: float, f: float) -> float:
    # Q(a, f) for 0 < f < 1 and an a > 0 on _log_gamma_ratio's main branch: the term
    # its whole steps log1p((f + j) / a) are added to
    if a < _RATIO_SERIES_MIN:
        return math.lgamma(a + f) - math.lgamma(a) - f * math.log(a)
    # terms beyond the first omitted one fall below 1e-17
    terms = min(len(_RATIO_ROWS), 1 + math.ceil(17.0 / math.log10(a)))
    t = 0.0
    for c in reversed(_HALF_SHIFT[:terms] if f == 0.5 else _ratio_coefficients(f, terms)):
        t = (t + c) / a
    return t


def _inverse_power(c: float, z: float, k: int) -> float:
    # c / z^k, also where z^k leaves the double range and the quotient does not
    try:
        return c / z**k
    except OverflowError:
        f, p = math.frexp(c)
        m, q = math.frexp(z)
        return math.ldexp(f / m**k, p - q * k)


def _psi(n: int, x: float) -> float:
    # psi^(n)(x) for n >= 0 and checked x > 0. The recurrence
    # psi^(n)(x+1) = psi^(n)(x) + (-1)^n n!/x^(n+1) shifts x to y = x + J,
    # where the asymptotic series, for n >= 1
    #   (-1)^(n+1) (n-1)!/y^n (1 + n/(2y) + sum_m B_2m C(2m+n-1, 2m)/y^2m)
    # and for n = 0 ln y - 1/(2y) - sum_m B_2m/(2m y^2m), is summed up to
    # m = 6. J is the least shift at which the first omitted term, m = 7,
    # falls below 1e-17 of the lead term.
    coefficients = [_BERNOULLI[2 * m] * (math.comb(2 * m + n - 1, 2 * m) if n else 0.5 / m) for m in range(7, 0, -1)]
    fac = float(math.factorial(n))
    steps = range(max(0, math.ceil((abs(coefficients[0]) * 1e17) ** (1.0 / 14.0) - x)))
    shifts = [_inverse_power(fac, x + j, n + 1) for j in steps]
    y = x + len(shifts)
    u = (1.0 / y) * (1.0 / y)
    t = 0.0
    for c in coefficients[1:]:
        t = (t + c) * u
    if n:
        series = _inverse_power(fac / n, y, n) * (1.0 + 0.5 * n / y + t)
    else:
        series = 0.5 / y + t - math.log(y)
    return (1.0 if n % 2 else -1.0) * (math.fsum(shifts) + series)


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma for x > 0.

    Arguments below 13.7 are shifted upward with psi(x+1) = psi(x) + 1/x,
    the shift terms summed exactly, to where the asymptotic series in
    B_2..B_12 leaves a remainder below 1e-17. Against 60-digit references
    the error is below DIGAMMA_ATOL * max(1, |psi(x)|) on [1e-3, 1e5].
    """
    return _psi(0, _require_positive(x, "x"))


def polygamma(n: int, x: float) -> float:
    """n-th derivative of digamma, 1 <= n <= 165, for x > 0.

    Computed like digamma: x is shifted upward with
    psi^(n)(x+1) = psi^(n)(x) + (-1)^n n!/x^(n+1) until the first omitted
    term of the asymptotic series falls below 1e-17 of its lead term,
    which is from 16.6 on for trigamma and from 470 on at order 165.
    Against 60-digit references the error is below
    POLYGAMMA_ATOL * max(1, |value|) for x in [1e-3, 1e5]. Values past the double range saturate to
    +/-inf. Orders above 165 raise DomainError.
    """
    n = _require_count(n, "derivative order", 1)
    if n > 165:
        raise DomainError(f"derivative order must be <= 165, got {n}")
    x = _require_positive(x, "x")
    try:
        return _psi(n, x)
    except ZeroDivisionError:
        # x^(n+1) underflowed, so n!/x^(n+1) is past the double range
        return (1.0 if n % 2 else -1.0) * math.inf


_TINY = 1e-300


def _lentz(d: float, c: float, steps) -> tuple[float, int]:
    # Modified Lentz evaluation (Lentz 1976; Thompson & Barnett 1986) of
    # the continued fraction 1/(d + a_1/(b_1 + a_2/(b_2 + ...))), with c
    # the starting value of the C_j ratios. steps yields one group of
    # (a_j, b_j) pairs per iteration; it stops at the first group whose last
    # step leaves h unchanged and returns h with the iterations it took.
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for iterations, group in enumerate(steps, 1):
        for an, bn in group:
            d = bn + an * d
            if abs(d) < _TINY:
                d = _TINY
            c = bn + an / c
            if abs(c) < _TINY:
                c = _TINY
            d = 1.0 / d
            delta = d * c
            h *= delta
        if delta == 1.0:
            return h, iterations
    raise ConvergenceError(
        f"continued fraction not converged after {iterations} iterations",
        best_estimate=h,
        iterations=iterations,
    )


def _beta_steps(a: float, b: float, x: float):
    # the incomplete beta fraction in pairs of even and odd terms
    for m in range(1, 500):
        m2 = 2 * m
        yield (
            (m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)), 1.0),
            (-(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)), 1.0),
        )


def _upper_gamma_steps(a: float, b: float):
    for i in range(1, 10000):
        b += 2.0
        yield ((-i * (i - a), b),)


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) for a, b > 0 and x in [0, 1].

    Uses the continued fraction directly when x < (a+1)/(a+b+2) and the
    complement identity I_x(a,b) = 1 - I_(1-x)(b,a) otherwise, so the
    fraction always runs in its fast-convergence region. The front factor
    x^a (1-x)^b Gamma(a+b) / (Gamma(a) Gamma(b)) takes its Gamma quotient
    from log_gamma_ratio and each logarithm from the smaller of x and 1 - x.
    A front factor past the double range raises ConvergenceError with the
    fraction's value and iteration count.
    """
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    x = _real(x, "x")
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0 or x == 1.0:
        return 0.0 if x == 0.0 else 1.0
    return _reg_inc_beta(a, b, x, 1.0 - x, math.log(min(x, 1.0 - x)))


def _reg_inc_beta(a: float, b: float, x: float, y: float, log_small: float) -> float:
    # I_x(a, b) for checked a, b and x, y = 1 - x in (0, 1). Every caller forms y without
    # cancellation and log_small = ln min(x, y) from its own inputs, so a side that has lost
    # bits to underflow keeps an accurate log. The side is chosen once, as x and y may both
    # pass their switch points when each is an ulp above 1 - the other.
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    log_x, log_y = (log_small, math.log1p(-x)) if x <= y else (math.log1p(-y), log_small)
    if a >= b:
        p, q, rest = a, b, b * (math.log(a) + log_y) + a * log_x - math.lgamma(b)
    else:
        p, q, rest = b, a, a * (math.log(b) + log_x) + b * log_y - math.lgamma(a)
    # Q(p, q) < q log1p(q/p), so below this bound the front factor is 0.0
    if rest + q * math.log1p(q / p) < -750.0:
        value = 0.0
    else:
        # the first denominator 1 - (a + b) x / (a + 1), as ((a + 1) y - (b - 1) x) / (a + 1):
        # where a or b is huge, x lies near (a + 1) / (a + b) and the plain form cancels
        fraction, iterations = _lentz(((a + 1.0) * y - (b - 1.0) * x) / (a + 1.0), 1.0, _beta_steps(a, b, x))
        try:
            # p and q are checked finite positive shapes
            front = math.exp(_log_gamma_ratio(p, q) + rest)
        except OverflowError:
            raise ConvergenceError(
                f"incomplete beta front factor overflows at a={a}, b={b}, x={x}",
                best_estimate=fraction,
                iterations=iterations,
            ) from None
        value = front * fraction / a
    return 1.0 - value if flip else value


def _lower_gamma_series(a: float, x: float, front: float) -> float:
    # P(a,x) by series, for x < a + 1; the terms decrease, so the first one
    # that leaves the total unchanged ends it
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(10000):
        denom += 1.0
        term *= x / denom
        if total + term == total:
            return total * front
        total += term
    raise ConvergenceError(
        f"incomplete gamma series not converged at a={a}, x={x}",
        best_estimate=total * front,
        iterations=10000,
    )


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    a = _require_positive(a, "a")
    x = _real(x, "x")
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x!r}")
    return _reg_lower_inc_gamma(a, x)


def _reg_lower_inc_gamma(a: float, x: float) -> float:
    # P(a, x) for a checked a and x; ball_prob's Gaussian limit calls it directly
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if front == 0.0:
        # P is 0 or 1 to the double; at huge x the fraction would stall with
        # every step one ulp below 1
        return 0.0 if x < a + 1.0 else 1.0
    if x < a + 1.0:
        return _lower_gamma_series(a, x, front)
    b = x + 1.0 - a
    fraction, _ = _lentz(b, 1.0 / _TINY, _upper_gamma_steps(a, b))
    return 1.0 - fraction * front
