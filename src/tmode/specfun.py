"""Self-contained gamma-family special functions.

Everything here is scalar, pure and reentrant: log_gamma (the standard
library's lgamma), the Gamma quotient log_gamma_ratio, digamma,
polygamma, the regularized incomplete beta and the regularized lower
incomplete gamma. Coefficient sets are embedded below with provenance
notes; accuracy was checked against high-precision references.

Domains are the positive reals (plus x in [0, 1] for the beta argument).
Arguments outside the domain raise DomainError rather than returning
NaN, so callers never have to re-check outputs. A series or continued
fraction that runs out of iterations raises ConvergenceError.
"""

from __future__ import annotations

import math

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
DIGAMMA_ATOL = 1e-13
POLYGAMMA_ATOL = 1e-12
REG_INC_BETA_ATOL = 1e-12
REG_LOWER_INC_GAMMA_ATOL = 1e-12

# Bernoulli numbers B_0..B_12, with B_1 = -1/2.
_BERNOULLI = (1.0, -0.5, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0, -691 / 2730)

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


def _require_positive(x: float, name: str) -> float:
    x = float(x)
    if math.isnan(x) or x <= 0.0 or math.isinf(x):
        raise DomainError(f"{name} must be a finite positive real, got {x!r}")
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
    s = float(s)
    if not math.isfinite(s) or a + s <= 0.0:
        raise DomainError(f"shift must be finite with a + s > 0, got a={a!r}, s={s!r}")
    if s < 0.0:
        b = a + s
        return -s * math.log1p(-s / b) - log_gamma_ratio(b, -s)
    whole = int(s)
    f = s - whole
    if whole > _MAX_STEPS:
        # s > a leaves the direct difference nothing to cancel; for larger a,
        # Stirling's series needs only its 1/(12 z) term
        if a < _MAX_STEPS:
            return math.lgamma(a + s) - math.lgamma(a) - s * math.log(a)
        return (a + s - 0.5) * math.log1p(s / a) - s - s / (12.0 * a * (a + s))
    parts = [math.log1p((f + j) / a) for j in range(0 if f else 1, whole)]
    if f:
        if a < _RATIO_SERIES_MIN:
            parts.append(math.lgamma(a + f) - math.lgamma(a) - f * math.log(a))
        else:
            # terms beyond the first omitted one fall below 1e-17
            terms = min(len(_RATIO_ROWS), 1 + math.ceil(17.0 / math.log10(a)))
            t = 0.0
            for c in reversed(_HALF_SHIFT[:terms] if f == 0.5 else _ratio_coefficients(f, terms)):
                t = (t + c) / a
            parts.append(t)
    return math.fsum(parts)


# Asymptotic tail of digamma: psi(x) ~ ln x - 1/(2x) - sum B_2n/(2n x^2n).
# Coefficients B_2n/(2n) for n = 1..9; with the recurrence shift below the
# first omitted term is < 8e-15 for x >= 6.
_DIGAMMA_SHIFT = 6.0
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    1.0 / 120.0,
    1.0 / 252.0,
    1.0 / 240.0,
    1.0 / 132.0,
    691.0 / 32760.0,
    1.0 / 12.0,
    3617.0 / 8160.0,
    43867.0 / 14364.0,
)


def digamma(x: float) -> float:
    """Logarithmic derivative of Gamma for x > 0.

    Small arguments are shifted upward with psi(x+1) = psi(x) + 1/x until
    the asymptotic expansion applies; the shift terms are accumulated
    with exact summation so the recurrence survives in the result to a
    few ulps.
    """
    x = _require_positive(x, "x")
    shifts = []
    y = x
    while y < _DIGAMMA_SHIFT:
        shifts.append(1.0 / y)
        y += 1.0
    w = 1.0 / (y * y)
    t = 0.0
    for c in reversed(_DIGAMMA_TAIL):
        t = w * (c - t)
    val = math.log(y) - 0.5 / y - t
    if shifts:
        val -= math.fsum(shifts)
    return val


def polygamma(n: int, x: float) -> float:
    """n-th derivative of digamma, n >= 1, for x > 0.

    Sums the series sum_j (-1)^(n+1) n! / (x+j)^(n+1) directly and closes
    it with the integral tail n!/(n (x+J)^n) plus Euler-Maclaurin
    corrections; J is chosen so the remainder bound sits below 5e-14.
    Raw truncation alone would need ~1e12 terms at this tolerance, which
    is why the tail is completed analytically rather than summed.
    """
    if not isinstance(n, int) or isinstance(n, bool):
        raise DomainError(f"derivative order must be an integer, got {n!r}")
    if n < 1:
        raise DomainError(f"derivative order must be >= 1, got {n}")
    x = _require_positive(x, "x")

    fac = float(math.factorial(n))
    # remainder after the B4 correction is below (n+5)!/(30240 y^(n+6))
    y_needed = (math.factorial(n + 5) / (30240.0 * 5e-14)) ** (1.0 / (n + 6))
    terms = max(0, math.ceil(y_needed - x))
    s = math.fsum(fac / (x + j) ** (n + 1) for j in range(terms))
    y = x + terms
    tail = (
        fac / (n * y**n)
        + fac / (2.0 * y ** (n + 1))
        + math.factorial(n + 1) / (12.0 * y ** (n + 2))
        - math.factorial(n + 3) / (720.0 * y ** (n + 4))
    )
    sign = 1.0 if n % 2 == 1 else -1.0
    return sign * (s + tail)


_TINY = 1e-300
_CF_EPS = 1e-16


def _lentz(d: float, c: float, steps) -> float:
    # Modified Lentz evaluation (Lentz 1976; Thompson & Barnett 1986) of
    # the continued fraction 1/(d + a_1/(b_1 + a_2/(b_2 + ...))), with c
    # the starting value of the C_j ratios. steps yields one group of
    # (a_j, b_j) pairs per iteration; convergence is tested once per group.
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
        if abs(delta - 1.0) < _CF_EPS:
            return h
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
    """
    a = _require_positive(a, "a")
    b = _require_positive(b, "b")
    x = float(x)
    if math.isnan(x) or x < 0.0 or x > 1.0:
        raise DomainError(f"x must lie in [0, 1], got {x!r}")
    return _reg_inc_beta(a, b, x, 1.0 - x)


def _reg_inc_beta(a: float, b: float, x: float, y: float) -> float:
    # I_x(a, b) for checked a, b and y = 1 - x, which ball_prob forms without
    # cancellation. The side is chosen once, as x and y may both pass their
    # switch points when each is an ulp above 1 - the other.
    if x == 0.0 or y == 0.0:
        return 0.0 if x == 0.0 else 1.0
    flip = x > (a + 1.0) / (a + b + 2.0)
    if flip:
        a, b, x, y = b, a, y, x
    if x <= y:
        log_x, log_y = math.log(x), math.log1p(-x)
    else:
        log_x, log_y = math.log1p(-y), math.log(y)
    if a >= b:
        p, q, rest = a, b, b * (math.log(a) + log_y) + a * log_x - math.lgamma(b)
    else:
        p, q, rest = b, a, a * (math.log(b) + log_x) + b * log_y - math.lgamma(a)
    # Q(p, q) < q log1p(q/p), so below this bound the front factor is 0.0
    if rest + q * math.log1p(q / p) < -750.0:
        value = 0.0
    else:
        front = math.exp(log_gamma_ratio(p, q) + rest)
        value = front * _lentz(1.0 - (a + b) * x / (a + 1.0), 1.0, _beta_steps(a, b, x)) / a
    return 1.0 - value if flip else value


def _lower_gamma_series(a: float, x: float, front: float) -> float:
    # P(a,x) by series, for x < a + 1
    term = 1.0 / a
    total = term
    denom = a
    for _ in range(10000):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * 1e-17:
            return total * front
    raise ConvergenceError(
        f"incomplete gamma series not converged at a={a}, x={x}",
        best_estimate=total * front,
        iterations=10000,
    )


def reg_lower_inc_gamma(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) for a > 0, x >= 0."""
    a = _require_positive(a, "a")
    x = float(x)
    if math.isnan(x) or x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    if x < a + 1.0:
        return _lower_gamma_series(a, x, front)
    b = x + 1.0 - a
    return 1.0 - _lentz(b, 1.0 / _TINY, _upper_gamma_steps(a, b)) * front
