"""mpmath references for the scalar calls of the closed-form workload.

Every reference is evaluated in a working precision that grows with
log10(nu): the log-gamma terms are of size nu*ln(nu) while the results
are O(k), so fixed 40-digit references are wrong at nu = 1e300.

Each call's verdict uses the function's advertised tolerance (module
constants, docstrings and the test suite's pinned tolerances):
absolute 1e-12 for ball probabilities and the nu-derivative (scaled by
max(1, |value|) for the latter), relative 1e-13 for mode values,
densities and moments, and relative 1e-12 for the moment ratios.
"""

from __future__ import annotations

import math

import mpmath as mp

MAX_FLOAT = mp.mpf(1.7976931348623157e308)


def _dps(*nus: float) -> int:
    big = max((abs(nu) for nu in nus if math.isfinite(nu)), default=1.0)
    return 30 + 2 * max(0, math.ceil(math.log10(max(big, 1.0))))


def _log_mode(nu, k: int):
    if math.isinf(nu):
        return -(mp.mpf(k) / 2) * mp.log(2 * mp.pi)
    nu = mp.mpf(nu)
    return mp.loggamma((nu + k) / 2) - mp.loggamma(nu / 2) - (mp.mpf(k) / 2) * mp.log(mp.pi * nu)


def _betacf(a, b, x):
    # modified Lentz continued fraction for I_x(a, b), run in its
    # fast-convergence region at the working precision
    tiny = mp.mpf(10) ** (-2 * mp.mp.dps - 10)
    eps = mp.mpf(10) ** (-mp.mp.dps + 3)
    c = mp.mpf(1)
    d = 1 - (a + b) * x / (a + 1)
    d = 1 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1_000_000):
        delta = mp.mpf(1)
        for aa in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1 + aa * d
            d = tiny if abs(d) < tiny else d
            c = 1 + aa / c
            c = tiny if abs(c) < tiny else c
            d = 1 / d
            delta = d * c
            h *= delta
        if abs(delta - 1) < eps:
            return h
    raise RuntimeError(f"reference continued fraction stalled at a={a}, b={b}")


def _ball_prob(nu, k: int, r):
    r2 = mp.mpf(r) ** 2
    if r2 == 0:
        return mp.mpf(0)
    if math.isinf(nu):
        return mp.gammainc(mp.mpf(k) / 2, 0, r2 / 2, regularized=True)
    a, b = mp.mpf(k) / 2, mp.mpf(nu) / 2
    x, y = r2 / (r2 + nu), mp.mpf(nu) / (r2 + nu)
    front = mp.exp(a * mp.log(x) + b * mp.log(y) - mp.loggamma(a) - mp.loggamma(b) + mp.loggamma(a + b))
    if x < (a + 1) / (a + b + 2):
        return front * _betacf(a, b, x) / a
    return 1 - front * _betacf(b, a, y) / b


def _log_moment_nu(nu, m):
    # ln of nu^(m/2) Gamma((nu-m)/2) / Gamma(nu/2); Gaussian limit 2^(m/2)
    m = mp.mpf(m)
    if math.isinf(nu):
        return m / 2 * mp.log(2)
    nu = mp.mpf(nu)
    return m / 2 * mp.log(nu) + mp.loggamma((nu - m) / 2) - mp.loggamma(nu / 2)


def _radial_moment(nu, k: int, m):
    m = mp.mpf(m)
    if m == 0:
        return mp.mpf(1)
    return mp.exp(_log_moment_nu(nu, m) + mp.loggamma((k + m) / 2) - mp.loggamma(mp.mpf(k) / 2))


def _moment_ratio(nu1, nu2, k: int, m):
    if m == 0:
        return mp.mpf(1)
    return mp.exp(_log_moment_nu(nu1, m) - _log_moment_nu(nu2, m))


def _kurtosis_ratio(nu1, nu2, k: int):
    def excess(nu):
        return mp.mpf(1) if math.isinf(nu) else (mp.mpf(nu) - 2) / (mp.mpf(nu) - 4)

    return excess(nu1) / excess(nu2)


def _dlog_mode_value(nu, k: int):
    nu = mp.mpf(nu)
    return (mp.digamma((nu + k) / 2) - mp.digamma(nu / 2) - k / nu) / 2


def _log_density(nu, k: int, point):
    sq = mp.fsum(mp.mpf(c) ** 2 for c in point)
    if math.isinf(nu):
        return _log_mode(nu, k) - sq / 2
    return _log_mode(nu, k) - (mp.mpf(nu) + k) / 2 * mp.log1p(sq / nu)


def _rel_ok(got: float, want, rtol: float) -> bool:
    if want > MAX_FLOAT:
        return got == math.inf
    return math.isfinite(got) and abs(mp.mpf(got) - want) <= rtol * abs(want)


def _abs_ok(got: float, want, atol: float, scaled: bool = False) -> bool:
    scale = max(mp.mpf(1), abs(want)) if scaled else 1
    return math.isfinite(got) and abs(mp.mpf(got) - want) <= atol * scale


# name -> (reference, verdict); each verdict takes (result, reference value)
CHECKS = {
    "log_mode_value": (_log_mode, lambda g, w: _abs_ok(g, w, 1e-13, scaled=True)),
    "mode_value": (lambda nu, k: mp.exp(_log_mode(nu, k)), lambda g, w: _rel_ok(g, w, 1e-13)),
    "log_density": (_log_density, lambda g, w: _abs_ok(g, w, 1e-13, scaled=True)),
    "ball_prob": (_ball_prob, lambda g, w: _abs_ok(g, w, 1e-12)),
    "radial_moment": (_radial_moment, lambda g, w: _rel_ok(g, w, 1e-13)),
    "moment_ratio": (_moment_ratio, lambda g, w: _rel_ok(g, w, 1e-12)),
    "kurtosis_ratio": (_kurtosis_ratio, lambda g, w: _rel_ok(g, w, 1e-12)),
    "dlog_mode_value": (_dlog_mode_value, lambda g, w: _abs_ok(g, w, 1e-12, scaled=True)),
}


def agrees(name: str, args: tuple, got) -> bool:
    """True when a returned float is within the function's advertised tolerance."""
    if not isinstance(got, float):
        return False
    reference, verdict = CHECKS[name]
    nus = [a for a in args[:2] if isinstance(a, float)]
    with mp.workdps(_dps(*nus)):
        return verdict(got, reference(*args))
