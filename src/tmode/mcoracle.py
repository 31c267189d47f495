"""Monte Carlo cross-checks: sampling the family and estimating ball mass.

Draws use the scale-mixture representation X = Z * sqrt(nu / W) with Z
standard normal and W chi-square with nu degrees of freedom (X = Z in
the Gaussian limit). Randomness comes from an embedded counter-based
generator (SplitMix64: output_i = mix64(seed + i * golden64)), so identical
(nu, k, n, seed) give the same words on any machine, and the same draws bit
for bit on the same numpy build and CPU (numpy's SIMD log, cos, sin and power
vary in the last bit). The stream layout is part of the contract: first the
n*k normals for Z, then whatever the chi-square rejection sampler consumes.

Normals are Box-Muller pairs (the non-polar form, two uniforms in, two
normals out); gamma variates use Marsaglia-Tsang acceptance with the
shape+1 boost below shape 1. Both run block by block over absolute stream
positions, so sampling holds only the (n, k) draws, the n chi-square
variates and a fixed block, with the same words and draws as whole arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .specfun import _require_count, _require_nonnegative
from .tdist import check_dim, check_dof

__all__ = [
    "SplitMix64",
    "SampleBatch",
    "sample_t",
    "estimate_ball_prob",
    "estimate_ball_prob_prefixes",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_INV_2_53 = 2.0**-53
_BLOCK = 1 << 14  # float64s (128 KiB) in each temporary array of a block


class SplitMix64:
    """Counter-based SplitMix64 stream over 64-bit words.

    The i-th output is a fixed avalanche mix of seed + (i+1) * golden64,
    so any block of the stream can be produced independently and the
    position after a draw depends only on how many words were consumed.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(_require_count(seed, "seed") & _MASK64)
        self._position = 0

    @property
    def position(self) -> int:
        """Words consumed so far."""
        return self._position

    def _words(self, start: int, n: int, uniform: bool = False) -> np.ndarray:
        """Words start+1 .. start+n (or their uniforms); position is not moved."""
        z = self._seed + np.arange(start + 1, start + n + 1, dtype=np.uint64) * _GOLDEN
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z ^= z >> np.uint64(31)
        return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53 if uniform else z

    def next_uint64(self, n: int) -> np.ndarray:
        self._position += n
        return self._words(self._position - n, n)

    def next_uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (never 0, so logs are safe)."""
        self._position += n
        return self._words(self._position - n, n, uniform=True)

    def _box_muller(self, out: np.ndarray, p: int, pairs: int, a: int) -> None:
        """Normals of pairs [a, a + out.size/2); u1 words start at p, u2 at p + pairs."""
        m = out.size // 2
        radius = np.sqrt(-2.0 * np.log(self._words(p + a, m, uniform=True)))
        angle = (2.0 * math.pi) * self._words(p + pairs + a, m, uniform=True)
        np.multiply(radius, np.cos(angle), out=out[0::2])
        np.multiply(radius, np.sin(angle), out=out[1::2])

    def next_normal(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller pairs."""
        pairs = (n + 1) // 2
        p = self._position
        self._position += 2 * pairs
        out = np.empty(2 * pairs, dtype=np.float64)
        for a in range(0, pairs, _BLOCK):
            self._box_muller(out[2 * a : 2 * (a + _BLOCK)], p, pairs, a)
        return out[:n]

    def next_gamma(self, shape: float, n: int) -> np.ndarray:
        """n Gamma(shape, 1) variates, Marsaglia-Tsang."""
        if shape <= 0.0:
            raise DomainError(f"gamma shape must be positive, got {shape!r}")
        boosted = shape < 1.0
        alpha = shape + 1.0 if boosted else shape
        d = alpha - 1.0 / 3.0
        c = 1.0 / math.sqrt(9.0 * d)
        out = np.empty(n, dtype=np.float64)
        buf = np.empty(_BLOCK, dtype=np.float64)
        filled = 0
        while filled < n:
            # one round: `want` normals, then `want` uniforms, in blocks
            want = n - filled
            pairs = (want + 1) // 2
            p = self._position
            self._position += 2 * pairs + want
            for a in range(0, pairs, _BLOCK // 2):
                x = buf[: 2 * min(_BLOCK // 2, pairs - a)]
                self._box_muller(x, p, pairs, a)
                x = x[: want - 2 * a]
                u = self._words(p + 2 * pairs + 2 * a, x.size, uniform=True)
                t = 1.0 + c * x
                v = t * t * t
                with np.errstate(invalid="ignore", divide="ignore"):
                    accept = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0.0, v, 1.0)))
                got = v[accept]
                out[filled : filled + got.size] = d * got
                filled += got.size
        if boosted:
            p = self._position
            self._position += n
            for a in range(0, n, _BLOCK):
                blk = out[a : a + _BLOCK]
                blk *= self._words(p + a, blk.size, uniform=True) ** (1.0 / shape)
        return out


@dataclass(eq=False)
class SampleBatch:
    """A reproducible block of draws from one family member."""

    nu: float
    k: int
    n: int
    seed: int
    draws: np.ndarray  # shape (n, k)


def sample_t(nu, k: int, n: int, seed: int) -> SampleBatch:
    """Draw n points from the (nu, k) member, reproducibly by seed."""
    nu = check_dof(nu)
    k = check_dim(k)
    n = _require_count(n, "sample size", 1)
    gen = SplitMix64(seed)
    z = gen.next_normal(n * k).reshape(n, k)
    if not math.isinf(nu):
        # nu/2 == 0 takes the Gamma(shape -> 0) limit w = 0: +/-inf draws, as at tiny nu
        w = gen.next_gamma(0.5 * nu, n) if 0.5 * nu > 0.0 else np.zeros(n)
        with np.errstate(divide="ignore", over="ignore"):
            w *= 2.0
            np.divide(nu, w, out=w)
            np.sqrt(w, out=w)
            z *= w[:, None]
    return SampleBatch(nu=nu, k=k, n=n, seed=seed, draws=z)


def estimate_ball_prob(batch: SampleBatch, r) -> tuple[float, float]:
    """Empirical P(|X| <= r) with its binomial standard error: the last prefix estimate."""
    return estimate_ball_prob_prefixes(batch, r)[-1]


def estimate_ball_prob_prefixes(batch: SampleBatch, r) -> list[tuple[float, float]]:
    """Empirical P(|X| <= r) for every prefix dimension 1..k of one batch.

    The first j coordinates of a draw are distributed exactly as the
    j-variate member with the same nu (the scale mixture acts on all
    coordinates at once), so a single batch yields estimates for a whole
    column of dimensions. Entry j-1 of the result is (estimate, std_error)
    for dimension j. The prefix estimates share draws and are therefore
    correlated across j, but each one is individually unbiased.

    A draw is inside the ball for dimension j when the sum of its first j
    squares, added left to right, is <= r*r. Each block of rows keeps one
    running squared norm per row and adds one column at a time, so the
    sums are those of np.cumsum along a row, bit for bit.
    """
    r = _require_nonnegative(r, "radius")
    r2 = r * r
    hits = np.zeros(batch.k, dtype=np.int64)
    norm_buf = np.empty(_BLOCK, dtype=np.float64)
    sq_buf = np.empty(_BLOCK, dtype=np.float64)
    inside_buf = np.empty(_BLOCK, dtype=bool)
    # a square that overflows is +inf, a miss for every finite r
    with np.errstate(over="ignore"):
        for i in range(0, batch.n, _BLOCK):
            blk = batch.draws[i : i + _BLOCK]
            m = blk.shape[0]
            norm, sq, inside = norm_buf[:m], sq_buf[:m], inside_buf[:m]
            norm.fill(0.0)
            for j in range(batch.k):
                np.multiply(blk[:, j], blk[:, j], out=sq)
                norm += sq
                hits[j] += np.count_nonzero(np.less_equal(norm, r2, out=inside))
    return [(p, math.sqrt(p * (1.0 - p) / batch.n)) for p in (hits / batch.n).tolist()]
