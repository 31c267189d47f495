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
positions, with the same words and draws as whole arrays. sample_t runs
the chi-square rounds from the position after the normals and keeps the
n row scales; the normals are made in fixed row blocks as a batch is
read. So the estimators hold the n scales plus fixed blocks, and only
reading SampleBatch.draws builds the (n, k) array.
"""

from __future__ import annotations

import functools
import math
import sys

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

    def _normals(self, buf: np.ndarray, p: int, pairs: int, lo: int, hi: int) -> np.ndarray:
        """Normals lo .. hi-1 of the Box-Muller run at p: u1 words from p, u2 words from p + pairs.

        The pairs that cover them fill the front of buf, and the result is a view of exactly those normals.
        """
        a, m = lo // 2, (hi + 1) // 2 - lo // 2
        radius = np.sqrt(-2.0 * np.log(self._words(p + a, m, uniform=True)))
        angle = (2.0 * math.pi) * self._words(p + pairs + a, m, uniform=True)
        np.multiply(radius, np.cos(angle), out=buf[0 : 2 * m : 2])
        np.multiply(radius, np.sin(angle), out=buf[1 : 2 * m : 2])
        return buf[lo - 2 * a : hi - 2 * a]

    def next_normal(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller pairs."""
        pairs = (n + 1) // 2
        p = self._position
        self._position += 2 * pairs
        out = np.empty(2 * pairs, dtype=np.float64)
        for lo in range(0, n, _BLOCK):
            self._normals(out[lo:], p, pairs, lo, min(lo + _BLOCK, n))
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
            for lo in range(0, want, _BLOCK):
                x = self._normals(buf, p, pairs, lo, min(lo + _BLOCK, want))
                u = self._words(p + 2 * pairs + lo, x.size, uniform=True)
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


class SampleBatch:
    """A reproducible batch of n draws from one family member.

    Row i of the draws is the stream's normals i*k .. i*k + k - 1 times
    scales[i] (unscaled when scales is None, as at nu = inf). The
    estimators remake the draws from the stream in fixed row blocks, so
    they hold only the n scales and a block; reading .draws builds the
    whole (n, k) array once, from the same blocks. A batch made with
    explicit draws reads its blocks from them.
    """

    def __init__(
        self,
        nu: float,
        k: int,
        n: int,
        seed: int,
        draws: np.ndarray | None = None,
        scales: np.ndarray | None = None,
    ):
        self.nu = nu
        self.k = k
        self.n = n
        self.seed = seed
        self.scales = scales
        if draws is not None:
            self.draws = draws  # the instance attribute takes the cached property's place

    @functools.cached_property
    def draws(self) -> np.ndarray:
        """The (n, k) draws, built on first read."""
        out = np.empty((self.n, self.k), dtype=np.float64)
        for i, blk in self._blocks():
            out[i : i + blk.shape[0]] = blk
        return out

    def _blocks(self):
        """(first row, draws of a block of rows) in order.

        A block made from the stream holds about _BLOCK floats, in a buffer
        that the next block reuses.
        """
        if "draws" in self.__dict__:
            # views of the array cost no memory: _BLOCK rows, what the estimator's buffers hold
            for i in range(0, self.n, _BLOCK):
                yield i, self.draws[i : i + _BLOCK]
            return
        k = self.k
        rows = max(1, _BLOCK // k)
        gen = SplitMix64(self.seed)
        pairs = (self.n * k + 1) // 2
        buf = np.empty(rows * k + 2, dtype=np.float64)  # at most one normal spare at each end
        for i in range(0, self.n, rows):
            m = min(rows, self.n - i)
            blk = gen._normals(buf, 0, pairs, i * k, (i + m) * k).reshape(m, k)
            if self.scales is not None:
                with np.errstate(over="ignore"):
                    blk *= self.scales[i : i + m, None]
            yield i, blk


def sample_t(nu, k: int, n: int, seed: int) -> SampleBatch:
    """Draw n points from the (nu, k) member, reproducibly by seed.

    The chi-square variates are drawn here and kept as the n row scales;
    the normals are made block by block whenever the batch is read.
    """
    nu = check_dof(nu)
    k = check_dim(k)
    n = _require_count(n, "sample size", 1)
    gen = SplitMix64(seed)  # checks the seed, whether or not there are rounds to run
    if math.isinf(nu):
        return SampleBatch(nu=nu, k=k, n=n, seed=seed)
    # the chi-square rounds start after the n*k normals' Box-Muller pairs
    gen._position = 2 * ((n * k + 1) // 2)
    # nu/2 == 0 takes the Gamma(shape -> 0) limit w = 0: +/-inf draws, as at tiny nu
    w = gen.next_gamma(0.5 * nu, n) if 0.5 * nu > 0.0 else np.zeros(n)
    with np.errstate(divide="ignore", over="ignore"):
        w *= 2.0
        np.divide(nu, w, out=w)
        np.sqrt(w, out=w)
    return SampleBatch(nu=nu, k=k, n=n, seed=seed, scales=w)


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
    return _prefix_estimates(batch, (r,))[0]


def _prefix_estimates(batch: SampleBatch, radii) -> list[list[tuple[float, float]]]:
    """estimate_ball_prob_prefixes for each radius, from one pass over the blocks."""
    r2 = [min(r * r, sys.float_info.max) for r in (_require_nonnegative(r, "radius") for r in radii)]
    hits = np.zeros((len(r2), batch.k), dtype=np.int64)
    norm_buf = np.empty(_BLOCK, dtype=np.float64)
    sq_buf = np.empty(_BLOCK, dtype=np.float64)
    inside_buf = np.empty(_BLOCK, dtype=bool)
    # a square that overflows is +inf, a miss for every finite r, as r^2 is capped at the largest double
    with np.errstate(over="ignore"):
        for _, blk in batch._blocks():
            m = blk.shape[0]
            norm, sq, inside = norm_buf[:m], sq_buf[:m], inside_buf[:m]
            norm.fill(0.0)
            for j in range(batch.k):
                np.multiply(blk[:, j], blk[:, j], out=sq)
                norm += sq
                for row, bound in zip(hits, r2):
                    row[j] += np.count_nonzero(np.less_equal(norm, bound, out=inside))
    return [[(p, math.sqrt(p * (1.0 - p) / batch.n)) for p in (row / batch.n).tolist()] for row in hits]
