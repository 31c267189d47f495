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
n row scales.

The estimators make the normals of Z as they read a batch, in blocks of
_ROWS rows, one Box-Muller pair step at a time. Normal p = i*k + j is the
cos (p even) or the sin (p odd) of pair p >> 1, whose words sit at counters
(p >> 1) + 1 and pairs + (p >> 1) + 1, so any cell can be made from its
position alone. A step makes one pair for each row still kept and uses
its cos and sin in two neighbouring columns, so nothing outlives a step.
Column j is made only for the rows whose running squared norm is still
<= the largest r^2. The hits are those of the whole-array cumsum bit for
bit: each added square is >= 0 (or nan) and float addition is monotone,
so a row that fails norm <= max r^2 (inf and nan included) fails at every
later column. The estimators hold the n scales plus about ten arrays of
one column of a block (0.7 MiB), whatever n and k. SampleBatch.draws is
the stream's first n*k normals as an (n, k) array, times the scales; the
estimators never read it, so a batch is summed the same way whether or
not its draws have been built.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .specfun import _require_count, _require_nonnegative, _require_positive
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
# rows in each block of the estimators' pair walk: about ten arrays of one column are alive at once;
# it is even, so at odd k the two rows that share a split pair lie in one block
_ROWS = _BLOCK // 2


def _uniform(z: np.ndarray) -> np.ndarray:
    """The doubles in (0, 1] of words z (z is overwritten)."""
    z >>= np.uint64(11)
    u = z.astype(np.float64)
    u += 1.0
    u *= _INV_2_53
    return u


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

    def _mix(self, z: np.ndarray) -> np.ndarray:
        """The words at counters z, mixed in place (uint64 scalars only, so numpy 1.x and 2.x agree)."""
        z *= _GOLDEN
        z += self._seed
        z ^= z >> np.uint64(30)
        z *= _MIX1
        z ^= z >> np.uint64(27)
        z *= _MIX2
        z ^= z >> np.uint64(31)
        return z

    def _words(self, start: int, n: int, uniform: bool = False) -> np.ndarray:
        """Words start+1 .. start+n (or their uniforms); position is not moved."""
        z = self._mix(np.arange(start + 1, start + n + 1, dtype=np.uint64))
        return _uniform(z) if uniform else z

    def _polar(self, u1: np.ndarray, pairs: int) -> tuple[np.ndarray, np.ndarray]:
        """Box-Muller radius and angle of a run's pairs whose u1 words sit at counters u1 (u2 words: pairs later)."""
        radius, angle = _uniform(self._mix(u1 + np.array([[0], [pairs]], dtype=np.uint64)))
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        angle *= 2.0 * math.pi
        return radius, angle

    def next_uint64(self, n: int) -> np.ndarray:
        """n raw 64-bit words."""
        n = _require_count(n, "count", 0)
        self._position += n
        return self._words(self._position - n, n)

    def next_uniform(self, n: int) -> np.ndarray:
        """n doubles uniform on (0, 1] (never 0, so logs are safe)."""
        n = _require_count(n, "count", 0)
        self._position += n
        return self._words(self._position - n, n, uniform=True)

    def _normals(self, buf: np.ndarray, p: int, pairs: int, lo: int, hi: int) -> np.ndarray:
        """Normals lo .. hi-1 (lo even) of the Box-Muller run at p: u1 words from p, u2 words from p + pairs.

        The pairs that cover them fill the front of buf, and the result is a view of exactly those normals.
        """
        a, m = lo // 2, (hi - lo + 1) // 2
        radius, angle = self._polar(np.arange(p + a + 1, p + a + m + 1, dtype=np.uint64), pairs)
        np.multiply(radius, np.cos(angle), out=buf[0 : 2 * m : 2])
        np.multiply(radius, np.sin(angle), out=buf[1 : 2 * m : 2])
        return buf[: hi - lo]

    def next_normal(self, n: int) -> np.ndarray:
        """n standard normals, Box-Muller pairs."""
        n = _require_count(n, "count", 0)
        pairs = (n + 1) // 2
        p = self._position
        self._position += 2 * pairs
        out = np.empty(2 * pairs, dtype=np.float64)
        for lo in range(0, n, _BLOCK):
            self._normals(out[lo:], p, pairs, lo, min(lo + _BLOCK, n))
        return out[:n]

    def next_gamma(self, shape: float, n: int) -> np.ndarray:
        """n Gamma(shape, 1) variates, Marsaglia-Tsang."""
        # an infinite or nan shape would make every acceptance test nan, and the rounds would never end
        shape = _require_positive(shape, "gamma shape")
        n = _require_count(n, "count", 0)
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
    scales[i] (unscaled when scales is None, as at nu = inf). Reading
    .draws builds the whole (n, k) array once and keeps it. The estimators
    never read it: they make the draws from the stream, block by block and
    pair by pair, for the rows they still need, and hold only the n scales
    and a few columns of a block.
    """

    def __init__(self, nu: float, k: int, n: int, seed: int, scales: np.ndarray | None = None):
        self.nu = nu
        self.k = k
        self.n = n
        self.seed = seed
        self.scales = scales

    @functools.cached_property
    def draws(self) -> np.ndarray:
        """The (n, k) draws, built on first read: the stream's first n*k normals, row by row, times the scales."""
        z = SplitMix64(self.seed).next_normal(self.n * self.k).reshape(self.n, self.k)
        if self.scales is not None:
            with np.errstate(over="ignore"):
                z *= self.scales[:, None]
        return z


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
    """estimate_ball_prob_prefixes for each radius, from one pass over the batch."""
    r2 = [min(r * r, sys.float_info.max) for r in (_require_nonnegative(r, "radius") for r in radii)]
    hits = np.zeros((len(r2), batch.k), dtype=np.int64)
    # a square that overflows is +inf, a miss for every finite r, as r^2 is capped at the largest double
    with np.errstate(over="ignore"):
        for first in range(0, batch.n, _ROWS):
            _walk_block(batch, first, r2, hits)
    return [[(p, math.sqrt(p * (1.0 - p) / batch.n)) for p in (row / batch.n).tolist()] for row in hits]


def _pairs(gen: SplitMix64, rows: np.ndarray, k: int, s: int, pairs: int) -> tuple[np.ndarray, np.ndarray]:
    """Radius and angle of pair (i*k >> 1) + s for each row i (the u1 word of pair a is word a + 1)."""
    u1 = rows * np.uint64(k)
    u1 >>= np.uint64(1)
    u1 += np.uint64(s + 1)
    return gen._polar(u1, pairs)


def _walk_block(batch: SampleBatch, first: int, r2: list[float], hits: np.ndarray) -> None:
    """Add the hits of the block of _ROWS rows from row first, made one Box-Muller pair step at a time.

    The block is one lane at even k; at odd k it is two, its even rows and
    then its odd rows, so the rows of a lane share the parity u of i*k.
    Step s makes pair (i*k >> 1) + s for each kept row: its cos is column
    2s - u and its sin column 2s + 1 - u. At odd k the pair split between
    an even row's last column and the next row's first is made once for
    every even row of the block, and both lanes read it.
    """
    k, top = batch.k, max(r2)
    gen = SplitMix64(batch.seed)
    pairs = (batch.n * k + 1) // 2
    rows = np.arange(first, min(first + _ROWS, batch.n), dtype=np.uint64)
    lanes = [(rows, 0)] if k % 2 == 0 else [(rows[::2], 0), (rows[1::2], 1)]
    split = _pairs(gen, rows[::2], k, k // 2, pairs) if k % 2 else None
    for rows, u in lanes:
        norm = np.zeros(rows.size)
        for j in range(k):
            cos = (j + u) % 2 == 0
            if split is not None and j == (0 if u else k - 1):
                # an even row's slot is its place among the block's even rows; no row is dropped before column 0
                slot = slice(rows.size) if j == 0 else (rows - np.uint64(first)) >> np.uint64(1)
                radius, angle = split[0][slot], split[1][slot]
            elif cos:
                radius, angle = _pairs(gen, rows, k, (j + u) // 2, pairs)
            sq = np.cos(angle) if cos else np.sin(angle)
            sq *= radius
            if batch.scales is not None:
                sq *= batch.scales[rows]
            sq *= sq
            norm += sq
            inside = norm <= top
            live = np.count_nonzero(inside)
            for row, bound in zip(hits, r2):
                row[j] += live if bound == top else np.count_nonzero(norm <= bound)
            if not live:  # no row left, or an empty lane: a block of one row has no odd rows
                break
            # each square is >= 0 (or nan), so a row past the largest r^2 never counts again
            if live < norm.size and j + 1 < k:
                # indices gather faster than a boolean mask that is true about half the time
                kept = np.flatnonzero(inside)
                rows, norm = rows[kept], norm[kept]
                if cos:  # the next column is this pair's sin
                    radius, angle = radius[kept], angle[kept]
