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

The normals of Z are made as a batch is read, one column at a time over
blocks of _ROWS rows. Normal p = i*k + j is the cos (p even) or the sin
(p odd) of pair p >> 1, whose words sit at counters (p >> 1) + 1 and
pairs + (p >> 1) + 1, so any cell can be made from its position alone.
The estimators make column j only for the rows whose running squared norm
is still <= the largest r^2. Their hits are those of the whole-array cumsum
bit for bit: each added square is >= 0 (or nan) and float addition is
monotone, so a row that fails norm <= max r^2 (inf and nan included) fails
at every later column. They hold the n scales plus at most about eight
arrays of one column of a block (0.6 MiB), whatever n and k; only reading
SampleBatch.draws builds the (n, k) array.
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
# rows in each block of a batch's column walk: up to eight arrays of one column are alive at once
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
        radius, angle = self._polar(np.arange(p + a + 1, p + a + m + 1, dtype=np.uint64), pairs)
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
    estimators remake the draws from the stream in blocks of _ROWS rows,
    one column at a time and only for the rows they still need, so they
    hold the n scales and a few columns of a block; reading .draws builds
    the whole (n, k) array once, from the same columns. A batch made with
    explicit draws reads its columns from them.
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
        with np.errstate(over="ignore"):
            for lane in self._lanes():
                for j in range(self.k):
                    out[lane.rows, j] = lane.column(j)
        return out

    def _lanes(self):
        """The lanes of each block of _ROWS rows, in row order.

        A block is one lane, or two from the stream at odd k: its even rows,
        then its odd rows. _ROWS is even, so a block starts on an even row
        and the two rows that share a split pair lie in one block.
        """
        gen = None if "draws" in self.__dict__ else SplitMix64(self.seed)
        pairs = (self.n * self.k + 1) // 2
        for i in range(0, self.n, _ROWS):
            rows = np.arange(i, min(i + _ROWS, self.n), dtype=np.uint64)
            if gen is None or self.k % 2 == 0:
                yield _Lane(self, rows, gen, pairs)
                continue
            even = _Lane(self, rows[::2], gen, pairs)
            # an even row's last normal and the next row's first are the cos and sin of one pair
            even.tails = even.pairs_at(self.k - 1)
            yield even
            if rows.size > 1:
                yield _Lane(self, rows[1::2], gen, pairs, even.tails)


class _Lane:
    """Rows of one block, made a column at a time for the rows still kept.

    From the stream, normal p = i*k + j is the cos (p even) or the sin
    (p odd) of Box-Muller pair p >> 1. The rows of a lane share the parity
    of i*k, so in each column they all begin a pair, whose radius and angle
    are carried to the next column, or all take the sin of the pair carried
    from the last one; the pair's words, log and sqrt are made once. The
    `tails` are the pairs split across two rows at odd k, one per even row
    of the block. A batch with explicit draws reads draws[rows, j].
    """

    def __init__(self, batch: SampleBatch, rows: np.ndarray, gen: SplitMix64 | None, pairs: int, tails=None):
        self.batch, self.rows, self.gen, self.pairs, self.tails = batch, rows, gen, pairs, tails
        self.first = int(rows[0])
        self.odd = self.first * batch.k % 2
        # (radius, angle) of the pairs whose sin is the next column; an odd row's first normal is a tail's sin
        self.pair = (tails[0][: rows.size], tails[1][: rows.size]) if self.odd else None

    def pairs_at(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Radius and angle of the pairs that hold the rows' normals in column j: pair (i*k + j) >> 1."""
        u1 = self.rows * np.uint64(self.batch.k)
        u1 += np.uint64(j + 2)  # the u1 word of pair a is word a + 1
        u1 >>= np.uint64(1)
        return self.gen._polar(u1, self.pairs)

    def column(self, j: int) -> np.ndarray:
        """Column j of the kept rows, as a new array (a scaled draw may overflow to +/-inf)."""
        batch = self.batch
        if self.gen is None:
            return batch.draws[self.rows, j]
        if (self.odd + j) % 2:
            (radius, angle), self.pair = self.pair, None
            x = np.sin(angle)
        else:
            if j == batch.k - 1 and self.tails is not None:
                slot = (self.rows - np.uint64(self.first)) >> np.uint64(1)
                radius, angle = self.tails[0][slot], self.tails[1][slot]
            else:
                radius, angle = self.pairs_at(j)
                if j + 1 < batch.k:
                    self.pair = radius, angle
            x = np.cos(angle)
        x *= radius
        if batch.scales is not None:
            x *= batch.scales[self.rows]
        return x

    def keep(self, kept: np.ndarray) -> None:
        """Keep only the rows at indices kept (into the rows kept so far) for the later columns."""
        self.rows = self.rows[kept]
        if self.pair is not None:
            self.pair = (self.pair[0][kept], self.pair[1][kept])


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
    """estimate_ball_prob_prefixes for each radius, from one pass over the lanes."""
    r2 = [min(r * r, sys.float_info.max) for r in (_require_nonnegative(r, "radius") for r in radii)]
    top = max(r2)
    hits = np.zeros((len(r2), batch.k), dtype=np.int64)
    # a square that overflows is +inf, a miss for every finite r, as r^2 is capped at the largest double
    with np.errstate(over="ignore"):
        for lane in batch._lanes():
            norm = np.zeros(lane.rows.size)
            live = norm.size
            for j in range(batch.k):
                # each square is >= 0 (or nan), so a row past the largest r^2 never counts again
                if live < norm.size:
                    if not live:
                        break
                    # indices gather faster than a boolean mask that is true about half the time
                    kept = np.flatnonzero(inside)
                    lane.keep(kept)
                    norm = norm[kept]
                sq = lane.column(j)
                sq *= sq
                norm += sq
                inside = norm <= top
                live = np.count_nonzero(inside)
                for row, bound in zip(hits, r2):
                    row[j] += live if bound == top else np.count_nonzero(norm <= bound)
    return [[(p, math.sqrt(p * (1.0 - p) / batch.n)) for p in (row / batch.n).tolist()] for row in hits]
