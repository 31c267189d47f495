"""Reproducibility and statistical sanity of the Monte Carlo oracle."""

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from tmode import ballprob, errors, mcoracle

MASK = (1 << 64) - 1
B = mcoracle._BLOCK
# the monte-carlo benchmark workload's (nu, seed, r) for its seed 1, with k = 4 and n = 250000
BENCHMARK_SEED_1 = [
    (1.0, 7399589116837456607, 0.9855841014131337),
    (2.0, 1087608058291172412, 0.4411394620106921),
    (10.0, 4355693531291048099, 0.7042745624416129),
    (math.inf, 1936491312797304342, 0.1324689633698656),
    (0.5149827905798419, 8239395385945212840, 1.2228001111456417),
]


def reference_splitmix64(seed: int, n: int) -> list[int]:
    """Scalar textbook splitmix64, kept independent of the vector code."""
    state = seed & MASK
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def whole_uniform(gen, n):
    return ((gen.next_uint64(n) >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def whole_normal(gen, n):
    """The sampler's Box-Muller step over whole arrays, as before blocking."""
    pairs = (n + 1) // 2
    u1 = whole_uniform(gen, pairs)
    u2 = whole_uniform(gen, pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = (2.0 * math.pi) * u2
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def whole_gamma(gen, shape, n):
    """Marsaglia-Tsang over whole rounds, as before blocking."""
    boosted = shape < 1.0
    alpha = shape + 1.0 if boosted else shape
    d = alpha - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    filled = 0
    while filled < n:
        want = n - filled
        x = whole_normal(gen, want)
        u = whole_uniform(gen, want)
        t = 1.0 + c * x
        v = t * t * t
        with np.errstate(invalid="ignore", divide="ignore"):
            accept = (v > 0.0) & (np.log(u) < 0.5 * x * x + d - d * v + d * np.log(np.where(v > 0.0, v, 1.0)))
        got = v[accept]
        take = min(got.size, want)
        out[filled : filled + take] = d * got[:take]
        filled += take
    if boosted:
        out *= whole_uniform(gen, n) ** (1.0 / shape)
    return out


def whole_sample(nu, k, n, seed):
    """(draws, final stream position) of sample_t over whole arrays."""
    gen = mcoracle.SplitMix64(seed)
    z = whole_normal(gen, n * k).reshape(n, k)
    if math.isinf(nu):
        return z, gen.position
    # nu/2 == 0: the Gamma(shape -> 0) limit w = 0, so every draw is infinite
    w = 2.0 * whole_gamma(gen, 0.5 * nu, n) if 0.5 * nu > 0.0 else np.zeros(n)
    with np.errstate(divide="ignore", over="ignore"):
        return z * np.sqrt(nu / w)[:, None], gen.position


def whole_prefix_hits(draws, r):
    with np.errstate(over="ignore"):
        sq = np.cumsum(draws * draws, axis=1)
    return [int(np.count_nonzero(sq[:, j] <= r * r)) for j in range(draws.shape[1])]


class TestSplitMix64:
    @pytest.mark.parametrize("seed", [0, 1, 42, 1234567, (1 << 64) - 1])
    def test_matches_scalar_reference(self, seed):
        gen = mcoracle.SplitMix64(seed)
        got = gen.next_uint64(12).tolist()
        assert got == reference_splitmix64(seed, 12)

    def test_stream_is_position_based(self):
        # Two blocks of 5 equal one block of 10.
        a = mcoracle.SplitMix64(99)
        first = np.concatenate([a.next_uint64(5), a.next_uint64(5)])
        b = mcoracle.SplitMix64(99)
        assert np.array_equal(first, b.next_uint64(10))
        assert a.position == b.position == 10

    def test_negative_seed_wraps(self):
        assert np.array_equal(
            mcoracle.SplitMix64(-1).next_uint64(4),
            mcoracle.SplitMix64(MASK).next_uint64(4),
        )

    def test_seed_type_checked(self):
        with pytest.raises(errors.DomainError):
            mcoracle.SplitMix64(1.5)
        with pytest.raises(errors.DomainError):
            mcoracle.SplitMix64(True)

    def test_uniforms_in_half_open_unit_interval(self):
        u = mcoracle.SplitMix64(7).next_uniform(200000)
        assert u.min() > 0.0
        assert u.max() <= 1.0
        assert abs(u.mean() - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / 200000)

    def test_normals_match_moments(self):
        z = mcoracle.SplitMix64(11).next_normal(400001)
        n = z.size
        assert abs(z.mean()) < 4.0 / math.sqrt(n)
        assert abs(z.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
        assert abs((z**3).mean()) < 4.0 * math.sqrt(15.0 / n)

    def test_odd_normal_count(self):
        assert mcoracle.SplitMix64(3).next_normal(7).shape == (7,)

    @pytest.mark.parametrize("shape", [0.35, 0.7, 1.0, 2.5, 50.0])
    def test_gamma_matches_moments(self, shape):
        w = mcoracle.SplitMix64(5).next_gamma(shape, 300000)
        n = w.size
        assert w.min() > 0.0
        # Mean and variance are both equal to the shape; the standard
        # errors use the exact second and fourth central moments.
        se_mean = math.sqrt(shape / n)
        assert abs(w.mean() - shape) < 5.0 * se_mean
        var_of_var = (6.0 * shape + 2.0 * shape * (shape + 1.0)) / n  # loose upper bound
        assert abs(w.var() - shape) < 5.0 * math.sqrt(var_of_var) + 0.01 * shape
        assert abs(w.var() - shape) / shape < 0.05

    @pytest.mark.parametrize("shape", [0.26, 1.0])
    def test_gamma_blocks_reproduce_whole_rounds(self, shape):
        # about 3-5% are rejected, so the second round also spans blocks
        a, b = mcoracle.SplitMix64(5), mcoracle.SplitMix64(5)
        assert a.next_gamma(shape, 1 << 20).tobytes() == whole_gamma(b, shape, 1 << 20).tobytes()
        assert a.position == b.position

    def test_gamma_bad_shape(self):
        # an infinite or nan shape used to make every acceptance test nan, so the rounds never ended
        for shape in (0.0, -1.0, math.inf, math.nan):
            gen = mcoracle.SplitMix64(0)
            with pytest.raises(errors.DomainError):
                gen.next_gamma(shape, 10)
            assert gen.position == 0

    @pytest.mark.parametrize("method", ["next_uint64", "next_uniform", "next_normal", "next_gamma"])
    @pytest.mark.parametrize("n", [-5, 2.5, True, "3"])
    def test_bad_count_leaves_position(self, method, n):
        gen = mcoracle.SplitMix64(0)
        with pytest.raises(errors.DomainError):
            getattr(gen, method)(*((2.0, n) if method == "next_gamma" else (n,)))
        assert gen.position == 0

    def test_zero_count(self):
        gen = mcoracle.SplitMix64(0)
        assert [getattr(gen, m)(0).size for m in ("next_uint64", "next_uniform", "next_normal")] == [0, 0, 0]
        assert gen.next_gamma(0.5, 0).size == 0
        assert gen.position == 0


class TestSampleT:
    def test_bit_for_bit_reproducible(self):
        a = mcoracle.sample_t(3.5, 4, 2000, 77)
        b = mcoracle.sample_t(3.5, 4, 2000, 77)
        assert np.array_equal(a.draws, b.draws)
        assert (a.nu, a.k, a.n, a.seed) == (3.5, 4, 2000, 77)

    def test_different_seeds_differ(self):
        a = mcoracle.sample_t(3.5, 2, 500, 1)
        b = mcoracle.sample_t(3.5, 2, 500, 2)
        assert not np.array_equal(a.draws, b.draws)

    def test_shape_and_dtype(self):
        batch = mcoracle.sample_t(2.0, 3, 1234, 0)
        assert batch.draws.shape == (1234, 3)
        assert batch.draws.dtype == np.float64
        assert np.isfinite(batch.draws).all()

    def test_gaussian_member_variance(self):
        batch = mcoracle.sample_t(math.inf, 2, 200000, 13)
        for j in range(2):
            v = batch.draws[:, j].var()
            assert abs(v - 1.0) < 4.0 * math.sqrt(2.0 / batch.n)

    def test_heavy_tail_variance(self):
        # Per-coordinate variance is nu / (nu - 2).
        nu = 10.0
        batch = mcoracle.sample_t(nu, 2, 500000, 6)
        want = nu / (nu - 2.0)
        # Var of the sample variance: (mu4 - sigma^4) / n with
        # mu4 = 3 nu^2 / ((nu-2)(nu-4)).
        mu4 = 3.0 * nu * nu / ((nu - 2.0) * (nu - 4.0))
        se = math.sqrt((mu4 - want * want) / batch.n)
        for j in range(2):
            assert abs(batch.draws[:, j].var() - want) < 4.0 * se

    # (n, k) with n*k in {1, 2B - 1, 2B, 2B + 1, 3B + 7}
    @pytest.mark.parametrize("n, k", [(1, 1), (2 * B - 1, 1), (B, 2), (2 * B + 1, 1), (3 * B + 7, 1)])
    @pytest.mark.parametrize("nu", [0.52, 1.0, 2.0, 10.0, math.inf])
    def test_blocks_reproduce_whole_array_stream(self, nu, n, k):
        self.assert_matches_whole_array(nu, k, n, 31, 0.8)

    @pytest.mark.parametrize("nu, seed, r", BENCHMARK_SEED_1)
    def test_benchmark_inputs_reproduce_whole_array_stream(self, nu, seed, r):
        self.assert_matches_whole_array(nu, 4, 250_000, seed, r)

    @staticmethod
    def assert_matches_whole_array(nu, k, n, seed, r):
        draws, position = whole_sample(nu, k, n, seed)
        batch = mcoracle.sample_t(nu, k, n, seed)
        assert batch.draws.tobytes() == draws.tobytes()
        gen = mcoracle.SplitMix64(seed)
        gen.next_normal(n * k)
        if not math.isinf(nu):
            gen.next_gamma(0.5 * nu, n)
        assert gen.position == position
        got = mcoracle.estimate_ball_prob_prefixes(batch, r)
        assert [p for p, _ in got] == [h / n for h in whole_prefix_hits(draws, r)]

    # k = 2^14 + 1 splits a Box-Muller pair across two rows; n*k is odd for k = 1, 3 and 2^14 + 1
    @pytest.mark.parametrize("k, n", [(1, 2 * B + 1), (3, B + 1), (20, 1001), (B + 1, 3)])
    @pytest.mark.parametrize("nu", [0.52, 2.0, math.inf, 5e-324])
    def test_streamed_estimate_matches_whole_array(self, nu, k, n):
        self.assert_streams_like_whole_array(nu, k, n, 31, 0.8)

    @pytest.mark.parametrize("nu, seed, r", BENCHMARK_SEED_1)
    def test_benchmark_inputs_stream_like_whole_array(self, nu, seed, r):
        self.assert_streams_like_whole_array(nu, 4, 250_000, seed, r)

    @staticmethod
    def assert_streams_like_whole_array(nu, k, n, seed, r):
        # estimate first, so the blocks are made from the stream, not read from .draws
        draws, _ = whole_sample(nu, k, n, seed)
        batch = mcoracle.sample_t(nu, k, n, seed)
        got = mcoracle.estimate_ball_prob_prefixes(batch, r)
        assert "draws" not in batch.__dict__
        assert [p for p, _ in got] == [h / n for h in whole_prefix_hits(draws, r)]
        assert batch.draws.tobytes() == draws.tobytes()

    @pytest.mark.parametrize("nu", [0.5, math.inf])
    def test_estimate_holds_scales_and_blocks_only(self, nu):
        # the n scales plus fixed blocks; the (n, k) draws are never built
        n = 10**6

        def run():
            batch = mcoracle.sample_t(nu, 4, n, 2)
            mcoracle.estimate_ball_prob_prefixes(batch, 1.0)
            return batch

        tracemalloc.start()
        try:
            run()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            batch = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert "draws" not in batch.__dict__
        assert peak <= 8 * n + 2 * 2**20

    @pytest.mark.parametrize("nu", [0.5, 2.0, math.inf])
    @pytest.mark.parametrize("n", [250_000, 1_000_000])
    def test_working_memory_does_not_grow_with_n(self, nu, n):
        # beyond the draws and the n chi-square variates, only fixed-size blocks;
        # the second of two runs is counted, so one-time allocations drop out
        def run():
            batch = mcoracle.sample_t(nu, 4, n, 2)
            mcoracle.estimate_ball_prob_prefixes(batch, 1.0)
            return batch.draws.nbytes

        tracemalloc.start()
        try:
            run()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            nbytes = run()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= nbytes + 8 * n + 2 * 2**20

    def test_smallest_subnormal_nu_gives_infinite_draws(self):
        # nu/2 underflows to 0: the Gamma(shape -> 0) limit, w = 0
        batch = mcoracle.sample_t(5e-324, 2, 100, 1)
        assert np.isinf(batch.draws).all()

    def test_tiny_nu_saturates_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = mcoracle.sample_t(1e-3, 2, 1000, 1)
        assert np.isinf(batch.draws).any()
        assert not np.isnan(batch.draws).any()

    def test_validation(self):
        with pytest.raises(errors.DomainError):
            mcoracle.sample_t(0.0, 2, 100, 0)
        with pytest.raises(errors.DomainError):
            mcoracle.sample_t(2.0, 0, 100, 0)
        with pytest.raises(errors.DomainError):
            mcoracle.sample_t(2.0, 2, 0, 0)
        with pytest.raises(errors.DomainError):
            mcoracle.sample_t(2.0, 2, 2.5, 0)


def assert_prefixes_match_cumsum(batch, r):
    # squares that overflow to inf are misses, not warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mcoracle.estimate_ball_prob_prefixes(batch, r)
    assert [p for p, _ in got] == [h / batch.n for h in whole_prefix_hits(batch.draws, r)]


class TestPrefixEstimator:
    """The running squared norm gives exactly the hits of a whole-array cumsum."""

    # row counts on both sides of one and two blocks; k = 500 at two of them
    # keeps the (n, k) draws at or under 66 MB
    @pytest.mark.parametrize(
        "k, n",
        [(k, n) for k in (1, 2, 3, 5, 20, 100) for n in (B - 1, B, B + 1, 2 * B + 3)]
        + [(500, B - 1), (500, B + 1)],
    )
    def test_matches_cumsum_reference(self, k, n):
        batch = mcoracle.sample_t(2.5, k, n, k)
        radii = (0.0, math.sqrt(k), 1e9)
        streamed = [mcoracle.estimate_ball_prob_prefixes(batch, r) for r in radii]
        assert "draws" not in vars(batch)
        # the stream's estimates, then the same batch's once its draws are read:
        # the estimators never read them, so reading them leaves the estimates alone
        for r, got in zip(radii, streamed):
            assert [p for p, _ in got] == [h / n for h in whole_prefix_hits(batch.draws, r)]
            assert_prefixes_match_cumsum(batch, r)

    def test_read_draws_leave_the_walk(self, monkeypatch):
        # a batch is summed by the same pair walk whether or not its draws have been built
        made = []
        polar = mcoracle.SplitMix64._polar
        monkeypatch.setattr(mcoracle.SplitMix64, "_polar", lambda gen, u1, pairs: made.append(u1.size) or polar(gen, u1, pairs))
        batch = mcoracle.sample_t(2.0, 3, B + 1, 31)
        made.clear()
        streamed = mcoracle._prefix_estimates(batch, (0.8,))
        walked = sum(made)
        batch.draws
        made.clear()
        assert mcoracle._prefix_estimates(batch, (0.8,)) == streamed
        assert sum(made) == walked

    # k = 2^14 + 1 splits a Box-Muller pair across two rows; odd k makes even and odd rows two lanes
    @pytest.mark.parametrize("k, n", [(1, 2 * B + 1), (3, B + 1), (4, B + 3), (20, 1001), (B + 1, 3)])
    @pytest.mark.parametrize("nu", [0.52, 2.0, math.inf, 5e-324])
    def test_makes_only_live_cells(self, monkeypatch, nu, k, n):
        # the pair whose cos is cell (i, c) is made only while row i's norm after column c-1 is <= the largest r^2
        made = []
        polar = mcoracle.SplitMix64._polar

        def counted(gen, u1, pairs):
            made.append(u1.size)
            return polar(gen, u1, pairs)

        monkeypatch.setattr(mcoracle.SplitMix64, "_polar", counted)
        draws, _ = whole_sample(nu, k, n, 31)
        with np.errstate(over="ignore"):
            norms = np.cumsum(draws * draws, axis=1)
        i, c = np.arange(n)[:, None], np.arange(k - 1)[None, :]
        # at odd k the pair split between an even row's last cell and the next row's first is made for every even row
        split = (k % 2) * ((n + 1) // 2)
        for radii in [(0.0,), (0.8,), (1e200,), (0.3, 0.8)]:
            # r^2 capped at the largest double, as the estimator caps it
            r2 = [min(r * r, sys.float_info.max) for r in radii]
            # live[i, c]: row i is still kept when column c is made (every row is at column 0)
            live = np.hstack([np.ones((n, 1), dtype=bool), norms[:, : k - 2] <= max(r2)])[:, : k - 1]
            batch = mcoracle.sample_t(nu, k, n, 31)  # its chi-square rounds make pairs too
            made.clear()
            got = mcoracle._prefix_estimates(batch, radii)
            assert sum(made) == split + np.count_nonzero(live & ((i * k + c) % 2 == 0))
            for bound, prefixes in zip(r2, got):
                assert [p for p, _ in prefixes] == [np.count_nonzero(norms[:, j] <= bound) / n for j in range(k)]

    @pytest.mark.parametrize("nu", [1e-3, 5e-324])
    @pytest.mark.parametrize("k", [1, 3, 20])
    def test_infinite_draws(self, nu, k):
        batch = mcoracle.sample_t(nu, k, B + 1, 7)
        assert np.isinf(batch.draws).any()
        for r in (0.0, 1.0, 1e9):
            assert_prefixes_match_cumsum(batch, r)


class TestEstimateBallProb:
    def test_within_four_sigma_of_closed_form(self):
        cases = [(1.0, 1, 0.5), (2.0, 2, 1.0), (10.0, 3, 1.5), (math.inf, 4, 2.0)]
        for seed, (nu, k, r) in enumerate(cases):
            batch = mcoracle.sample_t(nu, k, 120000, seed)
            est, se = mcoracle.estimate_ball_prob(batch, r)
            analytic = ballprob.ball_prob(nu, k, r)
            se_true = math.sqrt(analytic * (1.0 - analytic) / batch.n)
            assert abs(est - analytic) <= 4.0 * se_true
            assert se == pytest.approx(se_true, rel=0.2, abs=0.0)

    def test_prefix_estimates(self):
        batch = mcoracle.sample_t(2.0, 4, 80000, 21)
        prefixes = mcoracle.estimate_ball_prob_prefixes(batch, 1.0)
        assert len(prefixes) == 4
        # Estimates must fall with the dimension at fixed radius, and the
        # full-dimension entry must agree with the direct estimator.
        values = [p for p, _ in prefixes]
        assert all(b <= a for a, b in zip(values, values[1:]))
        direct = mcoracle.estimate_ball_prob(batch, 1.0)
        assert prefixes[-1] == direct
        for j, (est, _) in enumerate(prefixes, start=1):
            analytic = ballprob.ball_prob(2.0, j, 1.0)
            se_true = math.sqrt(analytic * (1.0 - analytic) / batch.n)
            assert abs(est - analytic) <= 4.0 * se_true

    def test_extreme_radii(self):
        batch = mcoracle.sample_t(5.0, 2, 1000, 3)
        assert mcoracle.estimate_ball_prob(batch, 0.0) == (0.0, 0.0)
        est, se = mcoracle.estimate_ball_prob(batch, 1e9)
        assert est == 1.0 and se == 0.0

    def test_radius_whose_square_overflows(self):
        # 13858 of the 20000 draws are inf: a row is inside exactly when its squared norm is finite
        batch = mcoracle.sample_t(1e-3, 1, 20000, 1)
        with np.errstate(over="ignore"):
            finite = np.count_nonzero(np.isfinite(batch.draws[:, 0] ** 2))
        assert finite == 6139
        assert mcoracle.estimate_ball_prob(batch, 1e200)[0] == finite / 20000
        # below 1.34e154 r^2 is finite, and the estimates are those of the cumsum reference
        assert_prefixes_match_cumsum(batch, 1e154)

    def test_radius_validation(self):
        batch = mcoracle.sample_t(5.0, 2, 100, 3)
        with pytest.raises(errors.DomainError):
            mcoracle.estimate_ball_prob(batch, -1.0)
        with pytest.raises(errors.DomainError):
            mcoracle.estimate_ball_prob(batch, math.inf)
        with pytest.raises(errors.DomainError):
            mcoracle.estimate_ball_prob_prefixes(batch, math.nan)
