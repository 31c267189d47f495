"""Mode values, densities and radial moments across the family."""

import math
import random

import mpmath as mp
import pytest

from tmode import ballprob, errors, mcoracle, monotone, tdist

INV_2PI = 1.0 / (2.0 * math.pi)

# fmt: off
MODE_VALUE_REFS = [
    (1.0, 1, 0.3183098861837907),
    (2.0, 3, 0.0844046546397287),
    (2.0, 4, 0.05066059182116889),
    (5.0, 4, 0.03546241427481822),
    (0.5, 1, 0.2696763005941897),
    (0.5, 6, 0.18141488118674712),
    (10.0, 2, 0.15915494309189535),
    (30.0, 5, 0.011391082624851421),
    (123.0, 7, 0.0017249425041017464),
    (10000.0, 3, 0.06349839781804817),
    (1000000.0, 1, 0.39894218066587506),
]

RADIAL_MOMENT_REFS = [
    (5.0, 3, 2.0, 5.0),
    (5.0, 3, 3.0, 18.980334491124722),
    (5.0, 1, 4.0, 25.0),
    (10.0, 4, 2.0, 5.0),
    (3.0, 2, 2.5, 18.300746256522107),
    (7.5, 6, 0.5, 1.584927285210397),
    (math.inf, 3, 2.0, 3.0),
    (math.inf, 1, 4.0, 3.0),
    (math.inf, 5, 3.0, 12.766152972845846),
    (2.5, 2, 2.0, 10.0),
]

DENSITY_E1_REFS = [
    (1.0, 1, 0.0, 0.3183098861837907),
    (1.0, 3, 0.0, 0.10132118364233778),
    (1.0, 1, 1.0, 0.15915494309189535),
    (1.0, 3, 1.0, 0.025330295910584444),
    (1.0, 1, 2.5, 0.043904811887419404),
    (1.0, 3, 2.5, 0.0019276325068696841),
    (2.0, 1, 0.0, 0.3535533905932738),
    (2.0, 3, 0.0, 0.0844046546397287),
    (2.0, 1, 1.0, 0.19245008972987526),
    (2.0, 3, 1.0, 0.030629383078988447),
    (2.0, 1, 2.5, 0.04220064386804796),
    (2.0, 3, 2.5, 0.002442342208458369),
    (10.0, 1, 0.0, 0.38910838396603104),
    (10.0, 3, 0.0, 0.06812137497736233),
    (10.0, 1, 1.0, 0.23036198922913864),
    (10.0, 3, 1.0, 0.03666324928629937),
    (10.0, 1, 2.5, 0.02693872762824446),
    (10.0, 3, 2.5, 0.0029022614331725826),
    (math.inf, 1, 0.0, 0.3989422804014327),
    (math.inf, 3, 0.0, 0.06349363593424097),
    (math.inf, 1, 1.0, 0.24197072451914334),
    (math.inf, 3, 1.0, 0.038510836890748947),
    (math.inf, 1, 2.5, 0.017528300493568537),
    (math.inf, 3, 2.5, 0.0027897156675515413),
]
# fmt: on


def mp_dps(*nus: float) -> int:
    """mpmath working precision: the log-gamma terms grow like nu ln nu
    while the moments stay O(1), so 40 fixed digits fail at nu = 1e300."""
    return 30 + 2 * math.ceil(math.log10(max([1.0, *(nu for nu in nus if math.isfinite(nu))])))


def log_moment_nu(nu: float, m: float):
    """ln of nu^(m/2) Gamma((nu-m)/2) / Gamma(nu/2); 2^(m/2) at nu = inf."""
    m = mp.mpf(m)
    if math.isinf(nu):
        return m / 2 * mp.log(2)
    return m / 2 * mp.log(nu) + mp.loggamma((mp.mpf(nu) - m) / 2) - mp.loggamma(mp.mpf(nu) / 2)


def mpmath_cases(rng: random.Random, n: int = 150) -> list[tuple[float, int, float]]:
    """(nu, k, m) with nu log-uniform on [1e-2, 1e12] plus the Gaussian, m < min(nu, 8)."""
    cases = []
    for i in range(n):
        nu = math.inf if i % 10 == 0 else 10.0 ** rng.uniform(-2.0, 12.0)
        cases.append((nu, rng.choice((1, 2, 3, 10, 50, 500)), min(nu, 8.0) * rng.uniform(0.05, 0.95)))
    return cases


class TestValidation:
    def test_check_dof(self):
        assert tdist.check_dof(2.5) == 2.5
        assert tdist.check_dof(math.inf) == math.inf
        for bad in (0.0, -1.0, math.nan, -math.inf):
            with pytest.raises(errors.DomainError):
                tdist.check_dof(bad)

    def test_check_dim(self):
        assert tdist.check_dim(1) == 1
        assert tdist.check_dim(500) == 500
        assert tdist.check_dim(2**53) == 2**53
        for bad in (0, -3, 1.5, True, "2", 2**53 + 1, -10**5000):
            with pytest.raises(errors.DomainError):
                tdist.check_dim(bad)

    def test_two_failure_kinds(self):
        assert issubclass(errors.DimensionMismatchError, errors.DomainError)
        assert issubclass(errors.MomentExistenceError, errors.DomainError)
        assert issubclass(errors.QuadratureConvergenceError, errors.ConvergenceError)

    @pytest.mark.parametrize("k", [2**53 + 2, 10**400], ids=["2**53+2", "10**400"])
    @pytest.mark.parametrize(
        "fn",
        [
            lambda k: tdist.log_mode_value(2.0, k),
            lambda k: tdist.mode_value(2.0, k),
            lambda k: tdist.log_density(2.0, k, [0.0]),
            lambda k: tdist.radial_moment(3.0, k, 1.0),
            lambda k: tdist.moment_ratio(3.0, 5.0, k, 1.0),
            lambda k: tdist.kurtosis_ratio(6.0, 7.0, k),
            lambda k: ballprob.ball_prob(2.0, k, 1.0),
            lambda k: ballprob.ball_prob_quadrature(2.0, k, 1.0),
            lambda k: ballprob.format_published(0.5, k),
            lambda k: monotone.dlog_mode_value(2.0, k),
            lambda k: monotone.mode_value_even_product(2.0, k),
            lambda k: monotone.classify_monotonicity(k, [1.0, 2.0]),
            lambda k: monotone.induction_step_check(2.0, k + 1),
            lambda k: monotone.verify_dimensions(k, [1.0, 2.0]),
            lambda k: mcoracle.sample_t(2.0, k, 1, 0),
        ],
        ids=[
            "log_mode_value",
            "mode_value",
            "log_density",
            "radial_moment",
            "moment_ratio",
            "kurtosis_ratio",
            "ball_prob",
            "ball_prob_quadrature",
            "format_published",
            "dlog_mode_value",
            "mode_value_even_product",
            "classify_monotonicity",
            "induction_step_check",
            "verify_dimensions",
            "sample_t",
        ],
    )
    def test_dimension_past_2_to_the_53(self, fn, k):
        # past 2^53 not every dimension is a double; checked before any O(k) work or allocation
        with pytest.raises(errors.DomainError, match="dimension must be <= 2\\*\\*53"):
            fn(k)

    @pytest.mark.parametrize(
        "fn, args",
        [
            (tdist.mode_value, (10**400, 3)),
            (ballprob.ball_prob, (1, 1, 10**400)),
            (monotone.default_nu_grid, (1, 10**400)),
            (tdist.mode_value, ("x", 3)),
            (tdist.mode_value, (None, 3)),
            (monotone.default_nu_grid, ("a", 2.0)),
            (tdist.log_density, (3.0, 2, [10**400, 0.0])),
            (tdist.radial_moment, (3.0, 2, "one")),
        ],
    )
    def test_non_real_arguments(self, fn, args):
        # what float() cannot convert is a domain error, not a bare TypeError/ValueError/OverflowError
        with pytest.raises(errors.DomainError, match="must be (a )?real number"):
            fn(*args)


class TestModeValue:
    @pytest.mark.parametrize("nu,k,want", MODE_VALUE_REFS)
    def test_frozen_references(self, nu, k, want):
        assert tdist.mode_value(nu, k) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_gaussian_member(self):
        for k in range(1, 12):
            want = (2.0 * math.pi) ** (-0.5 * k)
            assert tdist.mode_value(math.inf, k) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_planar_case_is_constant(self):
        rng = random.Random(90125)
        values = {tdist.mode_value(rng.uniform(1e-6, 1e6), 2) for _ in range(200)}
        assert len(values) == 1
        (value,) = values
        assert abs(value - INV_2PI) <= 1e-14

    def test_cauchy_line(self):
        assert tdist.mode_value(1.0, 1) == pytest.approx(1.0 / math.pi, rel=1e-14, abs=0.0)

    def test_no_overflow_high_dimension(self):
        # Naive Gamma ratios overflow long before nu = 1e8 or k = 500.
        for nu, k in [(1e8, 500), (1e8, 501), (math.inf, 800)]:
            value = tdist.mode_value(nu, k)
            assert value > 0.0 and math.isfinite(value)
            assert math.isfinite(tdist.log_mode_value(nu, k))

    def test_saturates_beyond_double_range(self):
        # c(0.5, 400) is around e^766 and c(inf, 1000) around e^-919;
        # the logs stay finite while the plain values saturate.
        assert math.isfinite(tdist.log_mode_value(0.5, 400))
        assert tdist.mode_value(0.5, 400) == math.inf
        assert math.isfinite(tdist.log_mode_value(math.inf, 1000))
        assert tdist.mode_value(math.inf, 1000) == 0.0

    def test_tiny_nu_is_finite(self):
        assert math.isfinite(tdist.log_mode_value(1e-300, 3))
        # subnormal nu/2: the quotients (f + j)/a overflow, and at nu = 5e-324
        # nu/2 itself underflows to 0; references are 60-digit mpmath
        for nu, k, want in (
            (1e-320, 4, 733.84463393871516049),
            (1e-320, 3, 365.88259619851766228),
            (1e-306, 500, 176284.81672781839757),
            (1e-310, 500, 178578.19148044046784),
            (5e-324, 4, 741.45746496912252),
            (5e-324, 3, 369.68901171372134),
        ):
            assert tdist.log_mode_value(nu, k) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [3, 5, 7, 1001])
    def test_subnormal_tail_weight_against_mpmath(self, n):
        # nu = n 2^-1074, whose half rounds for odd n: ln c from nu itself, not nu/2
        nu = n * 2.0**-1074
        for k in (1, 2, 3, 20, 500):
            with mp.workdps(60):
                want = mp.loggamma((mp.mpf(nu) + k) / 2) - mp.loggamma(mp.mpf(nu) / 2) - mp.mpf(k) / 2 * mp.log(mp.pi * nu)
            assert tdist.log_mode_value(nu, k) == pytest.approx(float(want), rel=1e-15, abs=0.0), (n, k)

    def test_log_consistency(self):
        for nu, k, want in MODE_VALUE_REFS:
            assert math.exp(tdist.log_mode_value(nu, k)) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_gaussian_limit_gap_shrinks(self):
        for k in (1, 3, 4):
            limit = (2.0 * math.pi) ** (-0.5 * k)
            gaps = [abs(tdist.mode_value(10.0**j, k) - limit) for j in range(1, 6)]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] / limit < 1e-4

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            tdist.mode_value(-1.0, 2)
        with pytest.raises(errors.DomainError):
            tdist.mode_value(2.0, 0)


def loop_log_density(nu, k, point):
    """log_density with a per-coordinate finiteness check before the sum, the reference."""
    nu = tdist.check_dof(nu)
    k = tdist.check_dim(k)
    try:
        coords = [float(c) for c in point]
    except (TypeError, ValueError, OverflowError) as exc:
        raise errors.DomainError(f"coordinates must be real numbers: {exc}") from None
    if len(coords) != k:
        raise errors.DimensionMismatchError(f"expected {k} coordinates, got {len(coords)}")
    for c in coords:
        if math.isnan(c) or math.isinf(c):
            raise errors.DomainError(f"coordinates must be finite, got {c!r}")
    try:
        sq = math.fsum(c * c for c in coords)
    except OverflowError:
        sq = math.inf
    base = tdist.log_mode_value(nu, k)
    if math.isinf(nu):
        return base - 0.5 * sq
    if sq == math.inf:
        s = max(abs(c) for c in coords)
        log_q = 2.0 * math.log(s) + math.log(math.fsum((c / s) ** 2 for c in coords)) - math.log(nu)
        return base - 0.5 * (nu + k) * (log_q + math.log1p(math.exp(-log_q)))
    q = sq / nu
    return base - 0.5 * (nu + k) * (math.log1p(q) if q < math.inf else math.log(sq) - math.log(nu))


# one k, as a range (verify_dimension's walk) and as a tuple
ONE_K_SHAPES = [shape for k in (1, 2, 3, 20, 501, 20_001) for shape in ((k,), range(k, k + 1))]


class TestLogRatioValues:
    """The log-gamma sums from prefixes of one term list per parity have _log_ratio_nu's bits."""

    @staticmethod
    def assert_same_bits(nu, ks):
        got = tdist._log_ratio_values(nu, ks)
        assert [v.hex() for v in got] == [tdist._log_ratio_nu(nu, k).hex() for k in ks], (nu, ks)

    def test_log_uniform_tail_weights(self):
        # nu log-uniform on [1e-320, 1.7e308], with the walks verify makes: from k = 1, from
        # a later block start, over the even k alone and over odd k alone, and one k
        rng = random.Random(2028)
        for _ in range(400):
            nu = 10.0 ** rng.uniform(-320.0, 308.2)
            for ks in [range(1, 61), range(37, 101), range(2, 61, 2), range(3, 61, 2), *ONE_K_SHAPES]:
                self.assert_same_bits(nu, ks)

    @pytest.mark.parametrize(
        "nu",
        # subnormal halves, the first normal half, the series threshold a = 15, and nu + h = inf
        [5e-324, 1e-320, 2.0**-1021, 2.0**-1020, 29.999999999999996, 30.0, 1e300, 1.7976931348623157e308, math.inf],
    )
    def test_edges(self, nu):
        for ks in [range(1, 80), range(3, 61, 2), *ONE_K_SHAPES]:
            self.assert_same_bits(nu, ks)

    @pytest.mark.parametrize("ks", [range(19_990, 20_010), range(20_001, 20_004)], ids=["across", "past"])
    def test_past_the_whole_steps(self, ks):
        # beyond _MAX_STEPS whole steps Q takes the lgamma or Stirling route for every k
        for nu in (0.3, 7.0, 2e4, 1e9):
            self.assert_same_bits(nu, ks)

    def test_quotient_past_the_double_range(self):
        # (k/2) / (nu/2) overflows for the largest k first: every k then takes _log_ratio_nu
        nu = 2e-306
        assert 0.5 * 40 / (0.5 * nu) < math.inf == 0.5 * 999 / (0.5 * nu)
        for ks in (range(1, 41), range(1, 10**3)):
            self.assert_same_bits(nu, ks)


def outcome(fn, *args):
    try:
        return "value", fn(*args).hex()
    except (errors.DomainError, errors.DimensionMismatchError) as exc:
        return type(exc).__name__, str(exc)


class TestLogDensity:
    @pytest.mark.parametrize("nu", [2.5, math.inf, 1e-310])
    @pytest.mark.parametrize(
        "point",
        [
            [0.0, -0.0, 5e-324],
            [1.0, math.nan, math.inf],
            [math.inf, 1.0, math.nan],
            [-math.inf, -math.inf, 0.0],
            [1e200, math.nan, 1.0],  # the sum overflows before the nan
            [1.3e154, 1.3e154, 1.0],
            [1e300, -1e300, 1e300],
            [2e154, 3.0, -1e-300],
            [1.0, 2.0],
            [1.0, math.nan],
            [1.0, 2.0, 3.0, math.inf],
            [1.0, "x", 2.0],
            [1.0, 10**400, 2.0],
        ],
    )
    def test_same_bits_and_errors_as_the_loop_check(self, nu, point):
        assert outcome(tdist.log_density, nu, 3, point) == outcome(loop_log_density, nu, 3, point)

    @pytest.mark.parametrize("nu,k,t,want", DENSITY_E1_REFS)
    def test_frozen_references_along_first_axis(self, nu, k, t, want):
        point = [t] + [0.0] * (k - 1)
        assert math.exp(tdist.log_density(nu, k, point)) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_origin_matches_mode_value(self):
        for nu in (0.7, 1.0, 4.0, 50.0, math.inf):
            for k in (1, 2, 5):
                got = math.exp(tdist.log_density(nu, k, [0.0] * k))
                assert got == pytest.approx(tdist.mode_value(nu, k), rel=1e-14, abs=0.0)

    def test_radial_symmetry(self):
        a = tdist.log_density(3.0, 2, [0.6, 0.8])
        b = tdist.log_density(3.0, 2, [1.0, 0.0])
        c = tdist.log_density(3.0, 2, [-0.8, 0.6])
        assert a == pytest.approx(b, rel=1e-15, abs=0.0)
        assert a == pytest.approx(c, rel=1e-15, abs=0.0)

    def test_decreasing_in_radius(self):
        vals = [tdist.log_density(2.5, 3, [r, 0.0, 0.0]) for r in (0.0, 0.5, 1.0, 2.0, 8.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_heavy_tail_beats_gaussian_far_out(self):
        far = [30.0, 0.0]
        assert tdist.log_density(1.0, 2, far) > tdist.log_density(math.inf, 2, far)

    @pytest.mark.parametrize(
        "nu,k,point,want",
        [
            # 60-digit mpmath; |x|^2 / nu overflows
            (1e-320, 2, [0.3, 0.1], -736.3625328643892),
            (5e-324, 1, [2.0], -745.8263662825011),
            (1e-310, 4, [1, 1, 1, 1], -719.5565745026527),
        ],
    )
    def test_subnormal_tail_weight(self, nu, k, point, want):
        assert tdist.log_density(nu, k, point) == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize(
        "nu,k,point",
        [
            (3.0, 2, [1e200, 1e200]),
            (3.0, 1, [2e154]),
            (3.0, 2, [1.3e154, 1.3e154]),  # finite squares, overflowing sum
            (0.5, 3, [1e300, -2e299, 5.0]),
            (1e10, 2, [1e160, 1e150]),
            (1e-300, 4, [1e300, 1.0, 2.0, 3.0]),
        ],
    )
    def test_squared_norm_past_double_range(self, nu, k, point):
        with mp.workdps(mp_dps(nu)):
            nu_mp = mp.mpf(nu)
            sq = mp.fsum(mp.mpf(c) ** 2 for c in point)
            want = mp.loggamma((nu_mp + k) / 2) - mp.loggamma(nu_mp / 2) - k * mp.log(mp.pi * nu_mp) / 2
            want -= (nu_mp + k) / 2 * mp.log1p(sq / nu_mp)
            assert abs(tdist.log_density(nu, k, point) / want - 1) <= 1e-13

    def test_checks_each_argument_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(tdist, "check_dof", lambda nu, check=tdist.check_dof: calls.append(nu) or check(nu))
        tdist.log_density(2.5, 2, [1.0, 0.5])
        assert calls == [2.5]

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatchError):
            tdist.log_density(2.0, 3, [1.0, 2.0])
        with pytest.raises(errors.DimensionMismatchError):
            tdist.log_density(2.0, 1, [1.0, 2.0])

    def test_bad_coordinates(self):
        with pytest.raises(errors.DomainError):
            tdist.log_density(2.0, 2, [1.0, math.nan])
        with pytest.raises(errors.DomainError):
            tdist.log_density(2.0, 2, [math.inf, 0.0])


class TestRadialMoment:
    @pytest.mark.parametrize("nu,k,m,want", RADIAL_MOMENT_REFS)
    def test_frozen_references(self, nu, k, m, want):
        assert tdist.radial_moment(nu, k, m) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_order_zero(self):
        assert tdist.radial_moment(3.0, 4, 0.0) == 1.0
        assert tdist.radial_moment(math.inf, 2, 0) == 1.0
        # the smallest subnormal nu, where nu/2 underflows to 0
        assert tdist.radial_moment(5e-324, 3, 0) == 1.0
        assert tdist.moment_ratio(5e-324, 3.0, 2, 0) == 1.0

    def test_variance_formula(self):
        # E|X|^2 = k nu / (nu - 2) for nu > 2.
        for nu in (2.5, 5.0, 40.0, 1e12):
            for k in (1, 3, 7):
                want = k * nu / (nu - 2.0)
                assert tdist.radial_moment(nu, k, 2.0) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_existence_boundary(self):
        with pytest.raises(errors.MomentExistenceError):
            tdist.radial_moment(4.0, 2, 4.0)
        with pytest.raises(errors.MomentExistenceError):
            tdist.radial_moment(4.0, 2, 5.0)
        assert tdist.radial_moment(4.0, 2, 3.999) > 0.0

    def test_gaussian_has_all_moments(self):
        assert tdist.radial_moment(math.inf, 2, 40.0) > 0.0

    def test_saturates_beyond_double_range(self):
        assert tdist.radial_moment(math.inf, 3, 400.0) == math.inf
        assert tdist.radial_moment(1000.0, 3, 999.0) == math.inf
        assert tdist.moment_ratio(2000.0, math.inf, 3, 1999.9) == math.inf

    def test_against_mpmath(self):
        for nu, k, m in mpmath_cases(random.Random(41)):
            with mp.workdps(mp_dps(nu)):
                want = mp.exp(log_moment_nu(nu, m) + mp.loggamma((mp.mpf(k) + m) / 2) - mp.loggamma(mp.mpf(k) / 2))
                assert abs(tdist.radial_moment(nu, k, m) / want - 1) <= 1e-13, (nu, k, m)

    def test_halved_order_ties_halved_subnormal_tail_weight(self):
        # m < nu, yet m/2 and nu/2 both round to 2^-1073; E|X|^m -> nu / (nu - m) = 5
        # as nu -> 0, taken from nu and m themselves
        nu, m = 2.5e-323, 2e-323
        assert m < nu and 0.5 * m == 0.5 * nu
        assert tdist.radial_moment(nu, 1, m) == pytest.approx(5.0, rel=1e-15, abs=0.0)
        assert tdist.moment_ratio(nu, 3.0, 1, m) == pytest.approx(5.0, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [3, 5, 7, 1001])
    def test_subnormal_tail_weight_against_mpmath(self, n):
        # nu = n 2^-1074, whose half rounds for odd n
        nu = n * 2.0**-1074
        for m in (2.0**-1074, 2.0**-1073, nu - 2.0**-1074):
            for k in (1, 3, 20):
                with mp.workdps(60):
                    want = mp.exp(log_moment_nu(nu, m) + mp.loggamma((mp.mpf(k) + m) / 2) - mp.loggamma(mp.mpf(k) / 2))
                    ratio = want / mp.exp(log_moment_nu(3.0, m) + mp.loggamma((mp.mpf(k) + m) / 2) - mp.loggamma(mp.mpf(k) / 2))
                assert tdist.radial_moment(nu, k, m) == pytest.approx(float(want), rel=1e-15, abs=0.0), (n, m, k)
                assert tdist.moment_ratio(nu, 3.0, k, m) == pytest.approx(float(ratio), rel=1e-15, abs=0.0), (n, m, k)

    def test_bad_order(self):
        with pytest.raises(errors.DomainError):
            tdist.radial_moment(5.0, 2, -1.0)
        with pytest.raises(errors.DomainError):
            tdist.radial_moment(5.0, 2, math.nan)


class TestMomentRatio:
    def test_free_of_dimension(self):
        values = {tdist.moment_ratio(5.0, 10.0, k, 2.0) for k in range(1, 11)}
        assert len(values) == 1

    def test_known_value(self):
        # Variance ratio (5/3) / (10/8) = 4/3, independent of dimension.
        for k in (1, 4, 10):
            assert tdist.moment_ratio(5.0, 10.0, k, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-13, abs=0.0)
        # the same variance ratio far out in the tail weight
        want = (1e12 / (1e12 - 2.0)) / (1e11 / (1e11 - 2.0))
        assert tdist.moment_ratio(1e12, 1e11, 3, 2.0) == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_against_mpmath(self):
        rng = random.Random(43)
        for nu1, k, m in mpmath_cases(rng):
            nu2 = math.inf if rng.random() < 0.1 else 10.0 ** rng.uniform(math.log10(m) + 1e-9, 12.0)
            with mp.workdps(mp_dps(nu1, nu2)):
                want = mp.exp(log_moment_nu(nu1, m) - log_moment_nu(nu2, m))
                assert abs(tdist.moment_ratio(nu1, nu2, k, m) / want - 1) <= 1e-12, (nu1, nu2, m)

    def test_same_member_is_one(self):
        for nu in (0.5, 3.0, 77.0, math.inf):
            assert tdist.moment_ratio(nu, nu, 3, 0.3 if nu < 1 else 2.0) == 1.0

    def test_matches_direct_quotient(self):
        cases = [
            (5.0, 10.0, 2, 2.0),
            (3.0, 7.0, 4, 2.5),
            (6.5, 2.2, 1, 2.0),
            (5.0, math.inf, 3, 3.0),
            (math.inf, 5.0, 3, 3.0),
            (math.inf, math.inf, 2, 6.0),
        ]
        for nu1, nu2, k, m in cases:
            direct = tdist.radial_moment(nu1, k, m) / tdist.radial_moment(nu2, k, m)
            assert tdist.moment_ratio(nu1, nu2, k, m) == pytest.approx(direct, rel=1e-12, abs=0.0)

    def test_reciprocal_pair(self):
        a = tdist.moment_ratio(5.0, 9.0, 2, 3.0)
        b = tdist.moment_ratio(9.0, 5.0, 2, 3.0)
        assert a * b == pytest.approx(1.0, rel=1e-13, abs=0.0)

    def test_existence(self):
        with pytest.raises(errors.MomentExistenceError):
            tdist.moment_ratio(5.0, 10.0, 2, 6.0)
        with pytest.raises(errors.MomentExistenceError):
            tdist.moment_ratio(10.0, 5.0, 2, 6.0)
        with pytest.raises(errors.MomentExistenceError):
            tdist.moment_ratio(5.0, math.inf, 2, 5.0)


class TestKurtosisRatio:
    def test_free_of_dimension(self):
        values = {tdist.kurtosis_ratio(5.0, 6.0, k) for k in range(1, 11)}
        assert len(values) == 1

    def test_known_value(self):
        # ((5-2)/(5-4)) / ((6-2)/(6-4)) = 3/2.
        assert tdist.kurtosis_ratio(5.0, 6.0, 1) == pytest.approx(1.5, rel=1e-13, abs=0.0)

    def test_matches_moment_quotient(self):
        for nu1, nu2, k in [(5.0, 6.0, 2), (4.5, 30.0, 3), (7.0, math.inf, 1)]:
            beta1 = tdist.radial_moment(nu1, k, 4.0) / tdist.radial_moment(nu1, k, 2.0) ** 2
            beta2 = tdist.radial_moment(nu2, k, 4.0) / tdist.radial_moment(nu2, k, 2.0) ** 2
            assert tdist.kurtosis_ratio(nu1, nu2, k) == pytest.approx(beta1 / beta2, rel=1e-12, abs=0.0)

    def test_gaussian_pair(self):
        assert tdist.kurtosis_ratio(math.inf, math.inf, 3) == 1.0

    def test_needs_fourth_moment(self):
        with pytest.raises(errors.MomentExistenceError):
            tdist.kurtosis_ratio(4.0, 6.0, 1)
        with pytest.raises(errors.MomentExistenceError):
            tdist.kurtosis_ratio(6.0, 3.9, 1)
