"""Ball probabilities: closed form, quadrature cross-check, published table."""

import math
import random
import time

import mpmath as mp
import pytest

from tmode import ballprob, errors, specfun
from tmode.specfun import reg_lower_inc_gamma

RADII = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)


class TestClosedForm:
    def test_cauchy_line(self):
        # nu=1, k=1 is the standard Cauchy: P(|X| <= r) = (2/pi) atan r.
        for r in RADII + (25.0, 1000.0):
            want = (2.0 / math.pi) * math.atan(r)
            assert abs(ballprob.ball_prob(1.0, 1, r) - want) <= 1e-12

    def test_cauchy_space(self):
        # nu=1, k=3: P = (2/pi)(atan r - r / (1 + r^2)).
        for r in RADII:
            want = (2.0 / math.pi) * (math.atan(r) - r / (1.0 + r * r))
            assert abs(ballprob.ball_prob(1.0, 3, r) - want) <= 1e-12

    def test_two_dof_closed_forms(self):
        for r in RADII:
            assert ballprob.ball_prob(2.0, 1, r) == pytest.approx(
                r / math.sqrt(2.0 + r * r), rel=1e-13, abs=0.0
            )
            assert ballprob.ball_prob(2.0, 2, r) == pytest.approx(
                r * r / (r * r + 2.0), rel=1e-13, abs=0.0
            )

    def test_gaussian_closed_forms(self):
        for r in RADII:
            assert ballprob.ball_prob(math.inf, 1, r) == pytest.approx(
                math.erf(r / math.sqrt(2.0)), rel=1e-13, abs=0.0
            )
            assert ballprob.ball_prob(math.inf, 2, r) == pytest.approx(
                -math.expm1(-0.5 * r * r), rel=1e-13, abs=0.0
            )

    def test_huge_nu_matches_gaussian(self):
        # at nu = 1e300 the F law is the chi-square law to double precision;
        # r = 5 is left out: near probability 1 the complement's continued
        # fraction does not converge at this nu (a known defect)
        for r in RADII[:-1]:
            assert abs(ballprob.ball_prob(1e300, 2, r) + math.expm1(-0.5 * r * r)) <= 1e-12

    @pytest.mark.parametrize(
        "nu, k, r",
        [
            (1e16, 2, 3.0),
            (1e20, 2, 3.0),
            pytest.param(
                1e12, 20, 5.0,
                marks=pytest.mark.xfail(
                    strict=True, reason="the later continued-fraction steps cancel like the first: 1.7e-8 off"
                ),
            ),
        ],
    )
    def test_huge_nu_against_quadrature(self, nu, k, r):
        # nu/2 dwarfs k/2, so x lies near (a + 1)/(a + b) and the fraction's first
        # denominator 1 - (a + b) x / (a + 1) cancels unless it is formed from y = 1 - x
        got = ballprob.ball_prob(nu, k, r)
        assert got >= 0.0
        assert got == pytest.approx(ballprob.ball_prob_quadrature(nu, k, r).value, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "nu,k,r,want",
        [
            # 1000-digit mpmath; nu/2 or nu/(r^2 + nu) underflows to 0
            (5e-324, 2, 10.0, 1.8503876065304516e-321),
            (1e-300, 3, 1e150, 6.9046867507877367e-298),
            (1e-20, 1, 1e154, 3.7831710243158342e-18),
            (5e-324, 3, 0.1, 1.8261189883448124e-321),
            # r^2 underflows, and the first-order value would be negative
            (5e-324, 500, 1e-170, 0.0),
        ],
    )
    def test_underflowing_tail_weight(self, nu, k, r, want):
        # within one subnormal ulp plus rounding
        assert abs(ballprob.ball_prob(nu, k, r) - want) <= 5e-324 + 1e-15 * want

    @pytest.mark.parametrize("nu", [1e-300, 1e-10, 1.0, 7.5, 1e10, 1e300])
    @pytest.mark.parametrize("k", [1, 2, 3, 20])
    @pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-155, 1.5e-154, 1e-150])
    def test_tiny_radius_against_mpmath(self, nu, k, r):
        # r^2 or x = r^2/(r^2 + nu) falls below the normal doubles; ln x comes from ln r
        with mp.workdps(30 + 2 * math.ceil(abs(math.log10(nu)))):
            r2 = mp.mpf(r) ** 2
            want = mp.betainc(mp.mpf(k) / 2, mp.mpf(nu) / 2, 0, r2 / (r2 + nu), regularized=True)
            # one ulp of ln P (about 700 here) is 1.1e-13 of P; below the
            # normal doubles P keeps that, plus one subnormal ulp
            assert abs(ballprob.ball_prob(nu, k, r) - want) <= 2e-13 * want + 5e-324

    @pytest.mark.parametrize("k", [1, 2, 3, 20])
    def test_gaussian_tiny_radius_against_mpmath(self, k):
        # r^2 falls below the normal doubles; ball_prob(inf, 1, 1e-200) was 0.0
        for i in range(158):
            r = 10.0 ** (-307 + i)
            with mp.workdps(30):
                want = mp.gammainc(mp.mpf(k) / 2, 0, mp.mpf(r) ** 2 / 2, regularized=True)
            # for k >= 2 the value is below the normal doubles: one subnormal ulp
            assert abs(ballprob.ball_prob(math.inf, k, r) - want) <= 1e-13 * want + (0.0 if k == 1 else 5e-324), r

    def test_gaussian_keeps_its_bits_from_normal_squares(self):
        rng = random.Random(5)
        radii = [1.5e-154, 1.6e-154, 1e-150, 1e-100, 0.1, 3.0] + [10.0 ** rng.uniform(-154.0, 2.0) for _ in range(200)]
        for k in (1, 2, 3, 20):
            for r in radii:
                assert ballprob.ball_prob(math.inf, k, r).hex() == reg_lower_inc_gamma(0.5 * k, 0.5 * r * r).hex()

    def test_gaussian_checks_arguments_once(self, monkeypatch):
        # ball_prob's own checks cover what reg_lower_inc_gamma would check again
        monkeypatch.setattr(specfun, "_require_positive", lambda *args: pytest.fail("checked again"))
        assert ballprob.ball_prob(math.inf, 3, 1.5) > 0.0

    def test_largest_dimension(self):
        # at nu = 2, I_x(k/2, 1) = x^(k/2) with x = r^2 / (r^2 + 2)
        k = 2**53
        r = math.sqrt(k)
        want = math.exp(0.5 * k * math.log1p(-2.0 / (r * r + 2.0)))
        assert abs(ballprob.ball_prob(2.0, k, r) - want) <= 1e-13 * want

    def test_both_arguments_round_up(self):
        # r^2 + nu rounds down, so x = r^2/(r^2 + nu) and 1 - x = nu/(r^2 + nu)
        # both round up and both pass their switch points of the incomplete beta
        r = 1.1547005383792515
        assert r * r == 4.0 / 3.0
        # nu = 1, k = 2: P = 1 - sqrt(1 - x)
        assert ballprob.ball_prob(1.0, 2, r) == pytest.approx(1.0 - math.sqrt(3.0 / 7.0), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "nu, r",
        [
            (3.0, 1.5),  # x and y normal
            (1.0, 1e-200),  # r^2 underflows
            (1e300, 1e-150),  # x underflows
            (1e-3, 1e200),  # r^2 + nu overflows, y the smaller side
            (1.7e308, 1.3e154),  # r^2 + nu overflows, x the smaller side
        ],
    )
    def test_passes_the_log_of_the_smaller_side(self, monkeypatch, nu, r):
        # the incomplete beta kernel takes ln min(x, y) from its caller in every regime
        seen = []
        monkeypatch.setattr(ballprob, "_reg_inc_beta", lambda a, b, x, y, log_small: seen.append(log_small) or 0.5)
        ballprob.ball_prob(nu, 3, r)
        with mp.workdps(40):
            r2 = mp.mpf(r) ** 2
            want = mp.log(min(r2, mp.mpf(nu)) / (r2 + nu))
        # where r^2 + nu overflows, ln nu - 2 ln r near 1400 leaves an error of a few 1e-13
        assert seen == [pytest.approx(float(want), rel=1e-15, abs=1e-12)]

    def test_overflowing_sum_takes_y_from_its_log(self):
        # r^2 + nu is not representable; ln y = ln nu - 2 ln r - log1p(nu / r^2) is
        cases = [
            # 50-digit mpmath 1 - I_y(nu/2, k/2) at y = nu / (r^2 + nu)
            (1e-3, 1, 1e200, 0.37165357502776987, 1e-15),
            (1e-3, 3, 1e300, 0.50038758014995175, 2e-15),
            # y underflows at nu < 2^-51: the first-order branch
            (1e-20, 2, 1e200, 4.8354286952874957e-18, 1e-15),
            (1e308, 2, 1.2e154, 1.0, 0.0),
        ]
        for nu, k, r, want, rel in cases:
            assert ballprob.ball_prob(nu, k, r) == pytest.approx(want, rel=rel, abs=0.0), (nu, k, r)

    def test_at_zero_radius(self):
        for nu in (1.0, 3.5, math.inf):
            for k in (1, 2, 5):
                assert ballprob.ball_prob(nu, k, 0.0) == 0.0

    def test_saturates_at_large_radius(self):
        assert ballprob.ball_prob(5.0, 3, 1e8) == pytest.approx(1.0, abs=1e-12)
        assert ballprob.ball_prob(math.inf, 2, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert ballprob.ball_prob(math.inf, 1, 1e150) == 1.0

    def test_monotone_in_radius(self):
        for nu, k in [(1.0, 1), (2.0, 3), (10.0, 4), (math.inf, 2)]:
            vals = [ballprob.ball_prob(nu, k, r) for r in RADII]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_ordering_in_nu_tracks_peak_height(self):
        # At small radius the mass is roughly f(0) * ball volume, so the
        # nu-ordering flips with the dimension exactly like the peaks:
        # rising for k=1,2 and falling for k >= 3.
        nus = (1.0, 2.0, 10.0, math.inf)
        for k in (1, 2):
            vals = [ballprob.ball_prob(nu, k, 0.1) for nu in nus]
            assert all(b > a for a, b in zip(vals, vals[1:]))
        for k in (3, 4):
            vals = [ballprob.ball_prob(nu, k, 0.1) for nu in nus]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            ballprob.ball_prob(3.0, 2, -0.1)
        with pytest.raises(errors.DomainError):
            ballprob.ball_prob(3.0, 2, math.inf)
        with pytest.raises(errors.DomainError):
            ballprob.ball_prob(3.0, 2, math.nan)
        with pytest.raises(errors.DomainError):
            ballprob.ball_prob(-3.0, 2, 0.1)
        with pytest.raises(errors.DomainError):
            ballprob.ball_prob(3.0, 0, 0.1)


# ball_prob_quadrature's measured agreement with the closed form, from its docstring
QUAD_RTOL = 1e-13

# ball masses against mpmath 1.3, P = 1 - I_y(nu/2, k/2) with y = nu / (r^2 + nu)
# (gammainc at nu = inf), digits scaled with |log10 nu|
QUAD_REFERENCES = [
    # mp.dps = 44; 1 - mp.betainc(mpf(1e4) / 2, 10, 0, y, regularized=True)
    (1e4, 20, 4.0, 0.2834748574214832),
    # mp.dps = 52; 1 - mp.betainc(mpf(1e12) / 2, 10, 0, y, regularized=True)
    (1e12, 20, 5.0, 0.7985688950511167),
    # mp.dps = 40; 1 - mp.betainc(mpf(1) / 2, 250, 0, y, regularized=True)
    (1.0, 500, 20.0, 0.264089364376041),
    # mp.dps = 40; 1 - mp.betainc(mpf(0.5) / 2, mpf(1) / 2, 0, y, regularized=True)
    (0.5, 1, 1e8, 0.9999358598049172),
    # mp.dps = 40; mp.gammainc(250, 0, mpf(1e150) ** 2 / 2, regularized=True)
    (math.inf, 500, 1e150, 1.0),
    # mp.dps = 40; 1 - mp.betainc(mpf(0.3) / 2, mpf(7) / 2, 0, y, regularized=True)
    (0.3, 7, 1e150, 1.0),
]


# ball_prob_quadrature across the range of nu: a sample, drawn once with random.Random(19), of the grids
# k in {1, 2, 3, 4, 7, 20, 100, 500} times the nu and r below, among masses above 1e-290. References
# from mpmath 1.3, with a = mpf(k) / 2, b = mpf(nu) / 2, x = r^2 / (r^2 + nu) and y = nu / (r^2 + nu) in mpf
QUAD_GRID_SAMPLE = [
    # small nu: nu in {1e-2, 1e-4, 1e-8, 1e-16, 1e-30, 1e-50, 1e-100, 1e-200, 1e-300, 1e-310, 5e-324},
    # r in {1e-3, 1e-2, 0.1, 0.3, 1, 3, 10, 100, 1e4, 1e10, 1e50, 1e100, 1e200}, and two draws at nu = 5e-324
    (5e-324, 2, 3.0, 1.843e-321),  # mp.dps = 383; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (5e-324, 20, 1e+100, 2.97e-321),  # mp.dps = 383; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-200, 100, 0.001, 2.211111513512577e-198),  # mp.dps = 260; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-100, 20, 100.0, 1.1831994070870626e-98),  # mp.dps = 160; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-50, 1, 10.0, 6.056035959840513e-49),  # mp.dps = 110; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-50, 2, 0.1, 5.526204223185709e-49),  # mp.dps = 110; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-50, 2, 1e+100, 2.878231366242557e-48),  # mp.dps = 110; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-50, 100, 0.3, 5.412105185136049e-49),  # mp.dps = 110; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-16, 4, 100.0, 2.252585092994043e-15),  # mp.dps = 76; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-16, 500, 0.1, 1.3069758026243272e-15),  # mp.dps = 76; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1e-08, 500, 0.001, 1.2746400588702234e-10),  # mp.dps = 68; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (0.0001, 2, 10000.0, 0.0013805971534754146),  # mp.dps = 64; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (0.0001, 500, 1e+200, 0.045156080719811705),  # mp.dps = 64; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (0.01, 4, 3.0, 0.028618026590584978),  # mp.dps = 62; 1 - mp.betainc(b, a, 0, y, regularized=True)
    # middle: nu in {0.3, 1, 2.5, 10, 1e4}, r in {1e-3, 1e-2, 0.1, 0.5, 1, 2, 5, 20, 1e3, 1e10}
    (0.3, 2, 0.01, 4.999041895541773e-05),  # mp.dps = 60; mp.betainc(a, b, 0, x, regularized=True)
    (0.3, 20, 2.0, 0.06266574993706107),  # mp.dps = 60; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1.0, 20, 5.0, 0.381731288258796),  # mp.dps = 60; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (1.0, 100, 0.01, 7.919618607947868e-202),  # mp.dps = 60; mp.betainc(a, b, 0, x, regularized=True)
    (2.5, 1, 5.0, 0.9765488100291382),  # mp.dps = 60; 1 - mp.betainc(b, a, 0, y, regularized=True)
    (2.5, 2, 0.5, 0.11231446393062677),  # mp.dps = 60; mp.betainc(a, b, 0, x, regularized=True)
    (2.5, 2, 1.0, 0.3433409176964868),  # mp.dps = 60; mp.betainc(a, b, 0, x, regularized=True)
    (2.5, 20, 20.0, 0.9730603622920728),  # mp.dps = 60; 1 - mp.betainc(b, a, 0, y, regularized=True)
    # huge nu: nu in {1e8, 1e12, 1e13, 1e16, 1e20, 1e50, 1e150, 1e300}, r in {0.01, 0.1, 0.5, 1, 2, 3, 5, 7, 10, 20, 40, 100}
    (100000000.0, 100, 0.01, 2.920214113371063e-280),  # mp.dps = 68; mp.betainc(a, b, 0, x, regularized=True)
    (100000000.0, 100, 1.0, 1.7888194635748218e-80),  # mp.dps = 68; mp.betainc(a, b, 0, x, regularized=True)
    (1000000000000.0, 3, 0.5, 0.030859595783743234),  # mp.dps = 72; mp.betainc(a, b, 0, x, regularized=True)
    (10000000000000.0, 3, 0.5, 0.03085959578372838),  # mp.dps = 73; mp.betainc(a, b, 0, x, regularized=True)
    (10000000000000.0, 3, 1.0, 0.1987480430987992),  # mp.dps = 73; mp.betainc(a, b, 0, x, regularized=True)
    (1e+20, 4, 0.1, 1.2458411354275084e-05),  # mp.dps = 80; mp.betainc(a, b, 0, x, regularized=True)
    (1e+50, 2, 2.0, 0.8646647167633873),  # mp.dps = 110; mp.betainc(a, b, 0, x, regularized=True)
    (1e+150, 2, 1.0, 0.3934693402873666),  # mp.dps = 210; mp.betainc(a, b, 0, x, regularized=True)
    (1e+150, 4, 5.0, 0.9999496901821769),  # mp.dps = 210; mp.betainc(a, b, 0, x, regularized=True)
    (1e+300, 1, 0.5, 0.3829249225480262),  # mp.dps = 360; mp.betainc(a, b, 0, x, regularized=True)
]


class TestQuadrature:
    def test_agrees_on_published_grid(self):
        for nu in ballprob.TABLE1_NU:
            for k in ballprob.TABLE1_DIMS:
                closed = ballprob.ball_prob(nu, k, ballprob.TABLE1_RADIUS)
                quad = ballprob.ball_prob_quadrature(nu, k, ballprob.TABLE1_RADIUS)
                assert abs(quad.value - closed) <= QUAD_RTOL * closed
                assert quad.error_estimate <= 1e-10 * quad.value

    def test_agrees_on_random_cases(self):
        rng = random.Random(515)
        nus = [0.7, 1.0, 2.5, 4.0, 10.0, 120.0, math.inf]
        for _ in range(20):
            nu = rng.choice(nus)
            k = rng.randint(1, 6)
            r = math.exp(rng.uniform(math.log(0.01), math.log(10.0)))
            closed = ballprob.ball_prob(nu, k, r)
            quad = ballprob.ball_prob_quadrature(nu, k, r)
            assert abs(quad.value - closed) <= QUAD_RTOL * closed

    def test_zero_radius(self):
        result = ballprob.ball_prob_quadrature(3.0, 2, 0.0)
        assert result.value == 0.0

    def test_reports_error_estimate(self):
        result = ballprob.ball_prob_quadrature(2.0, 3, 1.5)
        assert 0.0 <= result.error_estimate < 1e-8

    def test_level_cap_raises_with_partial_result(self):
        # across a jump each halving moves the sum by about the step, so no two levels agree to 1e-10
        with pytest.raises(errors.QuadratureConvergenceError) as info:
            ballprob._tanh_sinh(lambda x: 0.0 if x < 1.0 / 3.0 else -math.inf, (0.0, 1.0))
        err = info.value
        assert math.isfinite(err.best_estimate)
        assert err.best_estimate == pytest.approx(1.0 / 3.0, rel=1e-2, abs=0.0)
        assert err.error_estimate > 0.0
        assert err.iterations == 7

    @pytest.mark.parametrize("nu, k, r", [(10.0, 3, 1e4), (math.inf, 4, 1e3)])
    def test_wide_radius_holds_all_the_mass(self, nu, k, r):
        # the mass sits in a sliver of [0, r] near the mode, which an absolute floor let the rule miss
        assert abs(ballprob.ball_prob_quadrature(nu, k, r).value - 1.0) <= 1e-13

    @pytest.mark.parametrize("nu, k, r, want", QUAD_REFERENCES)
    def test_against_mpmath(self, nu, k, r, want):
        assert abs(ballprob.ball_prob_quadrature(nu, k, r).value - want) <= 1e-13 * want

    def test_wide_radius_is_fast(self):
        start = time.perf_counter()
        quad = ballprob.ball_prob_quadrature(1.0, 2, 1e8)
        assert time.perf_counter() - start < 0.1
        # P = 1 - 1 / sqrt(1 + r^2) in the plane at nu = 1
        assert abs(quad.value - (1.0 - 1e-8)) <= 1e-13

    @pytest.mark.parametrize(
        "nu, want",
        [
            # mpmath 1.3, 1 - mp.betainc(mpf(nu) / 2, mpf(3) / 2, 0, y, regularized=True), y = nu / (r^2 + nu)
            (1e-8, 3.5429062389181739e-6),  # mp.dps = 70
            (0.01, 0.96900234759351702),  # mp.dps = 90
        ],
    )
    def test_mass_spread_over_decades_of_radius(self, nu, want):
        # the mass is about log-uniform over 150 decades of r, which w = log1p(r^2/nu) holds in [0, 700]
        assert abs(ballprob.ball_prob_quadrature(nu, 3, 1e150).value - want) <= 1e-13 * want

    @pytest.mark.parametrize("nu, k, r, want", QUAD_GRID_SAMPLE)
    def test_grid_sample_against_mpmath(self, nu, k, r, want):
        # 1e-13 relative for k <= 20 and 1e-12 up to k = 500, plus one subnormal ulp
        rtol = 1e-13 if k <= 20 else 1e-12
        assert abs(ballprob.ball_prob_quadrature(nu, k, r).value - want) <= rtol * want + 5e-324

    def test_peak_far_from_zero(self):
        # the mass sits about 5e6 from v = 0 in a sliver 0.1% as wide, where the split at the
        # mode puts nodes; the rounding of the (a-1) ln terms, about 5e6 ln v, is what is left
        k = 10**7
        r = 1.001 * math.sqrt(k)
        # mpmath 1.3, mp.dps = 40; mp.betainc(mpf(k) / 2, mpf(1e4) / 2, 0, x, regularized=True), x = r^2 / (r^2 + nu)
        assert ballprob.ball_prob_quadrature(1e4, k, r).value == pytest.approx(0.5542969951772111, rel=1e-7, abs=0.0)

    @pytest.mark.parametrize("r", [1e-300, 1e-200, 1e-150, 1e-9, 1e-8, 1e-6, 1e-3])
    def test_tiny_radius(self, r):
        # from r = 1e-9 down, V (a + 1) < 4e-18 and the value is the leading term e^C V^a / a;
        # at nu = 1e300, r^2/nu is subnormal from r = 1e-4 down, and V is taken as r^2/2 there
        cauchy, gauss = 2.0 / math.pi * math.atan(r), math.erf(r / math.sqrt(2.0))
        assert ballprob.ball_prob_quadrature(1.0, 1, r).value == pytest.approx(cauchy, rel=1e-13, abs=0.0)
        for nu in (1e300, math.inf):
            assert ballprob.ball_prob_quadrature(nu, 1, r).value == pytest.approx(gauss, rel=1e-13, abs=0.0)


class TestPublishedTable:
    def test_formatting_per_column(self):
        assert ballprob.format_published(0.06345103486110713, 1) == "0.063451"
        assert ballprob.format_published(0.0049628098392813305, 2) == "0.00496281"
        assert ballprob.format_published(0.0002842362725556048, 3) == "0.000284236"
        assert ballprob.format_published(1.2458411354275086e-05, 4) == "0.0000124584"
        # the table has no column past k = 4
        with pytest.raises(errors.DomainError):
            ballprob.format_published(0.5, 5)

    def test_all_sixteen_entries_match(self):
        rows = ballprob.table1()
        assert [row.nu for row in rows] == list(ballprob.TABLE1_NU)
        for row in rows:
            printed = tuple(
                ballprob.format_published(p, k)
                for p, k in zip(row.probs, ballprob.TABLE1_DIMS)
            )
            assert printed == ballprob.TABLE1_PRINTED[row.nu]

    def test_row_invariants_enforced(self, monkeypatch):
        # table1() rejects a computed row that rises in k or leaves [0, 1]
        bad_rows = ((0.1, 0.2, 0.01, 0.001), (0.5, 0.4, 0.3, 1.5), (1.5, 0.4, 0.3, 0.2), (0.3, 0.2, 0.1, -0.1))
        for bad_row in bad_rows:
            monkeypatch.setattr(ballprob, "ball_prob", lambda nu, k, r: bad_row[k - 1])
            with pytest.raises(errors.DomainError):
                ballprob.table1()

    def test_published_strings_decrease_within_rows(self):
        # The printed strings themselves must reflect the dimension decay.
        for printed in ballprob.TABLE1_PRINTED.values():
            values = [float(s) for s in printed]
            assert all(b < a for a, b in zip(values, values[1:]))
