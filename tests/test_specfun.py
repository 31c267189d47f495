"""Accuracy and domain tests for the special-function layer.

Reference values were computed once with 50-digit arithmetic and frozen
here as literals; tolerances match the module's advertised constants.
"""

import math
import random

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmode import errors, specfun

# fmt: off
LOG_GAMMA_REFS = [
    (0.001, 6.907178885383853),
    (0.0014677992676220691, 6.523145630771944),
    (0.0021544346900318843, 6.138987154751456),
    (0.0031622776601683794, 5.754645628309431),
    (0.004641588833612777, 5.370037032106313),
    (0.006812920690579615, 4.985039893017413),
    (0.01, 4.599479878042022),
    (0.014677992676220698, 4.2131095770116165),
    (0.021544346900318832, 3.8255838930082184),
    (0.03162277660168379, 3.436434537897841),
    (0.046415888336127795, 3.045054575298542),
    (0.06812920690579612, 2.650720416687393),
    (0.1, 2.252712651734206),
    (0.14677992676220694, 1.8506626451976764),
    (0.2154434690031884, 1.445369095453598),
    (0.31622776601683794, 1.040520647486643),
    (0.4641588833612779, 0.6460451604239683),
    (0.5, 0.5723649429247001),
    (0.6812920690579612, 0.2841944597715959),
    (0.75, 0.20328095143129538),
    (1.0, 0.0),
    (1.25, -0.09827183642181316),
    (1.4616321449683622, -0.12148629053584961),
    (1.4677992676220695, -0.12146792312666764),
    (1.75, -0.08440112102048555),
    (2.0, 0.0),
    (2.154434690031884, 0.07274644786292371),
    (2.5, 0.2846828704729192),
    (3.0, 0.6931471805599453),
    (3.1622776601683795, 0.8479881161762293),
    (4.641588833612778, 2.6528497069429107),
    (6.812920690579613, 6.231605001791717),
    (10.0, 12.801827480081469),
    (14.677992676220699, 24.333662762628517),
    (21.544346900318832, 43.98699196526624),
    (31.622776601683793, 76.79305925851986),
    (46.4158883361278, 130.71357888878956),
    (68.12920690579611, 218.28129485055752),
    (100.0, 359.1342053695754),
    (146.7799267622069, 583.9205335085001),
    (215.44346900318845, 940.3023206428701),
    (316.22776601683796, 1502.166554726125),
    (464.15888336127773, 2383.7309895399712),
    (681.2920690579615, 3761.1083891092394),
    (1000.0, 5905.220423209181),
    (1467.799267622069, 9231.96089287972),
    (2154.4346900318847, 14378.543982348454),
    (3162.2776601683795, 22319.558681545703),
    (4641.588833612777, 34543.17065584636),
    (6812.920690579615, 53318.34852262775),
    (10000.0, 82099.71749644238),
    (14677.992676220705, 126140.32559630276),
    (21544.346900318822, 193418.24848856946),
    (31622.776601683792, 296036.56453255645),
    (46415.88833612782, 452336.80985625635),
    (68129.20690579608, 690087.0791774852),
    (100000.0, 1051287.7089736569),
    (146779.92676220706, 1599410.2789513853),
    (215443.46900318822, 2430294.883627035),
    (316227.7660168379, 3688544.190929443),
    (464158.8833612782, 5592172.356700839),
    (681292.0690579609, 8469644.413437102),
    (1000000.0, 12815504.569147611),
]

DIGAMMA_REFS = [
    (0.001, -1000.5755719318103),
    (0.0017782794100389228, -562.9156194980304),
    (0.0031622776601683794, -316.79979192993375),
    (0.005623413251903491, -178.39594434570463),
    (0.01, -100.56088545786868),
    (0.01778279410038923, -56.782470799450245),
    (0.03162277660168379, -32.14914372063633),
    (0.05623413251903491, -18.271126922749154),
    (0.1, -10.423754940411076),
    (0.1778279410038923, -5.9409228117675665),
    (0.31622776601683794, -3.3132182611533207),
    (0.5623413251903491, -1.6850683648890479),
    (0.9, -0.7549269499470513),
    (1.0, -0.5772156649015329),
    (1.1, -0.42375494041107664),
    (1.7782794100389228, 0.2688590969549973),
    (2.0, 0.42278433509846713),
    (3.1622776601683795, 0.9849250516272008),
    (5.5, 1.6110931485817512),
    (5.623413251903491, 1.6353978296521636),
    (6.0, 1.7061176684318005),
    (6.25, 1.750453526883736),
    (10.0, 2.251752589066721),
    (17.78279410038923, 2.849850860052953),
    (31.622776601683793, 3.4379829261862627),
    (56.23413251903491, 4.0206061642087585),
    (100.0, 4.600161852738087),
    (177.82794100389228, 5.178002117387601),
    (316.22776601683796, 5.75488076032253),
    (562.341325190349, 6.331219602505551),
    (1000.0, 6.907255195648812),
    (1778.2794100389228, 7.48312035521574),
    (3162.2776601683795, 8.058889703262818),
    (5623.413251903491, 8.634605182121938),
    (10000.0, 9.210290371142849),
    (17782.794100389227, 9.78595852789491),
    (31622.776601683792, 10.361617107001571),
    (56234.13251903491, 10.937270300298314),
    (100000.0, 11.512920464961896),
    (177827.94100389228, 12.08856892650948),
    (316227.7660168379, 12.664216430327588),
    (562341.3251903491, 13.239863395575794),
    (1000000.0, 13.815510057964191),
]

POLYGAMMA_REFS = [
    (1, 0.001, 1000001.6425331958),
    (1, 0.1, 101.43329915079275),
    (1, 0.5, 4.934802200544679),
    (1, 1.0, 1.6449340668482264),
    (1, 2.0, 0.6449340668482264),
    (1, 7.5, 0.1426158966967038),
    (1, 100.0, 0.010050166663333571),
    (1, 10000.0, 0.00010000500016666666),
    (2, 0.001, -2000000002.3976321),
    (2, 0.1, -2001.8614573783436),
    (2, 0.5, -16.82879664423432),
    (2, 1.0, -2.4041138063191885),
    (2, 2.0, -0.4041138063191886),
    (2, 7.5, -0.020305252536644666),
    (2, 100.0, -0.00010100499983335),
    (2, 10000.0, -1.000100005e-08),
    (3, 0.001, 6000000000006.469),
    (3, 0.1, 60004.51287679026),
    (3, 0.5, 97.40909103400244),
    (3, 1.0, 6.493939402266829),
    (3, 2.0, 0.49393940226682914),
    (3, 7.5, 0.005772436656578694),
    (3, 100.0, 2.030199990001333e-06),
    (3, 10000.0, 2.00030002e-12),
    (4, 0.001, -2.4000000000000024e+16),
    (4, 0.1, -2400015.6072031953),
    (4, 0.5, -771.4742498266672),
    (4, 1.0, -24.88626612344088),
    (4, 2.0, -0.8862661234408782),
    (4, 7.5, -0.002457482989368555),
    (4, 100.0, -6.120999930011997e-08),
    (4, 10000.0, -6.0012001e-16),
    (5, 0.001, 1.1999999999999998e+20),
    (5, 0.1, 120000069.30751093),
    (5, 0.5, 7691.113548602436),
    (5, 1.0, 122.0811674381339),
    (5, 2.0, 2.081167438133897),
    (5, 7.5, 0.0013927076560043099),
    (5, 100.0, 2.460599944011996e-09),
    (5, 10000.0, 2.4006000599999993e-19),
]

REG_INC_BETA_REFS = [
    (0.5, 0.5, 0.0099009900990099, 0.06345103486110713),
    (0.5, 0.5, 0.5, 0.5),
    (1.5, 5.0, 0.000999000999000999, 0.0002842362725556048),
    (2.0, 1.0, 0.004975124378109453, 2.4751862577658972e-05),
    (3.0, 7.0, 0.42, 0.8039486697947228),
    (0.25, 9.5, 0.03, 0.7598490911980775),
    (8.0, 12.0, 0.66, 0.991140305855078),
    (5.0, 0.35, 0.93, 0.29244680930675554),
    (40.0, 40.0, 0.51, 0.5707740440419149),
    (0.05, 0.05, 0.25, 0.47440065951589533),
    (12.5, 3.25, 0.85, 0.6787012428911716),
    (1.0, 1.0, 0.31830988618379, 0.31830988618379),
]

REG_LOWER_INC_GAMMA_REFS = [
    (0.5, 0.005, 0.07965567455405796),
    (0.5, 0.5, 0.6826894921370859),
    (1.0, 1.0, 0.6321205588285577),
    (1.5, 7.3, 0.9978075618626935),
    (2.0, 0.005, 1.245841135427508e-05),
    (2.0, 0.03, 0.0004411004450365778),
    (0.25, 1.75, 0.9760771069754207),
    (10.0, 3.0, 0.0011024881301154798),
    (10.0, 30.0, 0.9999928782491372),
    (50.0, 49.0, 0.46210439360094024),
    (0.05, 0.0001, 0.6481269392626691),
]
# fmt: on


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    ratio = (hi / lo) ** (1.0 / (n - 1))
    return [lo * ratio**i for i in range(n)]


class TestLogGamma:
    @pytest.mark.parametrize("x,want", LOG_GAMMA_REFS)
    def test_frozen_references(self, x, want):
        got = specfun.log_gamma(x)
        assert abs(got - want) <= specfun.LOG_GAMMA_RTOL * max(1.0, abs(want))

    def test_exact_points(self):
        assert abs(specfun.log_gamma(1.0)) <= 1e-14
        assert abs(specfun.log_gamma(2.0)) <= 1e-14
        assert abs(specfun.log_gamma(0.5) - 0.5 * math.log(math.pi)) <= 1e-14

    def test_recurrence(self):
        # ln G(x+1) = ln G(x) + ln x; residual scaled by the result size
        # because above x ~ 316 one ulp of ln G already exceeds 1e-13.
        for x in log_grid(1e-3, 1e5, 120):
            lhs = specfun.log_gamma(x + 1.0)
            rhs = specfun.log_gamma(x) + math.log(x)
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_agrees_with_stdlib(self):
        for x in log_grid(1e-2, 1e4, 60):
            assert specfun.log_gamma(x) == pytest.approx(math.lgamma(x), rel=1e-13, abs=1e-13)

    def test_exact_near_zero(self):
        assert specfun.log_gamma(1e-10) == math.lgamma(1e-10)
        assert math.isfinite(specfun.log_gamma(5e-324))

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(errors.DomainError):
            specfun.log_gamma(bad)

    @given(st.floats(min_value=1e-3, max_value=1e5))
    @settings(max_examples=200, deadline=None)
    def test_matches_lgamma_everywhere(self, x):
        assert specfun.log_gamma(x) == pytest.approx(
            math.lgamma(x), rel=1e-12, abs=1e-12
        )


def mp_dps(*values: float) -> int:
    """mpmath working precision: the log-gamma terms grow like a ln a
    while the quotients stay small, so 40 fixed digits fail at a = 1e300."""
    return 30 + 2 * math.ceil(math.log10(max(1.0, *(abs(v) for v in values))))


class TestLogGammaRatio:
    @staticmethod
    def within(a: float, s: float, rtol: float) -> bool:
        """Q(a, s) agrees with mpmath to rtol * max(1, |Q|), plus the
        advertised 1e-16 * |s| once the shift passes 1e4 whole steps."""
        with mp.workdps(mp_dps(a, s)):
            want = mp.loggamma(mp.mpf(a) + s) - mp.loggamma(a) - s * mp.log(a)
            tol = rtol * max(1, abs(want)) + (2e-16 * abs(s) if abs(s) > 1e4 else 0.0)
            return abs(specfun.log_gamma_ratio(a, s) - want) <= tol

    def test_against_mpmath(self):
        rng = random.Random(20)
        for i in range(600):
            a = 10.0 ** rng.uniform(-3.0, 300.0)
            s = (rng.uniform(0.0, 300.0), -min(a, 300.0) * rng.random(), -a * rng.random())[i % 3]
            if a + s > 0.0:
                assert self.within(a, s, 1e-14), (a, s)

    @pytest.mark.parametrize("a,s", [(2.0, 1e6), (5.0, 123456.5), (1e8, 3e4), (1e20, 2e5), (1e3, -999.5)])
    def test_large_shifts(self, a, s):
        assert self.within(a, s, 1e-14)

    def test_exact_zero_and_unit_shift(self):
        for a in (1e-300, 0.5, 7.25, 15.0, 1e6, 1e300):
            assert specfun.log_gamma_ratio(a, 0.0) == 0.0
            assert specfun.log_gamma_ratio(a, 1.0) == 0.0

    @pytest.mark.parametrize("a,s", [(0.0, 1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, -2.0), (1.0, math.inf), (1.0, math.nan)])
    def test_domain(self, a, s):
        with pytest.raises(errors.DomainError):
            specfun.log_gamma_ratio(a, s)


class TestDigamma:
    @pytest.mark.parametrize("x,want", DIGAMMA_REFS)
    def test_frozen_references(self, x, want):
        assert abs(specfun.digamma(x) - want) <= specfun.DIGAMMA_ATOL * max(1.0, abs(want))

    def test_recurrence(self):
        for x in log_grid(1e-3, 1e5, 120):
            lhs = specfun.digamma(x + 1.0)
            rhs = specfun.digamma(x) + 1.0 / x
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))

    def test_euler_mascheroni(self):
        assert abs(specfun.digamma(1.0) + 0.5772156649015329) < 1e-13

    def test_strictly_increasing(self):
        xs = log_grid(1e-2, 1e4, 80)
        vals = [specfun.digamma(x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("bad", [0.0, -2.0, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(errors.DomainError):
            specfun.digamma(bad)


class TestPolygamma:
    @pytest.mark.parametrize("n,x,want", POLYGAMMA_REFS)
    def test_frozen_references(self, n, x, want):
        got = specfun.polygamma(n, x)
        assert abs(got - want) <= specfun.POLYGAMMA_ATOL * max(1.0, abs(want))

    def test_trigamma_at_one(self):
        assert abs(specfun.polygamma(1, 1.0) - math.pi**2 / 6.0) <= 1e-12

    def test_signs(self):
        for x in log_grid(1e-3, 1e4, 60):
            assert specfun.polygamma(1, x) > 0.0
            assert specfun.polygamma(2, x) < 0.0

    def test_recurrence(self):
        # psi^(n)(x+1) = psi^(n)(x) + (-1)^n n! / x^(n+1). Below x ~ 1 the
        # two terms on the right cancel almost completely, so allow one
        # ulp of the cancelled magnitude on top of the base tolerance.
        for n in (1, 2, 3):
            fact = math.factorial(n)
            for x in log_grid(1e-2, 1e3, 40):
                corr = (-1.0) ** n * fact / x ** (n + 1)
                lhs = specfun.polygamma(n, x + 1.0)
                rhs = specfun.polygamma(n, x) + corr
                tol = 1e-12 * max(1.0, abs(lhs)) + 5e-16 * abs(corr)
                assert abs(lhs - rhs) <= tol

    def test_consistent_with_digamma_derivative(self):
        for x in (0.3, 1.0, 4.5, 20.0, 300.0):
            h = 1e-5 * x
            fd = (specfun.digamma(x + h) - specfun.digamma(x - h)) / (2.0 * h)
            assert fd == pytest.approx(specfun.polygamma(1, x), rel=1e-6)

    def test_bad_order(self):
        with pytest.raises(errors.DomainError):
            specfun.polygamma(0, 1.0)
        with pytest.raises(errors.DomainError):
            specfun.polygamma(-1, 1.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(errors.DomainError):
            specfun.polygamma(1, bad)

    def test_saturates_beyond_double_range(self):
        # n!/x^(n+1) overflows; x^(n+1) itself underflows to 0
        assert specfun.polygamma(1, 1e-320) == math.inf
        assert specfun.polygamma(2, 1e-200) == -math.inf
        # x^n overflows while n!/x^n does not
        for n, x in [(1, 1e300), (3, 1e100), (150, 1e3)]:
            with mp.workdps(40):
                want = float(mp.polygamma(n, x))
            assert specfun.polygamma(n, x) == pytest.approx(want, rel=1e-13)

    def test_largest_order(self):
        with mp.workdps(40):
            want = float(mp.polygamma(165, 1.0))
        assert specfun.polygamma(165, 1.0) == pytest.approx(want, rel=specfun.POLYGAMMA_ATOL)
        for n in (166, 170):
            with pytest.raises(errors.DomainError, match="derivative order must be <= 165"):
                specfun.polygamma(n, 1.0)


class TestRegIncBeta:
    @pytest.mark.parametrize("a,b,x,want", REG_INC_BETA_REFS)
    def test_frozen_references(self, a, b, x, want):
        assert abs(specfun.reg_inc_beta(a, b, x) - want) <= specfun.REG_INC_BETA_ATOL

    def test_endpoints(self):
        assert specfun.reg_inc_beta(2.0, 3.0, 0.0) == 0.0
        assert specfun.reg_inc_beta(2.0, 3.0, 1.0) == 1.0

    def test_complement_identity(self):
        cases = [(0.5, 0.5, 0.2), (3.0, 7.0, 0.42), (12.5, 3.25, 0.85), (0.05, 9.0, 0.01)]
        for a, b, x in cases:
            total = specfun.reg_inc_beta(a, b, x) + specfun.reg_inc_beta(b, a, 1.0 - x)
            assert abs(total - 1.0) <= 1e-13

    def test_uniform_case(self):
        # a = b = 1 reduces to the identity map.
        for x in (0.0, 0.125, 0.5, 0.875, 1.0):
            assert specfun.reg_inc_beta(1.0, 1.0, x) == pytest.approx(x, abs=1e-15)

    def test_monotone_in_x(self):
        xs = [i / 50.0 for i in range(51)]
        vals = [specfun.reg_inc_beta(2.5, 4.0, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_symmetric_midpoint(self):
        for a in (0.5, 1.0, 7.0, 40.0):
            assert abs(specfun.reg_inc_beta(a, a, 0.5) - 0.5) <= 1e-13

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            specfun.reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(errors.DomainError):
            specfun.reg_inc_beta(1.0, -1.0, 0.5)
        with pytest.raises(errors.DomainError):
            specfun.reg_inc_beta(1.0, 1.0, -0.01)
        with pytest.raises(errors.DomainError):
            specfun.reg_inc_beta(1.0, 1.0, 1.01)
        with pytest.raises(errors.DomainError):
            specfun.reg_inc_beta(1.0, 1.0, math.nan)

    def test_nonconvergence_is_typed(self):
        with pytest.raises(errors.ConvergenceError) as info:
            specfun.reg_inc_beta(1e6, 1e6, 0.5)
        assert info.value.iterations == 499
        assert math.isfinite(info.value.best_estimate)

    @given(
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=0.05, max_value=50.0),
        st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
    )
    @settings(max_examples=150, deadline=None)
    def test_range_and_complement(self, a, b, x):
        # x is kept away from the endpoints so 1 - x loses no information.
        p = specfun.reg_inc_beta(a, b, x)
        assert 0.0 <= p <= 1.0
        q = specfun.reg_inc_beta(b, a, 1.0 - x)
        assert abs(p + q - 1.0) <= 1e-11


class TestRegLowerIncGamma:
    @pytest.mark.parametrize("a,x,want", REG_LOWER_INC_GAMMA_REFS)
    def test_frozen_references(self, a, x, want):
        assert abs(specfun.reg_lower_inc_gamma(a, x) - want) <= specfun.REG_LOWER_INC_GAMMA_ATOL

    def test_at_zero(self):
        assert specfun.reg_lower_inc_gamma(3.0, 0.0) == 0.0

    def test_exponential_case(self):
        # a = 1 reduces to 1 - exp(-x).
        for x in (0.01, 0.5, 1.0, 5.0, 40.0):
            assert specfun.reg_lower_inc_gamma(1.0, x) == pytest.approx(
                -math.expm1(-x), rel=1e-13
            )

    def test_half_case_is_erf(self):
        # a = 1/2 reduces to erf(sqrt(x)).
        for x in (0.005, 0.1, 0.5, 2.0, 9.0):
            assert specfun.reg_lower_inc_gamma(0.5, x) == pytest.approx(
                math.erf(math.sqrt(x)), rel=1e-13
            )

    def test_monotone_in_x(self):
        xs = [0.0] + log_grid(1e-3, 50.0, 40)
        vals = [specfun.reg_lower_inc_gamma(4.0, x) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert all(0.0 <= v <= 1.0 for v in vals)

    def test_domain(self):
        with pytest.raises(errors.DomainError):
            specfun.reg_lower_inc_gamma(0.0, 1.0)
        with pytest.raises(errors.DomainError):
            specfun.reg_lower_inc_gamma(1.0, -0.5)
        with pytest.raises(errors.DomainError):
            specfun.reg_lower_inc_gamma(1.0, math.nan)

    def test_nonconvergence_is_typed(self):
        # the series needs about sqrt(a) terms here; it used to stop early
        # and return 0.124 for a value near 0.5
        with pytest.raises(errors.ConvergenceError) as info:
            specfun.reg_lower_inc_gamma(1e9, 1e9)
        assert info.value.iterations == 10000

    @given(st.floats(min_value=0.05, max_value=60.0), st.floats(min_value=0.0, max_value=80.0))
    @settings(max_examples=150, deadline=None)
    def test_range(self, a, x):
        p = specfun.reg_lower_inc_gamma(a, x)
        assert 0.0 <= p <= 1.0
