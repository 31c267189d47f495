"""Acceptance gate: nine numbered criteria, tolerances pinned.

Each test emits one PASS/FAIL line (see conftest). The criteria pin down
the published table, the sign pattern of the mode value across
dimensions, the dimension-free moment ratios, the Gaussian limit, the
independent quadrature and Monte Carlo oracles, and the underlying
special-function identities. Where a criterion quotes a runtime budget
the test measures it.
"""

import math
import random
import time

from tmode import ballprob, mcoracle, monotone, specfun, tdist

GRID = monotone.default_nu_grid(0.01, 1e4, 200)
INV_2PI = 1.0 / (2.0 * math.pi)


def test_criterion_1_published_table(criterion):
    with criterion(1, "all 16 published ball probabilities reproduced at printed precision, < 1 s"):
        start = time.perf_counter()
        rows = ballprob.table1()
        elapsed = time.perf_counter() - start
        checked = 0
        for row in rows:
            for k, prob in zip(ballprob.TABLE1_DIMS, row.probs):
                printed = ballprob.format_published(prob, k)
                assert printed == ballprob.TABLE1_PRINTED[row.nu][k - 1], (
                    f"nu={row.nu}, k={k}: computed {printed}, "
                    f"published {ballprob.TABLE1_PRINTED[row.nu][k - 1]}"
                )
                checked += 1
        assert checked == 16
        assert elapsed < 1.0, f"table took {elapsed:.3f} s"


def test_criterion_2_monotonicity_pattern(criterion):
    with criterion(2, "increasing / constant / decreasing by dimension on 200-point grid, < 5 s"):
        start = time.perf_counter()
        report = monotone.classify_monotonicity(1, grid=GRID)
        assert report.classification == "increasing"

        report = monotone.classify_monotonicity(2, grid=GRID)
        assert report.classification == "constant"
        worst = max(abs(monotone.dlog_mode_value(nu, 2)) for nu in GRID)
        assert worst == 0.0, f"plane derivative reached {worst:.3e}"

        for k in range(3, 21):
            report = monotone.classify_monotonicity(k, grid=GRID)
            assert report.classification == "decreasing", f"k={k}"
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"classification took {elapsed:.3f} s"


def test_criterion_3_derivative_consistency(criterion):
    with criterion(3, "analytic nu-derivative matches central differences within 1e-5 relative"):
        for k in range(1, 21):
            report = monotone.classify_monotonicity(k, grid=GRID)
            assert report.max_derivative_residual <= 1e-5, (
                f"k={k}: residual {report.max_derivative_residual:.3e}"
            )


def test_criterion_4_planar_exactness(criterion):
    with criterion(4, "planar mode value equals 1/(2 pi) to 1e-14 for 1000 random tail weights"):
        rng = random.Random(424242)
        for _ in range(1000):
            nu = rng.uniform(1e-9, 1e6)
            assert abs(tdist.mode_value(nu, 2) - INV_2PI) <= 1e-14, f"nu={nu!r}"


def test_criterion_5_dimension_free_ratios(criterion):
    with criterion(5, "moment ratio 4/3 and kurtosis ratio 3/2, identical across k = 1..10 to 1e-12"):
        ratios = [tdist.moment_ratio(5.0, 10.0, k, 2.0) for k in range(1, 11)]
        spread = (max(ratios) - min(ratios)) / abs(ratios[0])
        assert spread <= 1e-12, f"moment-ratio spread {spread:.3e}"
        assert abs(ratios[0] - 4.0 / 3.0) <= 1e-12 * (4.0 / 3.0)

        kurt = [tdist.kurtosis_ratio(5.0, 6.0, k) for k in range(1, 11)]
        spread = (max(kurt) - min(kurt)) / abs(kurt[0])
        assert spread <= 1e-12, f"kurtosis-ratio spread {spread:.3e}"
        assert abs(kurt[0] - 1.5) <= 1e-12 * 1.5

        # Independent route: the same quantities from raw radial moments.
        for k in (1, 5, 10):
            direct = tdist.radial_moment(5.0, k, 2.0) / tdist.radial_moment(10.0, k, 2.0)
            assert abs(tdist.moment_ratio(5.0, 10.0, k, 2.0) - direct) <= 1e-12 * direct
            b1 = tdist.radial_moment(5.0, k, 4.0) / tdist.radial_moment(5.0, k, 2.0) ** 2
            b2 = tdist.radial_moment(6.0, k, 4.0) / tdist.radial_moment(6.0, k, 2.0) ** 2
            assert abs(tdist.kurtosis_ratio(5.0, 6.0, k) - b1 / b2) <= 1e-12 * (b1 / b2)


def test_criterion_6_gaussian_limit(criterion):
    with criterion(6, "gap to the Gaussian peak shrinks through nu = 10..1e5, below 1e-4 at 1e5"):
        for k in (1, 3, 4):
            limit = (2.0 * math.pi) ** (-0.5 * k)
            gaps = [abs(tdist.mode_value(10.0**j, k) - limit) for j in range(1, 6)]
            assert all(b < a for a, b in zip(gaps, gaps[1:])), f"k={k}: gaps {gaps}"
            assert gaps[-1] / limit < 1e-4, f"k={k}: relative gap {gaps[-1] / limit:.3e}"


def test_criterion_7_quadrature_oracle(criterion):
    with criterion(7, "closed form vs tanh-sinh quadrature within 1e-13 relative; Cauchy arctan within 1e-12"):
        cases = [
            (nu, k, ballprob.TABLE1_RADIUS)
            for nu in ballprob.TABLE1_NU
            for k in ballprob.TABLE1_DIMS
        ]
        rng = random.Random(77007)
        pool = [0.7, 1.0, 2.5, 4.0, 10.0, 120.0, math.inf]
        for _ in range(20):
            cases.append(
                (
                    rng.choice(pool),
                    rng.randint(1, 6),
                    math.exp(rng.uniform(math.log(0.01), math.log(10.0))),
                )
            )
        for nu, k, r in cases:
            closed = ballprob.ball_prob(nu, k, r)
            quad = ballprob.ball_prob_quadrature(nu, k, r)
            assert abs(quad.value - closed) <= 1e-13 * closed, f"(nu={nu}, k={k}, r={r})"

        for r in (0.01, 0.1, 0.5, 1.0, 3.0, 20.0):
            want = (2.0 / math.pi) * math.atan(r)
            assert abs(ballprob.ball_prob(1.0, 1, r) - want) <= 1e-12, f"r={r}"


def test_criterion_8_monte_carlo(criterion):
    with criterion(8, "10^6-draw estimates within 4 binomial SEs per cell; variance check; < 60 s"):
        start = time.perf_counter()
        n = 1_000_000
        for i, nu in enumerate(ballprob.TABLE1_NU):
            batch = mcoracle.sample_t(nu, max(ballprob.TABLE1_DIMS), n, 1000 + i)
            prefixes = mcoracle.estimate_ball_prob_prefixes(batch, ballprob.TABLE1_RADIUS)
            for k, (estimate, _) in zip(ballprob.TABLE1_DIMS, prefixes):
                analytic = ballprob.ball_prob(nu, k, ballprob.TABLE1_RADIUS)
                se = math.sqrt(analytic * (1.0 - analytic) / n)
                assert abs(estimate - analytic) <= 4.0 * se, (
                    f"nu={nu}, k={k}: estimate {estimate}, analytic {analytic}, "
                    f"off by {abs(estimate - analytic) / se:.2f} SEs"
                )
            if nu == 10.0:
                # Per-coordinate variance nu/(nu-2) = 1.25; the sampling SE
                # uses the exact fourth moment mu4 = 6.25.
                se_var = math.sqrt((6.25 - 1.25**2) / n)
                for j in range(batch.k):
                    v = batch.draws[:, j].var()
                    assert abs(v - 1.25) <= 4.0 * se_var, f"coordinate {j}: variance {v}"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"Monte Carlo took {elapsed:.1f} s"


def test_criterion_9_special_function_identities(criterion):
    with criterion(9, "Gamma and digamma recurrences at 1e-13; trigamma at pi^2/6; derivative signs"):
        lo, hi, points = 1e-3, 1e5, 200
        ratio = (hi / lo) ** (1.0 / (points - 1))
        xs = [lo * ratio**i for i in range(points)]
        for x in xs:
            lhs = specfun.log_gamma(x + 1.0)
            rhs = specfun.log_gamma(x) + math.log(x)
            # Scaled by the result: one ulp of ln Gamma(1e5) is ~1e-11,
            # so a literal absolute 1e-13 is unattainable up there.
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs)), f"x={x}"

            lhs = specfun.digamma(x + 1.0)
            rhs = specfun.digamma(x) + 1.0 / x
            assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs)), f"x={x}"

        assert abs(specfun.polygamma(1, 1.0) - math.pi**2 / 6.0) <= 1e-12

        for x in xs:
            assert specfun.polygamma(1, x) > 0.0, f"x={x}"
            assert specfun.polygamma(2, x) < 0.0, f"x={x}"
