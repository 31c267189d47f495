"""Sign pattern of the mode value's dependence on the tail weight.

The dimension decides everything: the peak rises with nu on the line,
stays at 1/(2 pi) in the plane, and falls with nu from dimension 3 on.
"""

import math
import random
import tracemalloc

import mpmath as mp
import pytest

from tmode import errors, monotone, specfun, tdist

# fmt: off
DLOG_REFS = [
    (0.5, 1, 0.5707963267948967),
    (2.0, 1, 0.05685281944005469),
    (10.0, 1, 0.0024877400749753254),
    (1000.0, 1, 2.4999987500025e-07),
    (2.0, 3, -0.10981384722661197),
    (7.5, 3, -0.011280026102125338),
    (100.0, 3, -7.401115074020518e-05),
    (1.0, 4, -0.6666666666666666),
    (30.0, 5, -0.0038279480493881328),
    (5.0, 10, -0.3781995781995782),
    (3.0, 20, -2.152458755554731),
]
# fmt: on


def _random_points(n=1500, seed=1):
    # nu log-uniform on [1e-2, 1e14], k in {1, 3..20}
    rng = random.Random(seed)
    return [(10.0 ** rng.uniform(-2.0, 14.0), rng.choice([1, *range(3, 21)])) for _ in range(n)]


def _reference_dlog(nu, k):
    # the digamma difference cancels to about log10(nu) digits at large nu,
    # and 1/nu dominates it at small nu, so scale the precision with both
    with mp.workdps(30 + 2 * round(abs(math.log10(nu)))):
        x = mp.mpf(nu)
        return (mp.digamma((x + k) / 2) - mp.digamma(x / 2) - k / x) / 2


class TestDerivative:
    @pytest.mark.parametrize("nu,k,want", DLOG_REFS)
    def test_frozen_references(self, nu, k, want):
        got = monotone.dlog_mode_value(nu, k)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_signs_by_dimension(self):
        for nu in (0.05, 1.0, 17.0, 4000.0):
            assert monotone.dlog_mode_value(nu, 1) > 0.0
            assert abs(monotone.dlog_mode_value(nu, 2)) <= 1e-12
            for k in (3, 4, 7, 20):
                assert monotone.dlog_mode_value(nu, k) < 0.0

    def test_shift_identity_between_line_and_space(self):
        # Moving k = 1 -> 3 subtracts exactly 1 / (nu (nu+1)): the
        # digamma recurrence applied at (nu+1)/2.
        for nu in (0.3, 1.0, 5.0, 64.0, 900.0):
            lhs = monotone.dlog_mode_value(nu, 3) - monotone.dlog_mode_value(nu, 1)
            want = -1.0 / (nu * (nu + 1.0))
            assert abs(lhs - want) <= 5e-13

    def test_line_bound_transfers_to_space(self):
        # The k=1 derivative sits below 1/(2 nu (nu+1)), so after the
        # exact shift the k=3 derivative sits below its negative.
        for nu in monotone.default_nu_grid(0.01, 1e4, 60):
            assert monotone.dlog_mode_value(nu, 1) < 0.5 / (nu * (nu + 1.0))
            assert monotone.dlog_mode_value(nu, 3) < -0.5 / (nu * (nu + 1.0)) + 1e-12

    def test_matches_finite_difference(self):
        for nu, k in [(0.5, 1), (3.0, 2), (12.0, 3), (200.0, 6)]:
            h = 1e-6 * nu
            fd = (
                tdist.log_mode_value(nu + h, k) - tdist.log_mode_value(nu - h, k)
            ) / (2.0 * h)
            got = monotone.dlog_mode_value(nu, k)
            assert abs(got - fd) <= 1e-5 * max(1e-8, abs(got))

    def test_gaussian_member_rejected(self):
        with pytest.raises(errors.DomainError):
            monotone.dlog_mode_value(math.inf, 3)

    def test_exact_signs(self):
        wrong = [
            (nu, k)
            for nu, k0 in _random_points()
            for k in (k0, 50, 500)
            if not (monotone.dlog_mode_value(nu, k) > 0.0 if k == 1 else monotone.dlog_mode_value(nu, k) < 0.0)
        ]
        assert wrong == []

    def test_concave_in_the_dimension(self):
        # 2 d ln c/dnu = psi(a+s) - psi(a) - s/a with a = nu/2, s = k/2 has second derivative
        # psi''(a+s) < 0 in s and zeros at s = 0 and 1, which is the k = 1 / 2 / >= 3 pattern;
        # below nu = 0.01 the second difference can lose its sign to rounding
        rng = random.Random(27)
        wrong = []
        for _ in range(2000):
            nu, k = 10.0 ** rng.uniform(-2.0, 4.0), rng.randint(1, 200)
            d0, d1, d2 = (monotone.dlog_mode_value(nu, j) for j in (k, k + 1, k + 2))
            if not d0 - 2.0 * d1 + d2 < 0.0:
                wrong.append((nu, k))
        assert wrong == []

    def test_plane_is_exactly_positive_zero(self):
        for nu, _ in _random_points(300):
            d = monotone.dlog_mode_value(nu, 2)
            assert d == 0.0 and math.copysign(1.0, d) == 1.0, nu

    def test_relative_error_against_mpmath(self):
        points = _random_points() + [(nu, k) for nu, _ in _random_points(40, seed=2) for k in (50, 500)]
        worst = max(abs(monotone.dlog_mode_value(nu, k) / _reference_dlog(nu, k) - 1) for nu, k in points)
        assert worst <= 1e-13

    @pytest.mark.parametrize("nu", [5e-324, 1e-310, 1e-300, 1e300, 1.7e308])
    def test_saturates_with_the_right_sign(self, nu):
        for k in (1, 2, 3, 4, 20, 500):
            d = monotone.dlog_mode_value(nu, k)
            assert not math.isnan(d)
            assert math.copysign(1.0, d) == (1.0 if k <= 2 else -1.0), k
            assert (d == 0.0) == (k == 2 or nu > 1e200), k

    def test_scaled_derivative_within_band(self):
        # 2g / (k (2-k)), g = nu (nu+k) d/dnu ln c, runs from 1 as nu -> 0 to 1/2 as nu -> inf
        for nu in (float(f"{m}e{e}") for m in (1, 2.5, 7) for e in range(-300, 301, 3)):
            for k in (1, 3, 4, 5, 7, 20, 50, 500):
                assert 0.5 <= monotone._scaled_derivative_sum(nu, k) / (k * (2 - k)) <= 1.0, (nu, k)


def loop_scaled_derivative_sum(nu: float, k: int) -> float:
    """The previous _scaled_derivative_sum, kept as the reference for its bits."""
    c = nu + k
    line = 0.0
    if k % 2:
        parts = []
        z = nu
        while z < 2.0 * specfun._RATIO_SERIES_MIN:
            parts.append(2.0 * (nu / z) * c / ((z + 1.0) * (z + 2.0)))
            z += 2.0
        y = 0.5 * z
        w = 1.0 / (y * y)
        t = 0.0
        for n in range(len(specfun._HALF_SHIFT) - 1, 0, -2):
            t = t * w + n * specfun._HALF_SHIFT[n - 1]
        parts.append(-(nu / y) * (c / y) * t)
        line = math.fsum(parts)
    return line - 2.0 * math.fsum([c / (1.0 + nu / j) for j in range(2 - k % 2, k - 1, 2)])


class TestScaledDerivativeSum:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 20, 21, 500])
    def test_same_bits_as_the_reference(self, k):
        rng = random.Random(k)
        nus = [5e-324, 1e-310, 0.01, 1.0, 27.999999999999996, 28.0, 29.0, 30.0, 1e4, 1e300, 1.7e308]
        nus += [10.0 ** rng.uniform(-320.0, 308.0) for _ in range(200)]
        for nu in nus:
            assert monotone._scaled_derivative_sum(nu, k).hex() == loop_scaled_derivative_sum(nu, k).hex(), nu

    def test_memory_does_not_grow_with_k(self):
        # the k/2 = 10^6 terms go to fsum as they are made; a list of them would hold about 32 MiB
        k = 2 * 10**6 + 1
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            value = monotone._scaled_derivative_sum(2.0, k)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2**16
        assert value.hex() == loop_scaled_derivative_sum(2.0, k).hex()


def loop_even_product(nu: float, k: int) -> float:
    """The previous mode_value_even_product at finite nu, kept as the reference for its bits."""
    value = 0.5 * math.pi ** (-0.5 * k)
    for j in range(1, k // 2):
        value *= 0.5 + j / nu
    return value


class TestEvenProduct:
    def test_matches_mode_value(self):
        # Independent route for even dimensions: a finite product of
        # rational factors, no Gamma evaluations at all.
        for k in range(2, 42, 2):
            for nu in (0.05, 0.7, 3.0, 11.0, 250.0, 1e6):
                want = tdist.mode_value(nu, k)
                got = monotone.mode_value_even_product(nu, k)
                assert abs(got - want) <= 1e-13 * want

    def test_gaussian_member(self):
        for k in (2, 6, 12):
            want = (2.0 * math.pi) ** (-0.5 * k)
            assert monotone.mode_value_even_product(math.inf, k) == pytest.approx(
                want, rel=1e-15, abs=0.0
            )

    def test_plane_is_constant(self):
        assert monotone.mode_value_even_product(0.123, 2) == 1.0 / (2.0 * math.pi)
        assert monotone.mode_value_even_product(4567.0, 2) == 1.0 / (2.0 * math.pi)

    def test_odd_dimension_rejected(self):
        with pytest.raises(errors.DomainError):
            monotone.mode_value_even_product(2.0, 3)

    @pytest.mark.parametrize("nu,k", [(471.375, 1200), (100.0, 1240), (100.0, 1300), (300.0, 2000), (100.0, 2000)])
    def test_past_the_subnormals_against_mpmath(self, nu, k):
        # at (471.375, 1200) the plain running product dips below 2.2e-308 and
        # came out 4.38e-281 for 4.21e-281; from k = 1238 the start
        # 0.5 pi^(-k/2) is itself below the normal doubles
        with mp.workdps(60):
            want = 0.5 * mp.pi ** (-mp.mpf(k) / 2) * mp.fprod(mp.mpf(0.5) + j / mp.mpf(nu) for j in range(1, k // 2))
            assert abs(monotone.mode_value_even_product(nu, k) - want) <= 1e-12 * want

    def test_same_bits_where_the_plain_product_stays_normal(self):
        for k in range(2, 241, 2):
            for nu in monotone.default_nu_grid():
                assert monotone.mode_value_even_product(nu, k).hex() == loop_even_product(nu, k).hex(), (nu, k)


class TestClassification:
    def test_line(self):
        report = monotone.classify_monotonicity(1)
        assert report.classification == "increasing"
        assert report.max_derivative_residual <= 1e-5

    def test_plane(self):
        report = monotone.classify_monotonicity(2)
        assert report.classification == "constant"

    @pytest.mark.parametrize("k", [3, 4, 5, 8, 13, 20])
    def test_higher_dimensions(self, k):
        report = monotone.classify_monotonicity(k)
        assert report.classification == "decreasing"
        assert report.max_derivative_residual <= 1e-5

    @pytest.fixture
    def derivative_noise(self, monkeypatch):
        # mixed-sign noise at two grid points, exactly 0 elsewhere, in place
        # of the scaled derivative sum
        grid = monotone.default_nu_grid()
        noise = {grid[10]: 1e-14, grid[100]: -1e-14}
        monkeypatch.setattr(monotone, "_scaled_derivative_sum", lambda nu, k: noise.get(nu, 0.0))
        return noise

    def test_mixed_signs_raise(self, derivative_noise):
        # however small, two opposite signs contradict every classification
        with pytest.raises(errors.MonotonicityViolationError):
            monotone.classify_monotonicity(2)

    def test_violation_carries_witnesses(self, derivative_noise):
        try:
            monotone.classify_monotonicity(2)
        except errors.MonotonicityViolationError as exc:
            assert isinstance(exc.witnesses, list)
            assert exc.witnesses == [(nu, monotone.dlog_mode_value(nu, 2)) for nu in sorted(derivative_noise)]
            assert [d > 0.0 for _, d in exc.witnesses] == [True, False]
        else:
            pytest.fail("expected a violation")

    def test_values_moving_against_the_classification_raise(self, monkeypatch):
        # flat log mode values under the decreasing derivative of k = 3
        monkeypatch.setattr(monotone, "_log_ratio_nu", lambda nu, two_s: 1.0)
        grid = monotone.default_nu_grid(0.1, 100.0, 12)
        with pytest.raises(errors.MonotonicityViolationError, match="move against the 'decreasing'") as info:
            monotone.classify_monotonicity(3, grid)
        assert info.value.witnesses == [(nu, 0.0) for nu in grid]

    def test_value_check_computes_each_mode_value_once(self, monkeypatch):
        # the value check reads the central differences of ln c, so a classification forms
        # no mode value: only verify_dimension's product check does
        calls = []
        real = monotone._product_rel
        monkeypatch.setattr(monotone, "_product_rel", lambda nu, k, log_c: calls.append(nu) or real(nu, k, log_c))
        monotone.classify_monotonicity(3)
        monotone.classify_monotonicity(4)
        assert calls == []

    @pytest.mark.parametrize("k, expected", [(1, "increasing"), (2, "constant"), (3, "decreasing")])
    def test_largest_tail_weights(self, k, expected):
        # the derivatives underflow to +/-0.0 here; their signs still decide
        assert monotone.classify_monotonicity(k, [1e300, 1.7e308]).classification == expected

    @pytest.mark.parametrize(
        "k, grid",
        [
            # mode values saturate to inf at the tiny end
            *(pytest.param(k, monotone.default_nu_grid(1e-300, 100.0, 50), id=f"saturating-{k}") for k in (5, 7)),
            # neighbouring mode values tie
            *(pytest.param(k, monotone.default_nu_grid(99.9999999999, 100.0, 200), id=f"tying-{k}") for k in (1, 2, 3, 4)),
            # nu * FD_STEP_SCALE underflows to 0 at the first two points
            *(pytest.param(k, [5e-324, 1e-320, 1.0], id=f"no-step-{k}") for k in (1, 2, 3)),
        ],
    )
    def test_grid_edges(self, k, grid):
        expected = {1: "increasing", 2: "constant"}.get(k, "decreasing")
        assert monotone.classify_monotonicity(k, grid).classification == expected

    def test_saturated_derivatives_leave_no_residual(self):
        # at 3e-318 and 1e-310 the derivative and the difference are both -inf
        for nu in (3e-318, 1e-310):
            h = nu * monotone.FD_STEP_SCALE
            fd = (tdist.log_mode_value(nu + h, 3) - tdist.log_mode_value(nu - h, 3)) / (2.0 * h)
            assert monotone.dlog_mode_value(nu, 3) == fd == -math.inf
        report = monotone.classify_monotonicity(3, [3e-318, 1e-310, 1e-308, 1.0])
        # nu +/- h at 1e-308 lie below 2^-1021, where ln c comes from nu itself, not a rounded nu/2
        assert report.max_derivative_residual == pytest.approx(2.49e-9, rel=5e-3, abs=0.0)
        # all of it from nu = 1e-308
        assert report == monotone.classify_monotonicity(3, [1e-308, 1.0])
        assert monotone.classify_monotonicity(3, [3e-318, 1e-310, 1.0]).max_derivative_residual < 1e-8

    @pytest.mark.parametrize(
        "grid",
        [
            monotone.default_nu_grid(),
            monotone.default_nu_grid(1e-300, 100.0, 50),
            monotone.default_nu_grid(3e-318, 1.0, 40),
            (1e300, 1.7e308),
            (5e-324, 1e-320, 1.0),
        ],
        ids=["default", "tiny-nu", "subnormal-nu", "huge-nu", "no-step"],
    )
    def test_residual_from_the_public_routes(self, grid):
        # the worst |d - fd| / max(FD_RESIDUAL_FLOOR, |d|), bit for bit, with d from
        # dlog_mode_value and fd the central difference of log_mode_value; verify_dimension's
        # walk, which shares only the judging with classify_monotonicity's, gives the same
        for k in (1, 2, 3, 4, 5, 19, 20, 101, 500):
            worst = 0.0
            for nu in grid:
                h = nu * monotone.FD_STEP_SCALE
                if not h:
                    continue
                d = monotone.dlog_mode_value(nu, k)
                fd = (tdist.log_mode_value(nu + h, k) - tdist.log_mode_value(nu - h, k)) / (2.0 * h)
                if math.isfinite(d) and math.isfinite(fd):
                    worst = max(worst, abs(d - fd) / max(monotone.FD_RESIDUAL_FLOOR, abs(d)))
            report = monotone.classify_monotonicity(k, grid)
            assert report.max_derivative_residual.hex() == worst.hex(), k
            row, _ = monotone.verify_dimension(k, grid)
            assert (row[2], row[3].hex()) == (report.classification, worst.hex()), k

    def test_grid_validation(self):
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[1.0])
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[2.0, 1.0])
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[0.0, 1.0])


class TestDefaultGrid:
    @pytest.mark.parametrize("lo,hi,points", [(0.01, 1e4, 200), (0.3, 7.0, 50), (0.1, 30.0, 200)])
    def test_shape(self, lo, hi, points):
        grid = monotone.default_nu_grid(lo, hi, points)
        assert len(grid) == points
        # the endpoints are the values asked for, not 10 ** log10 of them
        assert grid[0] == lo
        assert grid[-1] == hi
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_validation(self):
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(1.0, 0.5, 10)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.0, 1.0, 10)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.1, 1.0, 1)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.1, 1.0, 5.0)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.1, 1.0, "5")
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(points=-10**5000)

    def test_built_once_for_classification(self, monkeypatch):
        # a classification without a grid uses default_nu_grid(), built no more than once
        want = monotone.classify_monotonicity(3, monotone.default_nu_grid())
        monotone.classify_monotonicity(3)
        monkeypatch.setattr(monotone, "default_nu_grid", lambda *args: pytest.fail("rebuilt the default grid"))
        assert monotone.classify_monotonicity(3) == want


class TestInductionStep:
    def test_descends_through_odd_dimensions(self):
        # The derivative sum for k+2 must not exceed the one for k:
        # this chains the k=3 result upward through 5, 7, 9, ...
        for nu in (0.1, 1.0, 8.0, 333.0):
            for k in (3, 5, 7, 9, 11):
                lhs_next, lhs_k = monotone.induction_step_check(nu, k)
                assert lhs_next <= lhs_k + monotone.INDUCTION_SLACK

    def test_increase_raises(self, monkeypatch):
        # lhs(k) = k, given as the scaled sum nu (nu + k) lhs(k)
        monkeypatch.setattr(monotone, "_scaled_derivative_sum", lambda nu, k: k * nu * (nu + k))
        with pytest.raises(errors.MonotonicityViolationError, match="increased at nu=2.0, k=3: 5.0 > 3.0") as info:
            monotone.induction_step_check(2.0, 3)
        assert info.value.witnesses == [(2.0, 2.0)]

    def test_rejects_even_or_line(self):
        with pytest.raises(errors.DomainError):
            monotone.induction_step_check(2.0, 4)
        with pytest.raises(errors.DomainError):
            monotone.induction_step_check(2.0, 1)
        with pytest.raises(errors.DomainError):
            monotone.induction_step_check(math.inf, 3)


class TestVerifyDimension:
    GRID = monotone.default_nu_grid(0.1, 100.0, 12)

    @pytest.mark.parametrize(
        "k, expected, aux",
        [(1, "increasing", "-"), (2, "constant", "product rel"), (3, "decreasing", "induction"), (4, "decreasing", "product rel")],
    )
    def test_ok_rows(self, k, expected, aux):
        row, failures = monotone.verify_dimension(k, self.GRID)
        assert failures == []
        assert len(row) == len(monotone.VERIFY_COLUMNS)
        assert row[:3] == [k, expected, expected]
        assert row[3] <= monotone.FD_RESIDUAL_BOUND
        assert row[4].startswith(aux)
        assert row[5] is True

    @pytest.mark.parametrize("k", [3, 4])
    def test_one_shot_grid(self, k, monkeypatch):
        # the grid is read once, so an iterator checks every point like the tuple
        checked = []
        induction = monotone._induction_step
        monkeypatch.setattr(monotone, "_induction_step", lambda nu, k, *sums: checked.append(nu) or induction(nu, k, *sums))
        assert monotone.verify_dimension(k, iter(self.GRID)) == monotone.verify_dimension(k, self.GRID)
        assert checked == (list(self.GRID) * 2 if k == 3 else [])

    @pytest.mark.parametrize("k", [3, 4])
    def test_computes_each_point_once(self, k, monkeypatch):
        # one product check per point for even k, and each derivative sum once: for odd k
        # the induction step adds S(nu, k + 2)
        values, sums = [], []
        product_rel, scaled = monotone._product_rel, monotone._scaled_derivative_sum
        monkeypatch.setattr(monotone, "_product_rel", lambda nu, k, log_c: values.append((nu, k)) or product_rel(nu, k, log_c))
        monkeypatch.setattr(monotone, "_scaled_derivative_sum", lambda nu, k: sums.append((nu, k)) or scaled(nu, k))
        grid = monotone.default_nu_grid()
        monotone.verify_dimension(k, grid)
        assert len(values) == len(set(values)) == (len(grid) if k == 4 else 0)
        assert len(sums) == len(set(sums)) == len(grid) * (2 if k == 3 else 1)

    def test_mixed_signs_give_violated_row(self, monkeypatch):
        monkeypatch.setattr(monotone, "_scaled_derivative_sum", lambda nu, k: 1.0 if nu < 1.0 else -1.0)
        row, failures = monotone.verify_dimension(3, self.GRID)
        assert row[:3] == [3, "decreasing", "violated"]
        assert math.isnan(row[3])
        assert row[4:] == ["-", False]
        assert failures == ["k=3: mixed derivative signs for k=3; the classification is ill-defined"]

    @pytest.mark.parametrize(
        "k, grid",
        [
            (204, monotone.default_nu_grid()),
            (240, monotone.default_nu_grid()),
            (6, monotone.default_nu_grid(1e-300, 100.0, 50)),
            (1000, monotone.default_nu_grid()),
        ],
        ids=["204", "240", "6-tiny-nu", "1000"],
    )
    def test_product_check_past_the_double_range(self, k, grid):
        # c and the product overflow to inf at the grid's small nu, or at k = 1000
        # underflow to 0 at its large nu; there the check compares their logs
        assert tdist.mode_value(grid[0], k) == math.inf or tdist.mode_value(grid[-1], k) == 0.0
        row, failures = monotone.verify_dimension(k, grid)
        assert failures == []
        assert row[4].startswith("product rel ")
        assert 0.0 <= float(row[4].removeprefix("product rel ")) <= monotone.PRODUCT_RTOL

    @pytest.mark.parametrize(
        "k_max, grid",
        [
            (20, monotone.default_nu_grid()),
            (70, monotone.default_nu_grid(0.01, 1e4, 30)),
            (25, monotone.default_nu_grid(0.01, 1e4, 200)),
            (12, monotone.default_nu_grid(1e-320, 1e300, 60)),
            (7, [5e-324, 1e-320, 1.0]),
        ],
        ids=["default", "k70", "k25", "edges", "no-step"],
    )
    @pytest.mark.parametrize("block_sums", [monotone._BLOCK_SUMS, 200], ids=["one-block", "blocks"])
    def test_walk_gives_each_dimension_row(self, k_max, grid, block_sums, monkeypatch):
        # one walk over k = 1..k_max gives the rows and failures of verify_dimension per k,
        # bit for bit (repr, as a violated row holds nan), also when it takes k in blocks
        monkeypatch.setattr(monotone, "_BLOCK_SUMS", block_sums)
        rows = monotone.verify_dimensions(k_max, grid)
        assert len(rows) == k_max
        for k, (row, failures) in enumerate(rows, 1):
            want_row, want_failures = monotone.verify_dimension(k, grid)
            assert (repr(row), failures) == (repr(want_row), want_failures)

    def test_rows_match_the_public_routes(self):
        # the route a checker rebuilds: the residual from classify_monotonicity, and the
        # product text from mode_value and mode_value_even_product
        grid = monotone.default_nu_grid()
        for row, failures in monotone.verify_dimensions(20, grid):
            k = row[0]
            assert failures == []
            assert row[3] == monotone.classify_monotonicity(k, grid).max_derivative_residual
            if k % 2 == 0:
                rel = max(
                    abs(tdist.mode_value(nu, k) - monotone.mode_value_even_product(nu, k)) / tdist.mode_value(nu, k)
                    for nu in grid
                )
                assert row[4] == f"product rel {rel:.2e}"

    def test_product_disagreement_fails(self, monkeypatch):
        even_product = monotone.mode_value_even_product
        monkeypatch.setattr(monotone, "mode_value_even_product", lambda nu, k: even_product(nu, k) * (1.0 + 1e-9))
        row, failures = monotone.verify_dimension(4, self.GRID)
        assert row[2] == "decreasing"
        assert row[4] == "product rel 1.00e-09"
        assert row[5] is False
        assert failures == ["k=4: product-form disagreement product rel 1.00e-09"]

    # default_nu_grid()'s fourth point, where ln c(nu, 898) is 3590.6 and c passes the double range
    K898_NU = monotone.default_nu_grid()[3]

    def test_log_comparison_passes_its_rounding(self):
        # the logs differ by 3 ulps of ln c, 1.36e-12, past PRODUCT_RTOL but within the
        # rounding that _product_rel allows for where c or p leaves the normal doubles
        nu = self.K898_NU
        gap, bound = monotone._product_rel(nu, 898, tdist.log_mode_value(nu, 898))
        assert tdist.mode_value(nu, 898) == math.inf
        assert gap / math.ulp(3590.6) == pytest.approx(3.0, rel=1e-9)
        assert monotone.PRODUCT_RTOL < gap <= bound
        row, failures = monotone.verify_dimension(898, [nu, 2.0 * nu])
        assert failures == []
        assert row[4:] == ["product rel 1.36e-12", True]

    def test_product_disagreement_in_logs_fails(self, monkeypatch):
        # a product off by 1e-9 where c and p are compared in logs: ln(1/2) is used there only
        monkeypatch.setattr(monotone, "_LOG_HALF", math.log(0.5) + 1e-9)
        row, failures = monotone.verify_dimension(898, [self.K898_NU, 2.0 * self.K898_NU])
        assert float(row[4].removeprefix("product rel ")) == pytest.approx(1e-9, rel=0.01)
        assert row[5] is False
        assert failures == [f"k=898: product-form disagreement {row[4]}"]

    @pytest.mark.parametrize(
        "report, failure",
        [
            (monotone.MonotonicityReport("increasing", 0.0), "k=3: classified increasing, expected decreasing"),
            (monotone.MonotonicityReport("decreasing", 1.0), "k=3: finite-difference residual 1.00e+00 exceeds 1e-5"),
        ],
        ids=["classification", "residual"],
    )
    def test_report_failures(self, monkeypatch, report, failure):
        sweep = monotone._sweep
        monkeypatch.setattr(monotone, "_sweep", lambda ks, vals: [(k, report, v) for k, _, v in sweep(ks, vals)])
        row, failures = monotone.verify_dimension(3, self.GRID)
        assert row == [3, "decreasing", *report, "induction", False]
        assert failures == [failure]
