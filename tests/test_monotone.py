"""Sign pattern of the mode value's dependence on the tail weight.

The dimension decides everything: the peak rises with nu on the line,
stays at 1/(2 pi) in the plane, and falls with nu from dimension 3 on.
"""

import math

import pytest

from tmode import errors, monotone, tdist

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
                want, rel=1e-15
            )

    def test_plane_is_constant(self):
        assert monotone.mode_value_even_product(0.123, 2) == 1.0 / (2.0 * math.pi)
        assert monotone.mode_value_even_product(4567.0, 2) == 1.0 / (2.0 * math.pi)

    def test_odd_dimension_rejected(self):
        with pytest.raises(errors.DomainError):
            monotone.mode_value_even_product(2.0, 3)


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
        # mixed-sign noise at two grid points, 0 elsewhere, in place of the
        # analytic derivative, so these tests do not hang on k = 2 rounding
        grid = monotone.default_nu_grid()
        noise = {grid[10]: 1e-14, grid[100]: -1e-14}
        monkeypatch.setattr(monotone, "dlog_mode_value", lambda nu, k: noise.get(nu, 0.0))
        return noise

    def test_unachievable_zero_tolerance_raises(self, monkeypatch, derivative_noise):
        # With the dead band collapsed to 1e-16, derivative noise of
        # 1e-14 must register as a contradiction when its signs mix.
        monkeypatch.setattr(monotone, "ZERO_TOL", 1e-16)
        with pytest.raises(errors.MonotonicityViolationError):
            monotone.classify_monotonicity(2)

    def test_violation_carries_witnesses(self, monkeypatch, derivative_noise):
        monkeypatch.setattr(monotone, "ZERO_TOL", 1e-16)
        try:
            monotone.classify_monotonicity(2)
        except errors.MonotonicityViolationError as exc:
            assert isinstance(exc.witnesses, list)
            assert exc.witnesses == sorted(derivative_noise.items())
        else:
            pytest.fail("expected a violation")

    def test_values_moving_against_the_classification_raise(self, monkeypatch):
        # flat mode values under the decreasing derivative of k = 3
        monkeypatch.setattr(monotone, "mode_value", lambda nu, k: 1.0)
        grid = monotone.default_nu_grid(0.1, 100.0, 12)
        with pytest.raises(errors.MonotonicityViolationError, match="move against the 'decreasing'") as info:
            monotone.classify_monotonicity(3, grid)
        assert info.value.witnesses == [(nu, 0.0) for nu in grid[:-1]]

    def test_value_check_computes_each_mode_value_once(self, monkeypatch):
        calls = []
        real = monotone.mode_value
        monkeypatch.setattr(monotone, "mode_value", lambda nu, k: calls.append(nu) or real(nu, k))
        monotone.classify_monotonicity(3)
        assert calls and len(calls) == len(set(calls))

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


class TestInductionStep:
    def test_descends_through_odd_dimensions(self):
        # The derivative sum for k+2 must not exceed the one for k:
        # this chains the k=3 result upward through 5, 7, 9, ...
        for nu in (0.1, 1.0, 8.0, 333.0):
            for k in (3, 5, 7, 9, 11):
                lhs_next, lhs_k = monotone.induction_step_check(nu, k)
                assert lhs_next <= lhs_k + monotone.INDUCTION_SLACK

    def test_increase_raises(self, monkeypatch):
        monkeypatch.setattr(monotone, "_derivative_sum", lambda nu, k: float(k))
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
        induction = monotone.induction_step_check
        monkeypatch.setattr(monotone, "induction_step_check", lambda nu, k: checked.append(nu) or induction(nu, k))
        assert monotone.verify_dimension(k, iter(self.GRID)) == monotone.verify_dimension(k, self.GRID)
        assert checked == (list(self.GRID) * 2 if k == 3 else [])

    def test_mixed_signs_give_violated_row(self, monkeypatch):
        monkeypatch.setattr(monotone, "_derivative_sum", lambda nu, k: 1.0 if nu < 1.0 else -1.0)
        row, failures = monotone.verify_dimension(3, self.GRID)
        assert row[:3] == [3, "decreasing", "violated"]
        assert math.isnan(row[3])
        assert row[4:] == ["-", False]
        assert failures == ["k=3: mixed derivative signs for k=3; the classification is ill-defined"]

    def test_product_disagreement_fails(self, monkeypatch):
        even_product = monotone.mode_value_even_product
        monkeypatch.setattr(monotone, "mode_value_even_product", lambda nu, k: even_product(nu, k) * (1.0 + 1e-9))
        row, failures = monotone.verify_dimension(4, self.GRID)
        assert row[2] == "decreasing"
        assert row[4] == "product rel 1.00e-09"
        assert row[5] is False
        assert failures == ["k=4: product-form disagreement product rel 1.00e-09"]

    @pytest.mark.parametrize(
        "report, failure",
        [
            (monotone.MonotonicityReport("increasing", 0.0), "k=3: classified increasing, expected decreasing"),
            (monotone.MonotonicityReport("decreasing", 1.0), "k=3: finite-difference residual 1.00e+00 exceeds 1e-5"),
        ],
        ids=["classification", "residual"],
    )
    def test_report_failures(self, monkeypatch, report, failure):
        monkeypatch.setattr(monotone, "classify_monotonicity", lambda k, grid: report)
        row, failures = monotone.verify_dimension(3, self.GRID)
        assert row == [3, "decreasing", *report, "induction", False]
        assert failures == [failure]
