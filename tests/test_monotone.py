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

    def test_report_carries_grid(self):
        grid = monotone.default_nu_grid(0.1, 10.0, 25)
        report = monotone.classify_monotonicity(3, grid=grid)
        assert report.k == 3
        assert report.grid == tuple(grid)

    def test_unachievable_zero_tolerance_raises(self):
        # With the dead band collapsed to 1e-16 the plane's derivative
        # noise (~1e-14) must register as a contradiction, whichever
        # sign pattern it takes.
        with pytest.raises(errors.MonotonicityViolationError):
            monotone.classify_monotonicity(2, zero_tol=1e-16)

    def test_violation_carries_witnesses(self):
        try:
            monotone.classify_monotonicity(2, zero_tol=1e-16)
        except errors.MonotonicityViolationError as exc:
            assert isinstance(exc.witnesses, list)
        else:
            pytest.fail("expected a violation")

    def test_grid_validation(self):
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[1.0])
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[2.0, 1.0])
        with pytest.raises(errors.DomainError):
            monotone.classify_monotonicity(3, grid=[0.0, 1.0])


class TestDefaultGrid:
    def test_shape(self):
        grid = monotone.default_nu_grid(0.01, 1e4, 200)
        assert len(grid) == 200
        assert grid[0] == pytest.approx(0.01)
        assert grid[-1] == pytest.approx(1e4)
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        assert max(ratios) - min(ratios) < 1e-9

    def test_validation(self):
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(1.0, 0.5, 10)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.0, 1.0, 10)
        with pytest.raises(errors.DomainError):
            monotone.default_nu_grid(0.1, 1.0, 1)


class TestInductionStep:
    def test_descends_through_odd_dimensions(self):
        # The derivative sum for k+2 must not exceed the one for k:
        # this chains the k=3 result upward through 5, 7, 9, ...
        for nu in (0.1, 1.0, 8.0, 333.0):
            for k in (3, 5, 7, 9, 11):
                lhs_next, lhs_k = monotone.induction_step_check(nu, k)
                assert lhs_next <= lhs_k + monotone.INDUCTION_SLACK

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
