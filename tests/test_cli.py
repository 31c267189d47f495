"""End-to-end CLI behavior: schemas, determinism and the exit-code contract."""

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tmode import ballprob, cli, monotone, tdist
from tmode.errors import MonotonicityViolationError


@pytest.fixture
def runner():
    return CliRunner()


def parse_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestModeValue:
    def test_single_value(self, runner):
        result = runner.invoke(cli.main, ["mode-value", "--k", "2", "--nu", "7"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["nu", "mode_value"]
        assert len(rows) == 1
        assert float(rows[0][1]) == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-5)

    def test_log_grid_increasing_on_the_line(self, runner):
        result = runner.invoke(
            cli.main, ["mode-value", "--k", "1", "--grid", "0.1:100:50", "--log", "--precision", "full"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 50
        values = [float(r[1]) for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_log_grid_decreasing_in_dimension_four(self, runner):
        result = runner.invoke(
            cli.main, ["mode-value", "--k", "4", "--grid", "0.1:100:50", "--log", "--precision", "full"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        values = [float(r[1]) for r in rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_default_grid_size(self, runner):
        result = runner.invoke(cli.main, ["mode-value", "--k", "3"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert len(rows) == 200

    def test_gaussian_spelling(self, runner):
        result = runner.invoke(cli.main, ["mode-value", "--k", "1", "--nu", "inf", "--precision", "full"])
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert rows[0][0] == "inf"
        assert float(rows[0][1]) == pytest.approx((2.0 * math.pi) ** -0.5, rel=1e-14)
        for spelling in ("Infinity", " INF "):
            other = runner.invoke(cli.main, ["mode-value", "--k", "1", "--nu", spelling, "--precision", "full"])
            assert other.exit_code == 0
            assert other.output == result.output

    def test_json_schema(self, runner):
        result = runner.invoke(cli.main, ["mode-value", "--k", "2", "--nu", "inf", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["schema_version"] == "1"
        assert doc["command"] == "mode-value"
        assert doc["rows"][0]["nu"] == "inf"
        assert isinstance(doc["rows"][0]["mode_value"], float)

    def test_full_precision_round_trips(self, runner):
        result = runner.invoke(
            cli.main, ["mode-value", "--k", "2", "--nu", "7", "--precision", "full"]
        )
        _, rows = parse_csv(result.output)
        assert float(rows[0][1]) == tdist.mode_value(7.0, 2)

    @pytest.mark.parametrize(
        "args",
        [
            ["mode-value", "--k", "1", "--grid", "junk"],
            ["mode-value", "--k", "1", "--grid", "5:1:10"],
            ["mode-value", "--k", "1", "--grid", "1:5:1"],
            ["mode-value", "--k", "1", "--nu", "3", "--grid", "1:5:10"],
            ["mode-value", "--k", "1", "--nu", "3", "--log"],
            ["mode-value", "--k", "0", "--nu", "3"],
            ["mode-value", "--k", "1", "--nu", "-3"],
            ["mode-value", "--k", "1", "--nu", "spam"],
            ["mode-value", "--k", "1", "--grid", "1:2:3:4"],
            ["mode-value", "--k", "1", "--grid", "1:5:2.5"],
            ["verify", "--k-max", "3", "--points", "0"],
            ["verify", "--k-max", "3", "--grid", "0.1:10:5", "--points", "7"],
            # an --output path whose directory is a file
            ["mode-value", "--k", "1", "--nu", "3", "--output", str(Path(__file__) / "x.csv")],
        ],
    )
    def test_usage_errors(self, runner, args):
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 2


class TestDensityProfile:
    def test_all_members(self, runner):
        result = runner.invoke(
            cli.main, ["density-profile", "--k", "1", "--axis-range", "-1:1:5"]
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["nu", "t", "density"]
        assert len(rows) == 4 * 5
        assert {r[0] for r in rows} == {"1", "2", "10", "inf"}

    def test_cauchy_center_value(self, runner):
        result = runner.invoke(
            cli.main,
            ["density-profile", "--k", "1", "--nu", "1", "--axis-range", "0:1:2", "--precision", "full"],
        )
        _, rows = parse_csv(result.output)
        assert float(rows[0][2]) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_peak_ordering_flips_in_dimension_three(self, runner):
        result = runner.invoke(
            cli.main, ["density-profile", "--k", "3", "--axis-range", "0:1:2", "--precision", "full"]
        )
        _, rows = parse_csv(result.output)
        at_zero = {r[0]: float(r[2]) for r in rows if float(r[1]) == 0.0}
        assert at_zero["1.0"] > at_zero["2.0"] > at_zero["10.0"] > at_zero["inf"]

    def test_bad_range(self, runner):
        for bad in ("1:0:5", "0:1:1", "x:1:5", "0:1", "0:1:2:3", "0:inf:5"):
            result = runner.invoke(cli.main, ["density-profile", "--k", "1", "--axis-range", bad])
            assert result.exit_code == 2


class TestTable1:
    def test_default_run_matches_published(self, runner):
        result = runner.invoke(cli.main, ["table1"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["nu", "k", "analytic", "published", "match"]
        assert len(rows) == 16
        assert all(r[4] == "true" for r in rows)

    def test_json_variant(self, runner):
        result = runner.invoke(cli.main, ["table1", "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["command"] == "table1"
        assert len(doc["rows"]) == 16
        assert all(row["match"] is True for row in doc["rows"])
        gauss = [row for row in doc["rows"] if row["nu"] == "inf"]
        assert len(gauss) == 4

    def test_monte_carlo_columns(self, runner):
        result = runner.invoke(cli.main, ["table1", "--n-mc", "200000", "--seed", "42"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header[-3:] == ["mc_estimate", "mc_std_error", "within_4se"]
        assert all(r[-1] == "true" for r in rows)

    def test_byte_identical_reruns(self, runner):
        args = ["table1", "--n-mc", "50000", "--seed", "9", "--format", "json"]
        first = runner.invoke(cli.main, args)
        second = runner.invoke(cli.main, args)
        assert first.exit_code == second.exit_code == 0
        assert first.output == second.output

    def test_bad_mc_size(self, runner):
        result = runner.invoke(cli.main, ["table1", "--n-mc", "0"])
        assert result.exit_code == 2


class TestVerify:
    def test_passes_with_headroom(self, runner):
        result = runner.invoke(cli.main, ["verify", "--k-max", "6", "--points", "50"])
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["k", "expected", "classification", "max_fd_residual", "aux_check", "ok"]
        assert len(rows) == 6
        assert [r[2] for r in rows[:3]] == ["increasing", "constant", "decreasing"]
        assert all(r[5] == "true" for r in rows)
        assert all(float(r[3]) <= 1e-5 for r in rows)

    def test_requires_three_dimensions(self, runner):
        result = runner.invoke(cli.main, ["verify", "--k-max", "2"])
        assert result.exit_code == 2

    def test_json_variant(self, runner):
        result = runner.invoke(
            cli.main, ["verify", "--k-max", "3", "--points", "40", "--format", "json"]
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert [row["classification"] for row in doc["rows"]] == [
            "increasing",
            "constant",
            "decreasing",
        ]


def _broken_induction(nu, k):
    raise MonotonicityViolationError(f"induction chain increased at nu={nu}, k={k}", witnesses=[(nu, 1.0)])


def _misclassify_k3(k, grid, classify=monotone.classify_monotonicity):
    report = classify(k, grid)
    return report._replace(classification="increasing") if k == 3 else report


class TestExitOne:
    """A failed check still prints the table, then one stderr line per problem, and exits 1."""

    @pytest.mark.parametrize(
        "module, name, fake, args, first_problem",
        [
            (monotone, "_derivative_sum", lambda nu, k: 1.0 if nu < 1.0 else -1.0, ["verify", "--k-max", "3", "--points", "10"], "violation: k=1: mixed"),
            (monotone, "mode_value_even_product", lambda nu, k: 1.0, ["verify", "--k-max", "4", "--points", "10"], "violation: k=2: product-form"),
            (monotone, "induction_step_check", _broken_induction, ["verify", "--k-max", "3", "--points", "10"], "violation: k=3: induction"),
            (monotone, "classify_monotonicity", _misclassify_k3, ["verify", "--k-max", "3", "--points", "10"], "violation: k=3: classified"),
            (ballprob, "format_published", lambda value, k: "0", ["table1"], "mismatch at nu=1.0, k=1:"),
        ],
        ids=["mixed-signs", "product", "induction", "classified", "table1"],
    )
    def test_problem_exits_1(self, runner, monkeypatch, module, name, fake, args, first_problem):
        monkeypatch.setattr(module, name, fake)
        result = runner.invoke(cli.main, args)
        assert result.exit_code == 1
        header, rows = parse_csv(result.stdout)
        assert header[-1] in ("ok", "match")
        lines = result.stderr.splitlines()
        assert len(lines) == sum(r[-1] == "false" for r in rows) > 0
        assert lines[0].startswith(first_problem)
        assert all(line.startswith(("violation: ", "mismatch at ")) for line in lines)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main.main(args, prog_name="tmode", standalone_mode=False) == 1
        assert out.getvalue() == result.stdout


class TestMoments:
    def test_sweep_is_constant(self, runner):
        result = runner.invoke(
            cli.main,
            ["moments", "--nu1", "5", "--nu2", "10", "--k", "3", "--m", "2", "--precision", "full"],
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["k", "moment_ratio", "kurtosis_ratio"]
        assert len(rows) == 10
        ratios = {r[1] for r in rows}
        assert len(ratios) == 1
        assert float(ratios.pop()) == pytest.approx(4.0 / 3.0, rel=1e-13)

    def test_same_member_gives_unit_ratio(self, runner):
        result = runner.invoke(
            cli.main, ["moments", "--nu1", "6", "--nu2", "6", "--k", "2", "--m", "3", "--precision", "full"]
        )
        _, rows = parse_csv(result.output)
        assert all(float(r[1]) == 1.0 for r in rows)

    def test_kurtosis_column_blank_without_fourth_moment(self, runner):
        result = runner.invoke(
            cli.main, ["moments", "--nu1", "3.5", "--nu2", "10", "--k", "1", "--m", "2"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert all(r[2] == "" for r in rows)

    def test_existence_violation_is_usage_error(self, runner):
        result = runner.invoke(
            cli.main, ["moments", "--nu1", "5", "--nu2", "10", "--k", "1", "--m", "6"]
        )
        assert result.exit_code == 2
        assert "exist" in result.output

    def test_gaussian_member_allowed(self, runner):
        result = runner.invoke(
            cli.main,
            ["moments", "--nu1", "inf", "--nu2", "5", "--k", "2", "--m", "2", "--precision", "full"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0][1]) == pytest.approx(3.0 / 5.0, rel=1e-13)


class TestSample:
    def test_estimate_close_to_analytic(self, runner):
        result = runner.invoke(
            cli.main,
            ["sample", "--nu", "10", "--k", "2", "--n", "100000", "--seed", "4", "--radius", "1.0", "--precision", "full"],
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert header == ["nu", "k", "n", "seed", "radius", "estimate", "std_error", "analytic", "z"]
        assert len(rows) == 1
        assert abs(float(rows[0][8])) < 4.0

    def test_multiple_radii(self, runner):
        result = runner.invoke(
            cli.main,
            ["sample", "--nu", "2", "--k", "1", "--n", "20000", "--seed", "1", "--radius", "0.5", "--radius", "2.0"],
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert [r[4] for r in rows] == ["0.5", "2"]

    def test_deterministic_output(self, runner):
        args = ["sample", "--nu", "3", "--k", "2", "--n", "30000", "--seed", "12"]
        assert runner.invoke(cli.main, args).output == runner.invoke(cli.main, args).output

    def test_writes_file(self, runner, tmp_path):
        out = tmp_path / "draws.csv"
        result = runner.invoke(
            cli.main,
            ["sample", "--nu", "5", "--k", "1", "--n", "1000", "--seed", "0", "--output", str(out)],
        )
        assert result.exit_code == 0
        assert result.output == ""
        text = out.read_text(encoding="utf-8")
        assert text.startswith("nu,k,n,seed,radius")
        assert "\r" not in text

    def test_domain_errors(self, runner):
        result = runner.invoke(cli.main, ["sample", "--nu", "0", "--k", "2", "--n", "10", "--seed", "0"])
        assert result.exit_code == 2
        result = runner.invoke(cli.main, ["sample", "--nu", "3", "--k", "2", "--n", "10", "--seed", "0", "--radius", "-1"])
        assert result.exit_code == 2

    def test_smallest_subnormal_nu(self, runner):
        # nu/2 underflows to 0; every draw is infinite, so nothing is in the ball
        result = runner.invoke(
            cli.main, ["sample", "--nu", "5e-324", "--k", "2", "--n", "100", "--seed", "1", "--radius", "0.5"]
        )
        assert result.exit_code == 0
        _, rows = parse_csv(result.output)
        assert float(rows[0][5]) == 0.0

    def test_tiny_nu_writes_nothing_to_stderr(self):
        # saturated draws are misses, not numpy warnings
        argv = ["sample", "--nu", "1e-3", "--k", "2", "--n", "1000", "--seed", "1", "--radius", "0.5"]
        proc = subprocess.run(
            [sys.executable, "-m", "tmode.cli", *argv],
            env={**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stderr == ""

    def test_nonconvergence_is_one_line_error(self, runner):
        # ball_prob(1e300, 2, 5) runs out of continued-fraction iterations
        result = runner.invoke(
            cli.main, ["sample", "--nu", "1e300", "--k", "2", "--n", "100", "--seed", "0", "--radius", "5"]
        )
        assert result.exit_code == 1
        assert result.output.startswith("Error: continued fraction not converged")
        assert result.output.count("\n") == 1
        assert "Traceback" not in result.output


class TestGrids:
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(min_value=2, max_value=2000),
    )
    @example(0.0, 5e-324, 3)  # the spacing underflows to zero
    @example(-1e308, 1e308, 5)  # the span overflows
    @settings(max_examples=300, deadline=None)
    def test_linear_grid_matches_numpy_bit_for_bit(self, a, b, n):
        a, b = min(a, b), max(a, b)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linspace(a, b, n).tolist()
        assert [x.hex() for x in cli._linspace(a, b, n)] == [x.hex() for x in want]


class TestFormatting:
    def test_version(self, runner):
        result = runner.invoke(cli.main, ["--version"])
        assert result.exit_code == 0
        assert result.output.rstrip().endswith("version 0.1.0")

    def test_csv_uses_lf_only(self, runner):
        result = runner.invoke(cli.main, ["table1"])
        assert "\r" not in result.output

    def test_unknown_format_rejected(self, runner):
        result = runner.invoke(cli.main, ["table1", "--format", "xml"])
        assert result.exit_code == 2

    def test_unknown_command_rejected(self, runner):
        result = runner.invoke(cli.main, ["frobnicate"])
        assert result.exit_code == 2


GOLDEN = Path(__file__).parent / "golden" / "cli.json"


def _capture(args: list[str]) -> dict:
    result = CliRunner().invoke(cli.main, args)
    return {"args": args, "exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


class TestGolden:
    """Recorded stdout, stderr and exit code of a fixed command set.

    Rewrite the file after an intended output change with
    `PYTHONPATH=src python tests/test_cli.py`.
    """

    @pytest.mark.parametrize(
        "case", json.loads(GOLDEN.read_text(encoding="utf-8")), ids=lambda case: " ".join(case["args"])
    )
    def test_replay(self, case):
        assert _capture(case["args"]) == case


if __name__ == "__main__":
    cases = [_capture(case["args"]) for case in json.loads(GOLDEN.read_text(encoding="utf-8"))]
    GOLDEN.write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
