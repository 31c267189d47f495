"""Command-line interface.

Six subcommands: mode-value, density-profile, table1, verify, moments,
sample. Every command emits a table as CSV (RFC-4180-style quoting, LF
line endings) or JSON (one object with "schema_version", "command" and
"rows") and honors the exit-code contract: 0 all checks passed, 1 a
verification mismatch or numerical failure, 2 a usage or domain error.
Identical invocations produce byte-identical output; nothing is read
from the environment.

Degrees of freedom are spelled "inf" for the Gaussian member. Numbers
print with 6 significant digits unless --precision full is given.

numpy is imported only by the commands that need it (Monte Carlo and
log-spaced grids), so the others start without paying for it.
"""

from __future__ import annotations

import functools
import json
import math
import sys

import click

from . import __version__, ballprob, monotone, tdist
from .errors import ConvergenceError, DimensionMismatchError, DomainError, MomentExistenceError

SCHEMA_VERSION = "1"

# Default nu grid when mode-value is run without --nu or --grid.
DEFAULT_FIGURE_GRID = (0.1, 30.0, 200)

_DOMAIN_ERRORS = (DomainError, DimensionMismatchError, MomentExistenceError)


def _format_number(value: float, precision: str) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if precision == "full":
        return repr(float(value))
    return f"{float(value):.6g}"


def _cell_csv(value, precision: str) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _format_number(value, precision)
    return str(value)


def _cell_json(value, precision: str):
    if isinstance(value, float):
        text = _format_number(value, precision)
        return text if math.isinf(value) else float(text)
    return value


def emit(fmt: str, path: str, command: str, header: list[str], rows: list[list], precision: str) -> None:
    """Write one table as fmt ("csv" or "json") to path ("-" for stdout)."""
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell_csv(v, precision) for v in row])
        text = buf.getvalue()
    else:
        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "rows": [
                {name: _cell_json(v, precision) for name, v in zip(header, row)}
                for row in rows
            ],
        }
        text = json.dumps(obj, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _parse_nu(text: str) -> float:
    if text.strip().lower() in ("inf", "infinity"):
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise click.UsageError(f"cannot parse degrees of freedom {text!r}") from None
    return tdist.check_dof(value)


def _parse_range(text: str, name: str, spelling: str) -> tuple[float, float, int]:
    """Split an option value spelled a:b:n into its two ends and its count."""
    try:
        a, b, n = text.split(":")
        return float(a), float(b), int(n)
    except ValueError:
        raise click.UsageError(f"{name} must look like {spelling}, got {text!r}") from None


def _linspace(a: float, b: float, n: int) -> list[float]:
    """n evenly spaced points from a to b inclusive, bit for bit numpy.linspace."""
    div = n - 1
    step = (b - a) / div
    if step == 0.0:
        # the spacing underflowed; scale each fraction by the span instead
        return [a + i / div * (b - a) for i in range(div)] + [b]
    return [a + i * step for i in range(div)] + [b]


def _geomspace(a: float, b: float, n: int) -> list[float]:
    # numpy's power and log10 round differently from libm's on a few
    # percent of inputs, so a pure-Python port would change printed grids
    import numpy as np

    return np.geomspace(a, b, n).tolist()


def _parse_grid(text: str, log: bool) -> list[float]:
    start, stop, count = _parse_range(text, "grid", "start:stop:count")
    if not (0.0 < start < stop) or not math.isfinite(stop):
        raise click.UsageError(f"grid endpoints must satisfy 0 < start < stop, got {text!r}")
    if count < 2:
        raise click.UsageError(f"grid needs at least 2 points, got {count}")
    return (_geomspace if log else _linspace)(start, stop, count)


def _table(fn):
    """Turn fn, which maps a command's own options to (header, rows,
    problems), into a command body with the shared output options.

    The body emits the table under the command's name, writes each problem
    to stderr, and exits 1 if there is any. A library domain error exits
    2 and non-convergence exits 1, each as a one-line message.
    """

    @functools.wraps(fn)
    def command(fmt, output, precision, **options):
        try:
            header, rows, problems = fn(**options)
        except _DOMAIN_ERRORS as exc:
            raise click.UsageError(str(exc)) from exc
        except ConvergenceError as exc:
            raise click.ClickException(str(exc)) from exc
        emit(fmt, output, click.get_current_context().command.name, header, rows, precision)
        for line in problems:
            click.echo(line, err=True)
        if problems:
            raise click.exceptions.Exit(1)

    command = click.option(
        "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", help="Output format."
    )(command)
    command = click.option("--output", default="-", help="Output path, - for stdout.")(command)
    return click.option(
        "--precision",
        type=click.Choice(["sig6", "full"]),
        default="sig6",
        help="sig6 prints 6 significant digits; full prints shortest round-trip.",
    )(command)


@click.group()
@click.version_option(version=__version__)
def main():
    """Mode values, ball probabilities and radial moments of isotropic
    multivariate Student t distributions."""


@main.command("mode-value")
@click.option("--k", required=True, type=int, help="Dimension.")
@click.option("--nu", "nu_text", default=None, help='Single degrees of freedom ("inf" allowed).')
@click.option("--grid", "grid_text", default=None, help="start:stop:count over degrees of freedom.")
@click.option("--log", "log_spaced", is_flag=True, help="Log-space the grid.")
@_table
def cmd_mode_value(k, nu_text, grid_text, log_spaced):
    """Density value at the mode, for one nu or along a grid."""
    if nu_text is not None and grid_text is not None:
        raise click.UsageError("give either --nu or --grid, not both")
    if log_spaced and grid_text is None:
        raise click.UsageError("--log only applies to --grid")
    if nu_text is not None:
        nus = [_parse_nu(nu_text)]
    elif grid_text is not None:
        nus = _parse_grid(grid_text, log_spaced)
    else:
        nus = _geomspace(*DEFAULT_FIGURE_GRID)
    return ["nu", "mode_value"], [[float(nu), tdist.mode_value(nu, k)] for nu in nus], []


@main.command("density-profile")
@click.option("--k", required=True, type=int, help="Dimension.")
@click.option("--nu", "nu_text", default="all", help='Degrees of freedom, or "all" for 1, 2, 10, inf.')
@click.option("--axis-range", "axis_range", default="-5:5:401", help="a:b:n points along the first axis.")
@_table
def cmd_density_profile(k, nu_text, axis_range):
    """Density along the first coordinate axis: rows of (nu, t, density)."""
    lo, hi, n = _parse_range(axis_range, "axis range", "a:b:n")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or n < 2:
        raise click.UsageError(f"axis range needs finite a < b and n >= 2, got {axis_range!r}")
    if nu_text.strip().lower() == "all":
        nus = [1.0, 2.0, 10.0, math.inf]
    else:
        nus = [_parse_nu(nu_text)]
    ts = _linspace(lo, hi, n)
    rows = []
    for nu in nus:
        for t in ts:
            point = [t] + [0.0] * (k - 1)
            rows.append([float(nu), t, math.exp(tdist.log_density(nu, k, point))])
    return ["nu", "t", "density"], rows, []


@main.command("table1")
@click.option("--n-mc", "n_mc", default=None, type=int, help="Add Monte Carlo columns with this many draws per row.")
@click.option("--seed", default=0, type=int, help="Seed for the Monte Carlo columns.")
@_table
def cmd_table1(n_mc, seed):
    """Published 4x4 ball-probability table at radius 0.1.

    Exit code 0 exactly when every analytic entry matches the published
    value at printed precision. With --n-mc, empirical estimates and a
    within_4se flag are appended (informative; they do not change the
    exit code). The flag compares against 4 binomial standard errors at
    the analytic probability.
    """
    if n_mc is not None and n_mc < 1:
        raise click.UsageError(f"--n-mc must be a positive integer, got {n_mc}")
    header = ["nu", "k", "analytic", "published", "match"]
    if n_mc is not None:
        header += ["mc_estimate", "mc_std_error", "within_4se"]
    rows = []
    mismatches = []
    for i, row in enumerate(ballprob.table1()):
        estimates = None
        if n_mc is not None:
            from . import mcoracle

            batch = mcoracle.sample_t(row.nu, max(ballprob.TABLE1_DIMS), n_mc, seed + i)
            estimates = mcoracle.estimate_ball_prob_prefixes(batch, ballprob.TABLE1_RADIUS)
        for j, k in enumerate(ballprob.TABLE1_DIMS):
            analytic = row.probs[j]
            published = ballprob.TABLE1_PRINTED[row.nu][j]
            match = ballprob.format_published(analytic, k) == published
            if not match:
                mismatches.append(f"mismatch at nu={row.nu}, k={k}: computed {analytic!r} vs published {published}")
            out_row = [float(row.nu), k, analytic, published, match]
            if estimates is not None:
                est, _ = estimates[j]
                se_analytic = math.sqrt(analytic * (1.0 - analytic) / n_mc)
                out_row += [est, se_analytic, abs(est - analytic) <= 4.0 * se_analytic]
            rows.append(out_row)
    return header, rows, mismatches


@main.command("verify")
@click.option("--k-max", "k_max", required=True, type=int, help="Verify dimensions 1..K (K >= 3).")
@click.option("--grid", "grid_text", default=None, help="start:stop:count over degrees of freedom.")
@click.option("--points", default=None, type=int, help="Points in the default grid.")
@_table
def cmd_verify(k_max, grid_text, points):
    """Check the mode-value monotonicity pattern across dimensions.

    For each k up to K: classify the sign of the nu-derivative on a grid,
    cross-check against finite differences, and corroborate with an
    independent route (closed product form for even k, the odd-dimension
    induction step for odd k >= 3). Exit 1 on any violation.
    """
    if k_max < 3:
        raise click.UsageError(f"--k-max must be at least 3 to cover all three regimes, got {k_max}")
    if grid_text is not None and points is not None:
        raise click.UsageError("give either --grid or --points, not both")
    if grid_text is not None:
        grid = _parse_grid(grid_text, log=True)
    else:
        grid = monotone.default_nu_grid(points=monotone.DEFAULT_GRID_POINTS if points is None else points)
    rows, problems = [], []
    for k in range(1, k_max + 1):
        row, failures = monotone.verify_dimension(k, grid)
        rows.append(row)
        problems += [f"violation: {line}" for line in failures]
    return list(monotone.VERIFY_COLUMNS), rows, problems


@main.command("moments")
@click.option("--nu1", "nu1_text", required=True, help="First degrees of freedom.")
@click.option("--nu2", "nu2_text", required=True, help="Second degrees of freedom.")
@click.option("--k", required=True, type=int, help="Dimension for the headline row.")
@click.option("--m", required=True, type=float, help="Moment order.")
@_table
def cmd_moments(nu1_text, nu2_text, k, m):
    """Radial-moment ratio with a dimension-independence sweep.

    Emits the requested dimension plus k = 1..10; the moment_ratio column
    must be constant across the sweep, and kurtosis_ratio appears when
    both members have more than 4 degrees of freedom.
    """
    nu1 = _parse_nu(nu1_text)
    nu2 = _parse_nu(nu2_text)
    dims = sorted({k} | set(range(1, 11)))
    have_kurtosis = nu1 > 4.0 and nu2 > 4.0
    rows = []
    for dim in dims:
        ratio = tdist.moment_ratio(nu1, nu2, dim, m)
        kurt = tdist.kurtosis_ratio(nu1, nu2, dim) if have_kurtosis else None
        rows.append([dim, ratio, kurt])
    return ["k", "moment_ratio", "kurtosis_ratio"], rows, []


@main.command("sample")
@click.option("--nu", "nu_text", required=True, help='Degrees of freedom ("inf" allowed).')
@click.option("--k", required=True, type=int, help="Dimension.")
@click.option("--n", default=100000, type=int, help="Number of draws.")
@click.option("--seed", default=0, type=int, help="Stream seed; same seed, same draws.")
@click.option("--radius", "radii", multiple=True, type=float, help="Ball radius (repeatable; default 0.1).")
@_table
def cmd_sample(nu_text, k, n, seed, radii):
    """Monte Carlo ball-probability estimates against the closed form.

    The z column is (estimate - analytic) over the binomial standard
    error at the analytic probability.
    """
    from . import mcoracle

    nu = _parse_nu(nu_text)
    batch = mcoracle.sample_t(nu, k, n, seed)
    rows = []
    for r in radii or (0.1,):
        est, _ = mcoracle.estimate_ball_prob(batch, r)
        analytic = ballprob.ball_prob(nu, k, r)
        se = math.sqrt(analytic * (1.0 - analytic) / n)
        if se > 0.0:
            z = (est - analytic) / se
        else:
            z = 0.0 if est == analytic else math.inf
        rows.append([float(nu), k, n, seed, float(r), est, se, analytic, z])
    return ["nu", "k", "n", "seed", "radius", "estimate", "std_error", "analytic", "z"], rows, []


if __name__ == "__main__":
    main()
