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

Each subcommand imports only the modules it runs, since a process
without valid bytecode compiles every module it imports. Every command
loads tdist, specfun and errors; ballprob loads for table1 and sample,
monotone for the log-spaced grids (mode-value --log, the default
mode-value grid, verify), numpy with mcoracle only for Monte Carlo
(sample and table1 --n-mc), and json only under --format json. The
parser is the standard library's argparse, built once per process.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

from . import __version__, tdist
from .errors import ConvergenceError, DomainError

SCHEMA_VERSION = "1"

# Default nu grid when mode-value is run without --nu or --grid.
DEFAULT_FIGURE_GRID = (0.1, 30.0, 200)


class UsageError(Exception):
    """A command line the commands cannot run; exits 2 with the usage and a one-line message."""


def _cell(value, fmt: str, precision: str):
    """One table cell: its CSV text, or its JSON value when fmt is "json"."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        text = repr(float(value)) if precision == "full" else f"{float(value):.6g}"
        return text if fmt == "csv" else float(text)
    if fmt == "json":
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def emit(fmt: str, path: str, command: str, header: list[str], rows: list[list], precision: str) -> None:
    """Write one table as fmt ("csv" or "json") to path ("-" for stdout)."""
    if fmt == "csv":
        import csv
        import io

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v, fmt, precision) for v in row])
        text = buf.getvalue()
    else:
        import json

        obj = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "rows": [
                {name: _cell(v, fmt, precision) for name, v in zip(header, row)}
                for row in rows
            ],
        }
        text = json.dumps(obj, indent=2) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write --output {path!r}: {exc.strerror}") from None
    with fh:
        fh.write(text)


def _parse_range(text: str, name: str, spelling: str) -> tuple[float, float, int]:
    """Split an option value spelled a:b:n into its two ends and its count."""
    try:
        a, b, n = text.split(":")
        return float(a), float(b), int(n)
    except ValueError:
        raise UsageError(f"{name} must look like {spelling}, got {text!r}") from None


def _linspace(a: float, b: float, n: int) -> list[float]:
    """n evenly spaced points from a to b inclusive, bit for bit numpy.linspace."""
    div = n - 1
    step = (b - a) / div
    if step == 0.0:
        # the spacing underflowed; scale each fraction by the span instead
        return [a + i / div * (b - a) for i in range(div)] + [b]
    return [a + i * step for i in range(div)] + [b]


def _parse_grid(text: str, log: bool) -> list[float] | tuple[float, ...]:
    start, stop, count = _parse_range(text, "grid", "start:stop:count")
    if not (0.0 < start < stop) or not math.isfinite(stop):
        raise UsageError(f"grid endpoints must satisfy 0 < start < stop, got {text!r}")
    if count < 2:
        raise UsageError(f"grid needs at least 2 points, got {count}")
    if not log:
        return _linspace(start, stop, count)
    from . import monotone

    return monotone.default_nu_grid(start, stop, count)


# subcommand name -> (body, options); the body maps its own options to
# (header, rows, problems), and each option is (flag, add_argument keywords)
_COMMANDS: dict = {}

# output options every subcommand takes
_SHARED_OPTIONS = (
    ("--format", dict(dest="fmt", choices=["csv", "json"], default="csv", help="Output format.")),
    ("--output", dict(default="-", help="Output path, - for stdout.")),
    (
        "--precision",
        dict(
            choices=["sig6", "full"],
            default="sig6",
            help="sig6 prints 6 significant digits; full prints shortest round-trip.",
        ),
    ),
)


def _command(name: str, *options: tuple[str, dict]):
    """Register the decorated body as subcommand name with these options."""

    def register(fn):
        _COMMANDS[name] = (fn, options + _SHARED_OPTIONS)
        return fn

    return register


@_command(
    "mode-value",
    ("--k", dict(required=True, type=int, help="Dimension.")),
    ("--nu", dict(dest="nu_text", help='Single degrees of freedom ("inf" allowed).')),
    ("--grid", dict(dest="grid_text", help="start:stop:count over degrees of freedom.")),
    ("--log", dict(dest="log_spaced", action="store_true", help="Log-space the grid.")),
)
def cmd_mode_value(k, nu_text, grid_text, log_spaced):
    """Density value at the mode, for one nu or along a grid."""
    if nu_text is not None and grid_text is not None:
        raise UsageError("give either --nu or --grid, not both")
    if log_spaced and grid_text is None:
        raise UsageError("--log only applies to --grid")
    if nu_text is not None:
        nus = [tdist.check_dof(nu_text)]
    elif grid_text is not None:
        nus = _parse_grid(grid_text, log_spaced)
    else:
        from . import monotone

        nus = monotone.default_nu_grid(*DEFAULT_FIGURE_GRID)
    return ["nu", "mode_value"], [[float(nu), tdist.mode_value(nu, k)] for nu in nus], []


@_command(
    "density-profile",
    ("--k", dict(required=True, type=int, help="Dimension.")),
    ("--nu", dict(dest="nu_text", default="all", help='Degrees of freedom, or "all" for 1, 2, 10, inf.')),
    ("--axis-range", dict(default="-5:5:401", help="a:b:n points along the first axis.")),
)
def cmd_density_profile(k, nu_text, axis_range):
    """Density along the first coordinate axis: rows of (nu, t, density)."""
    lo, hi, n = _parse_range(axis_range, "axis range", "a:b:n")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi) or n < 2:
        raise UsageError(f"axis range needs finite a < b and n >= 2, got {axis_range!r}")
    if math.isinf(hi - lo):
        raise UsageError(f"axis range span b - a overflows to inf, got {axis_range!r}")
    if nu_text.strip().lower() == "all":
        nus = [1.0, 2.0, 10.0, math.inf]
    else:
        nus = [tdist.check_dof(nu_text)]
    k = tdist.check_dim(k)  # before the points' k - 1 zeros are made
    ts = _linspace(lo, hi, n)
    rows = []
    for nu in nus:
        for t in ts:
            point = [t] + [0.0] * (k - 1)
            rows.append([float(nu), t, tdist._exp(tdist.log_density(nu, k, point))])
    return ["nu", "t", "density"], rows, []


@_command(
    "table1",
    ("--n-mc", dict(type=int, help="Add Monte Carlo columns with this many draws per row.")),
    ("--seed", dict(default=0, type=int, help="Seed for the Monte Carlo columns.")),
)
def cmd_table1(n_mc, seed):
    """Published 4x4 ball-probability table at radius 0.1.

    Exit code 0 exactly when every analytic entry matches the published
    value at printed precision. With --n-mc, empirical estimates and a
    within_4se flag are appended (informative; they do not change the
    exit code). The flag compares against 4 binomial standard errors at
    the analytic probability.
    """
    from . import ballprob

    if n_mc is not None and n_mc < 1:
        raise UsageError(f"--n-mc must be a positive integer, got {n_mc}")
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


@_command(
    "verify",
    ("--k-max", dict(required=True, type=int, help="Verify dimensions 1..K (K >= 3).")),
    ("--grid", dict(dest="grid_text", help="start:stop:count over degrees of freedom.")),
    ("--points", dict(type=int, help="Points in the default grid.")),
)
def cmd_verify(k_max, grid_text, points):
    """Check the mode-value monotonicity pattern across dimensions.

    For each k up to K: classify the sign of the nu-derivative on a grid,
    cross-check against finite differences, and corroborate with an
    independent route (closed product form for even k, the odd-dimension
    induction step for odd k >= 3). Exit 1 on any violation.
    """
    from . import monotone

    if k_max < 3:
        raise UsageError(f"--k-max must be at least 3 to cover all three regimes, got {k_max}")
    if grid_text is not None and points is not None:
        raise UsageError("give either --grid or --points, not both")
    if grid_text is not None:
        grid = _parse_grid(grid_text, log=True)
    else:
        grid = monotone.default_nu_grid(points=monotone.DEFAULT_GRID_POINTS if points is None else points)
    rows, problems = [], []
    for row, failures in monotone.verify_dimensions(k_max, grid):
        rows.append(row)
        problems += [f"violation: {line}" for line in failures]
    return list(monotone.VERIFY_COLUMNS), rows, problems


@_command(
    "moments",
    ("--nu1", dict(dest="nu1_text", required=True, help="First degrees of freedom.")),
    ("--nu2", dict(dest="nu2_text", required=True, help="Second degrees of freedom.")),
    ("--k", dict(required=True, type=int, help="Dimension for the headline row.")),
    ("--m", dict(required=True, type=float, help="Moment order.")),
)
def cmd_moments(nu1_text, nu2_text, k, m):
    """Radial-moment ratio with a dimension-independence sweep.

    Emits the requested dimension plus k = 1..10; the moment_ratio column
    must be constant across the sweep, and kurtosis_ratio appears when
    both members have more than 4 degrees of freedom.
    """
    nu1 = tdist.check_dof(nu1_text)
    nu2 = tdist.check_dof(nu2_text)
    dims = sorted({k} | set(range(1, 11)))
    have_kurtosis = nu1 > 4.0 and nu2 > 4.0
    rows = []
    for dim in dims:
        ratio = tdist.moment_ratio(nu1, nu2, dim, m)
        kurt = tdist.kurtosis_ratio(nu1, nu2, dim) if have_kurtosis else None
        rows.append([dim, ratio, kurt])
    return ["k", "moment_ratio", "kurtosis_ratio"], rows, []


@_command(
    "sample",
    ("--nu", dict(dest="nu_text", required=True, help='Degrees of freedom ("inf" allowed).')),
    ("--k", dict(required=True, type=int, help="Dimension.")),
    ("--n", dict(default=100000, type=int, help="Number of draws.")),
    ("--seed", dict(default=0, type=int, help="Stream seed; same seed, same draws.")),
    ("--radius", dict(dest="radii", action="append", type=float, help="Ball radius (repeatable; default 0.1).")),
)
def cmd_sample(nu_text, k, n, seed, radii):
    """Monte Carlo ball-probability estimates against the closed form.

    The z column is (estimate - analytic) over the binomial standard
    error at the analytic probability.
    """
    from . import ballprob, mcoracle

    nu = tdist.check_dof(nu_text)
    batch = mcoracle.sample_t(nu, k, n, seed)
    radii = radii or (0.1,)
    # ball_prob checks each radius as the estimator does, so errors come in radius order;
    # then one pass over the draws estimates every radius
    analytics = [ballprob.ball_prob(nu, k, r) for r in radii]
    rows = []
    for r, analytic, prefixes in zip(radii, analytics, mcoracle._prefix_estimates(batch, radii)):
        est = prefixes[-1][0]
        se = math.sqrt(analytic * (1.0 - analytic) / n)
        if se > 0.0:
            z = (est - analytic) / se
        else:
            z = 0.0 if est == analytic else math.inf
        rows.append([float(nu), k, n, seed, float(r), est, se, analytic, z])
    return ["nu", "k", "n", "seed", "radius", "estimate", "std_error", "analytic", "z"], rows, []


DESCRIPTION = "Mode values, ball probabilities and radial moments of isotropic multivariate Student t distributions."

# a fixed help width, so that help text does not depend on the terminal
_HelpFormatter = functools.partial(argparse.HelpFormatter, width=80)

# options that take a value, in every subcommand
_VALUE_OPTIONS = frozenset(
    flag for _, options in _COMMANDS.values() for flag, spec in options if spec.get("action") != "store_true"
)


@functools.cache
def _parser(prog: str) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The command-line parser and its subcommand parsers by name."""
    common = dict(allow_abbrev=False, formatter_class=_HelpFormatter)
    parser = argparse.ArgumentParser(prog=prog, description=DESCRIPTION, **common)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (fn, options) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=fn.__doc__.partition("\n")[0], description=fn.__doc__, **common)
        for flag, spec in options:
            if flag in _VALUE_OPTIONS and "choices" not in spec:
                spec = {"metavar": flag[2:].upper(), **spec}
            sub.add_argument(flag, **spec)
    return parser, subparsers.choices


def _attach_values(argv: list[str]) -> list[str]:
    """Spell each option that takes a value as --option=value.

    argparse reads a value that starts with "-" but is not a plain
    negative number, such as the range in --axis-range -3:4:101, as an
    option of its own; attached, it stays the option's value.
    """
    out = []
    for token in argv:
        if out and out[-1] in _VALUE_OPTIONS:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(args: list[str] | None = None, prog_name: str = "tmode", standalone_mode: bool = True) -> int:
    """Run one command line (default sys.argv[1:]) and return its exit code.

    The command emits its table, writes each problem it found to stderr
    and exits 1 if there is any. A usage or library domain error exits 2
    with the subcommand's usage and a one-line message on stderr, and
    non-convergence exits 1 with a one-line message. With
    standalone_mode the process exits with the code instead.
    """
    parser, subparsers = _parser(prog_name)
    try:
        options = vars(parser.parse_args(_attach_values(sys.argv[1:] if args is None else list(args))))
        command, fmt, output, precision = (options.pop(key) for key in ("command", "fmt", "output", "precision"))
        try:
            header, rows, problems = _COMMANDS[command][0](**options)
            emit(fmt, output, command, header, rows, precision)
        except (UsageError, DomainError) as exc:
            subparsers[command].error(str(exc))
        code = 1 if problems else 0
        for line in problems:
            print(line, file=sys.stderr)
    except ConvergenceError as exc:
        print(f"Error: {exc}", file=sys.stderr)
        code = 1
    except SystemExit as exc:  # argparse exits 0 after --help and --version, 2 on a usage error
        code = exc.code
    if standalone_mode:
        sys.exit(code)
    return code


# perfbench's in-process CLI ops call click's API, cli.main.main(args=...,
# prog_name="tmode", standalone_mode=False); this keeps that call working
main.main = main


if __name__ == "__main__":
    main()
