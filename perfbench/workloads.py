"""The four workloads: seeded inputs, the ops that run them, and the checks.

Each workload turns its seed into plain-data inputs (hashed for the run's
digest) and then into ops, pairs of (callable, args) resolved from the
tmode modules when ops() is called, so an installed tracer sees every
call. An op is one request of a closed loop with a single client.

Checks run outside the timed region. check(j, result) judges op j's
output; integrity() reruns what must be bit-identical.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np

from tmode import ballprob, cli, errors, mcoracle, monotone, tdist

SRC = Path(__file__).resolve().parent.parent / "src"
CLI_ENV = {**os.environ, "PYTHONPATH": str(SRC)}
TYPED_ERRORS = (
    errors.DomainError,
    errors.DimensionMismatchError,
    errors.MomentExistenceError,
    errors.QuadratureConvergenceError,
    errors.MonotonicityViolationError,
)


def _strata(rng: random.Random, n: int) -> list[float]:
    """n stratified uniforms on [0, 1) in random order (one per stratum)."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def _nu_text(nu: float) -> str:
    return "inf" if math.isinf(nu) else repr(nu)


def run_cli(argv: list[str]) -> tuple[int, bytes]:
    """One `python -m tmode.cli` invocation: (exit code, stdout bytes)."""
    proc = subprocess.run(
        [sys.executable, "-m", "tmode.cli", *argv],
        env=CLI_ENV,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    """The same command through cli.main in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main.main(args=list(argv), prog_name="tmode", standalone_mode=False)
    return code or 0, buf.getvalue().encode()


# ------------------------------------------------------------ CLI checking


def _options(argv: list[str]) -> dict:
    opts, i = {}, 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts.setdefault(argv[i], []).append(argv[i + 1])
            i += 2
        else:
            opts[argv[i]] = [True]
            i += 1
    return {key: (values if key == "--radius" else values[0]) for key, values in opts.items()}


def _parse_nu(text: str) -> float:
    return math.inf if text == "inf" else float(text)


def _grid(text: str, log: bool) -> list[float]:
    start, stop, count = text.split(":")
    space = np.geomspace if log else np.linspace
    return list(space(float(start), float(stop), int(count)))


def _expected_table(argv: list[str]) -> tuple[list[str], list[list]]:
    """The header and rows a command should print, from library calls."""
    command, o = argv[0], _options(argv)
    if command == "mode-value":
        k = int(o["--k"])
        nus = [_parse_nu(o["--nu"])] if "--nu" in o else _grid(o["--grid"], "--log" in o)
        return ["nu", "mode_value"], [[float(nu), tdist.mode_value(nu, k)] for nu in nus]
    if command == "density-profile":
        k = int(o["--k"])
        nus = [1.0, 2.0, 10.0, math.inf] if o["--nu"] == "all" else [_parse_nu(o["--nu"])]
        lo, hi, n = o["--axis-range"].split(":")
        rows = [
            [float(nu), float(t), math.exp(tdist.log_density(nu, k, [float(t)] + [0.0] * (k - 1)))]
            for nu in nus
            for t in np.linspace(float(lo), float(hi), int(n))
        ]
        return ["nu", "t", "density"], rows
    if command == "table1":
        rows = [
            [float(row.nu), k, p, ballprob.TABLE1_PRINTED[row.nu][j], ballprob.format_published(p, k) == ballprob.TABLE1_PRINTED[row.nu][j]]
            for row in ballprob.table1()
            for j, (k, p) in enumerate(zip(ballprob.TABLE1_DIMS, row.probs))
        ]
        return ["nu", "k", "analytic", "published", "match"], rows
    if command == "verify":
        grid = monotone.default_nu_grid(*monotone.DEFAULT_GRID_RANGE, int(o["--points"]))
        rows = []
        for k in range(1, int(o["--k-max"]) + 1):
            expected = {1: "increasing", 2: "constant"}.get(k, "decreasing")
            report = monotone.classify_monotonicity(k, grid=grid)
            if k % 2 == 0:
                rel = max(
                    abs(tdist.mode_value(nu, k) - monotone.mode_value_even_product(nu, k)) / tdist.mode_value(nu, k)
                    for nu in grid
                )
                aux, aux_ok = f"product rel {rel:.2e}", rel <= 1e-12
            elif k >= 3:
                for nu in grid:
                    monotone.induction_step_check(nu, k)
                aux, aux_ok = "induction", True
            else:
                aux, aux_ok = "-", True
            residual = report.max_derivative_residual
            ok = report.classification == expected and aux_ok and residual <= 1e-5
            rows.append([k, expected, report.classification, residual, aux, ok])
        return ["k", "expected", "classification", "max_fd_residual", "aux_check", "ok"], rows
    if command == "moments":
        nu1, nu2, k, m = _parse_nu(o["--nu1"]), _parse_nu(o["--nu2"]), int(o["--k"]), float(o["--m"])
        kurt = nu1 > 4.0 and nu2 > 4.0
        rows = [
            [dim, tdist.moment_ratio(nu1, nu2, dim, m), tdist.kurtosis_ratio(nu1, nu2, dim) if kurt else None]
            for dim in sorted({k} | set(range(1, 11)))
        ]
        return ["k", "moment_ratio", "kurtosis_ratio"], rows
    if command == "sample":
        nu, k, n, seed = _parse_nu(o["--nu"]), int(o["--k"]), int(o["--n"]), int(o["--seed"])
        batch = mcoracle.sample_t(nu, k, n, seed)
        rows = []
        for r in map(float, o["--radius"]):
            est, _ = mcoracle.estimate_ball_prob(batch, r)
            analytic = ballprob.ball_prob(nu, k, r)
            se = math.sqrt(analytic * (1.0 - analytic) / n)
            z = (est - analytic) / se if se > 0.0 else (0.0 if est == analytic else math.inf)
            rows.append([float(nu), k, n, seed, r, est, se, analytic, z])
        return ["nu", "k", "n", "seed", "radius", "estimate", "std_error", "analytic", "z"], rows
    raise ValueError(f"unknown subcommand {command!r}")


def _cell(value, fmt: str, precision: str):
    """A cell as the CLI prints it (README: sig6/full, inf as a string)."""
    if isinstance(value, float):
        value = float(value)
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if precision == "full":
            return value if fmt == "json" else repr(value)
        return float(f"{value:.6g}") if fmt == "json" else f"{value:.6g}"
    if fmt == "json":
        return value
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def cli_output_agrees(argv: list[str], stdout: bytes) -> tuple[bool, int]:
    """(stdout equals the table rebuilt from library values, rows printed)."""
    o = _options(argv)
    fmt, precision = o.get("--format", "csv"), o.get("--precision", "sig6")
    header, rows = _expected_table(argv)
    cells = [[_cell(v, fmt, precision) for v in row] for row in rows]
    if fmt == "json":
        want = {"schema_version": cli.SCHEMA_VERSION, "command": argv[0], "rows": [dict(zip(header, c)) for c in cells]}
        try:
            got = json.loads(stdout)
        except ValueError:
            return False, 0
        return got == want, len(got.get("rows", ())) if isinstance(got, dict) else 0
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *cells])
    return stdout == buf.getvalue().encode(), max(0, stdout.count(b"\n") - 1)


# --------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses set name and inputs, and define ops and checks."""

    name = ""
    # the reference kernel (run.Gauge) that scales this workload's loop times
    reference = "python"

    def __init__(self, seed: int, small: bool):
        self.rng = random.Random(seed)
        self.small = small
        self.inputs = self.generate()

    def digest(self) -> str:
        return hashlib.sha256(repr(self.inputs).encode()).hexdigest()

    def generate(self):
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, j: int, result) -> bool:
        raise NotImplementedError

    def points(self, j: int, result) -> int:
        return 1

    def warm_up(self, ops: list) -> None:
        for fn, args in ops:
            fn(*args)

    def cli_commands(self) -> list[list[str]]:
        """CLI requests of this workload's kind, for cli_p50_ms and the cli layer."""
        raise NotImplementedError

    def integrity(self) -> list[int]:
        """Ops whose same-seed rerun was not bit-identical."""
        return []

    def inprocess_ops(self) -> list:
        """Ops to trace and to measure peak memory on (in this process)."""
        return self.ops()


class ClosedForm(Workload):
    """Seeded mixed stream of scalar calls; specfun, tdist and ballprob do the work."""

    name = "closed-form"
    KS = (1, 2, 3, 4, 10, 50, 500)
    NU_RANGE = (1e-3, 1e12)
    R_RANGE = (1e-3, 1e3)
    MAX_ORDER = 8.0
    GROUPS = ("mode", "log_density", "ball_prob", "radial_moment", "ratio", "dlog_mode_value")
    MODULE = {
        "log_mode_value": tdist,
        "mode_value": tdist,
        "log_density": tdist,
        "radial_moment": tdist,
        "moment_ratio": tdist,
        "kurtosis_ratio": tdist,
        "ball_prob": ballprob,
        "dlog_mode_value": monotone,
    }

    def generate(self):
        rng = self.rng
        per_group = 40 if self.small else 680
        calls = []
        for group in self.GROUPS:
            us, ks = _strata(rng, per_group), [self.KS[i % len(self.KS)] for i in range(per_group)]
            rng.shuffle(ks)
            for i, (u, k) in enumerate(zip(us, ks)):
                # a fixed share of one in eight is the Gaussian member
                gaussian = (i // 2) % 8 == 3 and group != "dlog_mode_value"
                nu = math.inf if gaussian else _log_uniform(u, *self.NU_RANGE)
                calls.append(self._call(group, i, nu, k, u))
        rng.shuffle(calls)
        return calls

    def _call(self, group: str, i: int, nu: float, k: int, u: float) -> tuple:
        rng = self.rng
        r = _log_uniform(rng.random(), *self.R_RANGE)
        if group == "mode":
            return ("log_mode_value" if i % 2 else "mode_value", (nu, k))
        if group == "log_density":
            direction = [rng.gauss(0.0, 1.0) for _ in range(k)]
            norm = math.sqrt(math.fsum(c * c for c in direction))
            return ("log_density", (nu, k, tuple(r * c / norm for c in direction)))
        if group == "ball_prob":
            return ("ball_prob", (nu, k, r))
        if group == "radial_moment":
            return ("radial_moment", (nu, k, min(nu, self.MAX_ORDER) * rng.uniform(0.05, 0.95)))
        if group == "ratio":
            if i % 2:
                # kurtosis needs nu > 4 on both sides
                nu1 = math.inf if math.isinf(nu) else _log_uniform(u, 5.0, self.NU_RANGE[1])
                nu2 = _log_uniform(rng.random(), 5.0, self.NU_RANGE[1])
                return ("kurtosis_ratio", (nu1, nu2, k))
            nu2 = _log_uniform(rng.random(), *self.NU_RANGE)
            return ("moment_ratio", (nu, nu2, k, min(nu, nu2, self.MAX_ORDER) * rng.uniform(0.05, 0.95)))
        return ("dlog_mode_value", (nu, k))

    def ops(self):
        return [(getattr(self.MODULE[name], name), args) for name, args in self.inputs]

    def check(self, j, result):
        if isinstance(result, TYPED_ERRORS):
            return True
        import oracle

        name, args = self.inputs[j]
        return oracle.agrees(name, args, result)

    def cli_commands(self):
        # one subcommand only, so the latency percentiles never straddle two kinds
        mode = [args for name, args in self.inputs if name == "mode_value"][:6]
        return [
            ["mode-value", "--k", str(k), "--nu", _nu_text(nu), "--format", fmt, "--precision", "full"]
            for (nu, k), fmt in zip(mode, ("csv", "json") * 3)
        ]


def _product_sweep(k: int, grid: tuple) -> tuple[float, ...]:
    return tuple(monotone.mode_value_even_product(nu, k) for nu in grid)


def _induction_sweep(k: int, grid: tuple) -> tuple[tuple[float, float], ...]:
    return tuple(monotone.induction_step_check(nu, k) for nu in grid)


def _published_table() -> tuple[str, ...]:
    return tuple(
        ballprob.format_published(p, k)
        for row in ballprob.table1()
        for k, p in zip(ballprob.TABLE1_DIMS, row.probs)
    )


class Verify(Workload):
    """One pass of the paper's verification; monotone and quadrature do the work.

    An op is one check: the published table, one classification, one
    product or induction sweep over the grid, or one quadrature case.
    """

    name = "verify"
    PUBLISHED = tuple(s for nu in ballprob.TABLE1_NU for s in ballprob.TABLE1_PRINTED[nu])
    # the quadrature criterion's pool of tail weights
    NU_POOL = (0.7, 1.0, 2.5, 4.0, 10.0, 120.0, math.inf)

    def generate(self):
        rng = self.rng
        k_max = 4 if self.small else 20
        cases = [(nu, k, ballprob.TABLE1_RADIUS) for nu in ballprob.TABLE1_NU for k in ballprob.TABLE1_DIMS]
        # per tail weight of the pool, radii stratified over [0.01, 10] and
        # k = 1..6 in turn: the quadrature costs (which set the latency
        # percentiles here) then come out about the same for every seed
        per_nu = 1 if self.small else 16
        for nu in self.NU_POOL:
            offset = rng.randrange(6)
            for i in range(per_nu):
                u = (i + rng.random()) / per_nu
                cases.append((nu, 1 + (i + offset) % 6, _log_uniform(u, 0.01, 10.0)))
        return {"k_max": k_max, "grid": monotone.default_nu_grid(), "quadrature": cases}

    @functools.cached_property
    def plan(self) -> list[tuple[str, tuple]]:
        k_max, grid = self.inputs["k_max"], self.inputs["grid"]
        plan = [("table", ())]
        plan += [("classify", (k,)) for k in range(1, k_max + 1)]
        plan += [("product", (k, grid)) for k in range(2, k_max + 1, 2)]
        plan += [("induction", (k, grid)) for k in range(3, k_max + 1, 2)]
        plan += [("quadrature", case) for case in self.inputs["quadrature"]]
        return plan

    def ops(self):
        fns = {
            "table": _published_table,
            "classify": monotone.classify_monotonicity,
            "product": _product_sweep,
            "induction": _induction_sweep,
            "quadrature": ballprob.ball_prob_quadrature,
        }
        return [(fns[kind], args) for kind, args in self.plan]

    def check(self, j, result):
        kind, args = self.plan[j]
        if isinstance(result, BaseException):
            return False
        if kind == "table":
            return result == self.PUBLISHED
        if kind == "classify":
            k = args[0]
            expected = {1: "increasing", 2: "constant"}.get(k, "decreasing")
            return result.classification == expected and result.max_derivative_residual <= 1e-5
        if kind == "product":
            k, grid = args
            return all(abs(got - tdist.mode_value(nu, k)) <= 1e-12 * tdist.mode_value(nu, k) for nu, got in zip(grid, result))
        if kind == "induction":
            return all(after <= before + monotone.INDUCTION_SLACK for after, before in result)
        return abs(result.value - ballprob.ball_prob(*args)) <= 1e-8

    def points(self, j, result):
        kind = self.plan[j][0]
        return 16 if kind == "table" else 1 if kind == "quadrature" else len(self.inputs["grid"])

    def cli_commands(self):
        k_max = str(self.inputs["k_max"])
        # one subcommand only, so the latency percentiles never straddle two kinds
        return [
            ["verify", "--k-max", k_max, "--points", str(monotone.DEFAULT_GRID_POINTS), "--format", fmt, "--precision", p]
            for fmt in ("csv", "json") for p in ("sig6", "full", "sig6")
        ]


def _mc_batch(nu: float, n: int, seed: int, r: float) -> tuple:
    batch = mcoracle.sample_t(nu, MonteCarlo.K, n, seed)
    return tuple(mcoracle.estimate_ball_prob_prefixes(batch, r))


class MonteCarlo(Workload):
    """sample_t plus prefix estimates in 4 dimensions; mcoracle and numpy do the work."""

    name = "monte-carlo"
    reference = "numpy"
    K = 4

    def generate(self):
        rng = self.rng
        n = 5_000 if self.small else 250_000
        # the table's tail weights plus one below 2 (gamma shape < 1 boost)
        nus = [1.0, 2.0, 10.0, math.inf, rng.uniform(0.3, 1.9)]
        return [(nu, n, rng.getrandbits(63), _log_uniform(rng.random(), 0.1, 2.0)) for nu in nus]

    def ops(self):
        return [(_mc_batch, row) for row in self.inputs]

    def warm_up(self, ops):
        for nu, n, seed, r in self.inputs:
            _mc_batch(nu, min(n, 10_000), seed, r)

    def check(self, j, result):
        if isinstance(result, BaseException):
            return False
        nu, n, _, r = self.inputs[j]
        for k, (estimate, _) in enumerate(result, start=1):
            p = ballprob.ball_prob(nu, k, r)
            if abs(estimate - p) > 4.0 * math.sqrt(p * (1.0 - p) / n):
                return False
        return len(result) == self.K

    def points(self, j, result):
        return self.inputs[j][1]

    def integrity(self):
        bad = []
        for j, (nu, n, seed, _) in enumerate(self.inputs):
            a = mcoracle.sample_t(nu, self.K, n, seed).draws
            b = mcoracle.sample_t(nu, self.K, n, seed).draws
            if a.tobytes() != b.tobytes():
                bad.append(j)
        return bad

    def cli_commands(self):
        return [
            ["sample", "--nu", _nu_text(nu), "--k", str(self.K), "--n", str(n), "--seed", str(seed), "--radius", repr(r), "--format", fmt, "--precision", "full"]
            for (nu, n, seed, r), fmt in zip(self.inputs, ("csv", "json") * 3)
        ]


class Cli(Workload):
    """`python -m tmode.cli` invocations; interpreter start-up and imports dominate."""

    name = "cli"
    reference = "spawn"
    STYLES = (("csv", "sig6"), ("json", "full"), ("json", "sig6"), ("csv", "full"))

    def __init__(self, seed: int, small: bool):
        super().__init__(seed, small)
        self.rows: dict[int, int] = {}  # rows printed per command, filled by check()

    def generate(self):
        # sizes are fixed so every seed asks for the same amount of work;
        # the seed picks dimensions, tail weights, ranges and streams
        rng = self.rng

        def nu() -> str:
            return "inf" if rng.random() < 0.25 else repr(round(_log_uniform(rng.random(), 0.05, 1e4), 4))

        commands = []
        for log in (False, True):
            commands += [
                ["mode-value", "--k", str(rng.choice((1, 2, 3, 4, 10))), "--nu", nu()],
                ["mode-value", "--k", str(rng.randint(1, 6)), "--grid", f"{rng.uniform(0.1, 1):.3f}:{rng.uniform(10, 100):.2f}:40"]
                + (["--log"] if log else []),
                ["density-profile", "--k", str(rng.randint(1, 4)), "--nu", "all" if log else nu(), "--axis-range", f"-{rng.randint(2, 5)}:{rng.randint(2, 5)}:101"],
                ["table1"],
                ["verify", "--k-max", "6", "--points", "40"],
                ["moments", "--nu1", repr(round(rng.uniform(4.5, 50), 3)), "--nu2", "inf" if log else repr(round(rng.uniform(4.5, 50), 3)), "--k", str(rng.randint(1, 12)), "--m", str(rng.choice((1, 2, 3)))],
                ["sample", "--nu", rng.choice(["1", "2", "10", "inf", repr(round(rng.uniform(0.5, 20), 3))]), "--k", "4", "--n", "10000", "--seed", str(rng.getrandbits(32)), "--radius", f"{rng.uniform(0.1, 2):.3f}"],
            ]
        commands = commands[:7] if self.small else commands
        for j, command in enumerate(commands):
            fmt, precision = self.STYLES[j % len(self.STYLES)]
            command += ["--format", fmt, "--precision", precision]
        return commands

    def ops(self):
        return [(run_cli, (argv,)) for argv in self.inputs]

    def inprocess_ops(self):
        return [(run_cli_inprocess, (argv,)) for argv in self.inputs]

    def warm_up(self, ops):
        fn, args = ops[0]
        fn(*args)

    def check(self, j, result):
        if isinstance(result, BaseException):
            return False
        code, stdout = result
        agrees, self.rows[j] = cli_output_agrees(self.inputs[j], stdout)
        return code == 0 and agrees

    def points(self, j, result):
        return self.rows.get(j, 0)

    def cli_commands(self):
        return self.inputs


WORKLOADS = {w.name: w for w in (ClosedForm, Verify, MonteCarlo, Cli)}
