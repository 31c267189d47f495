"""Benchmark of record for tmode.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads: closed-form, verify, monte-carlo, cli (see workloads.py and
README.md in this directory). Each runs as a closed loop with one client
in one process. With --trace 0 the run times the loop for --seconds and
prints every end-to-end metric; with --trace 1 it runs a fixed number of
passes untraced, then the same passes with span tracing installed, and
prints every per-layer metric and the tracing overhead. Every output is
checked outside the timed region. The last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload briefly in both modes and checks that every
metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import argparse
import array
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "tmode" / "__init__.py").is_file():
    sys.exit(f"perfbench: no tmode sources under {ROOT / 'src'}; run from a tmode checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import workloads  # noqa: E402  (needs src/ on the path)

END_TO_END = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "call_p50_us": "us",
    "call_p99_us": "us",
    "verify_s": "s",
    "draws_per_s": "1/s",
    "peak_mib": "MiB",
    "cli_p50_ms": "ms",
    "cli_p90_ms": "ms",
    "wrong_frac": "ratio",
}
TRACED_FUNCTIONS = {
    "specfun": ("log_gamma", "digamma", "reg_inc_beta", "reg_lower_inc_gamma"),
    "tdist": ("log_mode_value", "mode_value", "log_density", "radial_moment"),
    "ballprob": ("ball_prob", "ball_prob_quadrature", "table1"),
    "monotone": ("classify_monotonicity", "dlog_mode_value", "induction_step_check", "mode_value_even_product"),
    "mcoracle": ("next_uint64", "next_uniform", "next_normal", "next_gamma", "estimate"),
}
PER_LAYER = {}
for _layer, _names in TRACED_FUNCTIONS.items():
    for _name in _names:
        PER_LAYER[f"{_layer}.{_name}.calls"] = "count"
        PER_LAYER[f"{_layer}.{_name}.self_s"] = "s"
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update(
    {
        "mcoracle.words": "count",
        "mcoracle.gamma_accept_ratio": "ratio",
        "mcoracle.bytes_computed": "B",
        "cli.interp_s": "s",
        "cli.import_s": "s",
        "cli.numpy_import_s": "s",
        "cli.command_s": "s",
        "cli.stdout_bytes": "B",
        "cli.exit_nonzero": "count",
        "trace.untraced_s": "s",
        "trace.traced_s": "s",
        "trace.overhead_s": "s",
    }
)

SETUP_PROBES = 5
# traced passes are capped so the in-memory spans stay small (a verify
# pass makes about 50k spans)
TRACE_PASSES = 5
OUT_DIR = ROOT / ".perfbench"


# ------------------------------------------------------------------ helpers


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an already sorted sequence."""
    return float(sorted_values[min(len(sorted_values) - 1, max(0, math.ceil(q * len(sorted_values)) - 1))])


def wilson_upper(failed: int, attempted: int, z: float = 1.6448536269514722) -> float:
    """One-sided 95% upper confidence bound on a failure fraction (never 0)."""
    n = attempted
    p = failed / n
    centre = p + z * z / (2 * n)
    margin = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return (centre + margin) / (1 + z * z / n)


def same(a, b) -> bool:
    """Bit-for-bit equality of two op results (floats by repr, errors by type and text)."""
    return type(a) is type(b) and repr(a) == repr(b)


def environment() -> dict:
    git = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        git = proc.stdout.strip() or "none"
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_commit": git,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "click": importlib.metadata.version("click"),
        "mpmath": importlib.metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# a Lanczos-style rational sum and a long tuple sweep: interpreted float
# arithmetic like the library's own loops (log-gamma series, the k = 500
# sums of squares), but none of its code (a library change must not move
# the kernel). It tracks the library's speed through the host's fast and
# slow phases better than libm-bound calls do.
_LANCZOS = (
    (676.5203681218851, 1.0), (-1259.1392167224028, 2.0), (771.32342877765313, 3.0),
    (-176.61502916214059, 4.0), (12.507343278686905, 5.0), (-0.13857109526572012, 6.0),
    (9.9843695780195716e-6, 7.0), (1.5056327351493116e-7, 8.0),
)
_SWEEP = tuple(0.001 * i for i in range(500))


def _python_kernel() -> int:
    t0 = time.perf_counter_ns()
    acc = 0.0
    for i in range(1, 120):
        x = i * 0.37
        s = 0.99999999999980993
        for c, g in _LANCZOS:
            s += c / (x + g)
        acc += s * 1e-9 + math.log(x)
    for c in _SWEEP:
        acc += c * c
    return time.perf_counter_ns() - t0


_KERNEL_IN = np.arange(262_144, dtype=np.float64)
_KERNEL_OUT = np.empty_like(_KERNEL_IN)


def _numpy_kernel() -> int:
    t0 = time.perf_counter_ns()
    np.multiply(_KERNEL_IN, 1.0001, out=_KERNEL_OUT)
    np.add(_KERNEL_OUT, 1.0, out=_KERNEL_OUT)
    np.sqrt(_KERNEL_OUT, out=_KERNEL_OUT)
    float(_KERNEL_OUT.sum())
    return time.perf_counter_ns() - t0


def _spawn_kernel() -> int:
    t0 = time.perf_counter_ns()
    subprocess.run([sys.executable, "-c", "pass"], env=workloads.CLI_ENV, check=True)
    return time.perf_counter_ns() - t0


class Gauge:
    """Host speed, from a fixed reference kernel run next to the measurements.

    The CPU speed of a shared host drifts by up to 1.5x over seconds (a
    fixed loop took 8 to 14 ms within one three-minute trace on a 2-core
    VM), which would swamp any bound. Each time the benchmark reports is
    the measured time times nominal_ns / (median of the kernel's last
    three times): seconds at a reference speed, where the scalar kernel
    takes 78 us, the numpy kernel 700 us and a bare interpreter spawn
    45 ms (measured together on that host: Intel Xeon, Python 3.11,
    numpy 2.4). The kernel matches the kind of work it scales. scale()
    reruns the kernel; loops call it at most every interval_ns.
    """

    KERNELS = {
        "python": (_python_kernel, 78_000, 50_000_000),
        "numpy": (_numpy_kernel, 700_000, 50_000_000),
        "spawn": (_spawn_kernel, 45_000_000, 500_000_000),
    }

    def __init__(self, kind: str):
        self.kernel, self.nominal_ns, self.interval_ns = self.KERNELS[kind]
        self.samples: list[int] = []
        self.scales: list[float] = []

    def scale(self) -> float:
        self.samples.append(self.kernel())
        self.scales.append(self.nominal_ns / statistics.median(self.samples[-3:]))
        return self.scales[-1]


class Loop:
    """Result of running ops as a closed loop with one client; times are scaled ns."""

    def __init__(self, n: int):
        self.latency_ns = array.array("d")
        self.pass_ns: list[float] = []
        self.first = [None] * n
        self.last = [None] * n
        self.counts = [0] * n
        self.busy_s = 0.0

    def per_op_ns(self) -> np.ndarray:
        """Sorted latencies of the distinct ops, each the median of its full-pass repetitions.

        Percentiles over these show how latency varies across the
        workload's inputs; the median over repetitions drops host jitter.
        """
        passes = len(self.pass_ns)
        n = len(self.first)
        full = np.frombuffer(self.latency_ns)[: passes * n].reshape(passes, n)
        return np.sort(np.median(full, axis=0))


def run_loop(ops: list, gauge: Gauge | None, seconds: float | None = None, passes: int | None = None, whole_passes: bool = False) -> Loop:
    """Run ops in order, pass after pass, timing each op.

    Stops once `passes` passes are done, or at the wall-clock deadline
    but never before the first pass ends (so a pass time exists);
    whole_passes defers the deadline stop to the end of a pass. Times
    are scaled by the gauge, sampled at most every 50 ms between ops;
    without a gauge they are raw.
    """
    loop = Loop(len(ops))
    clock = time.perf_counter_ns
    latency, first, last, counts = loop.latency_ns, loop.first, loop.last, loop.counts
    deadline = clock() + int(seconds * 1e9) if seconds is not None else None
    next_gauge, scale = 0, 1.0
    done = 0
    stop = False
    while not stop:
        pass_ns = 0.0
        for j, (fn, args) in enumerate(ops):
            t0 = clock()
            if gauge is not None and t0 >= next_gauge:
                scale = gauge.scale()
                t0 = clock()
                next_gauge = t0 + gauge.interval_ns
            try:
                result = fn(*args)
            except Exception as exc:  # judged by the workload's check
                result = exc
            t1 = clock()
            took = (t1 - t0) * scale
            latency.append(took)
            pass_ns += took
            if done == 0:
                first[j] = result
            last[j] = result
            counts[j] += 1
            if deadline is not None and t1 >= deadline and done > 0 and not whole_passes:
                stop = True
                break
        else:
            loop.pass_ns.append(pass_ns)
            done += 1
            stop = (passes is not None and done >= passes) or (deadline is not None and clock() >= deadline)
    loop.busy_s = sum(latency) / 1e9
    return loop


class Tally:
    """Ops checked and failed, plus breaches of bit-identical reproducibility.

    Each distinct op is counted once per loop it ran in, however often it
    repeated, so the counts depend on the seed and not on run speed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.irreproducible: list[str] = []

    def judge(self, w, ops: list, loop: Loop, label: str, verdicts: dict | None = None) -> dict:
        """Check each op that ran once; its verdict stands for every repetition.

        Returns the verdicts by op index; pass them back in to reuse them
        for a second loop over the same ops.
        """
        bad_integrity = set(w.integrity()) if label == "loop" else set()
        verdicts = dict(verdicts or {})
        for j, count in enumerate(loop.counts):
            if not count:
                continue
            result = loop.first[j]
            if count > 1:
                again = loop.last[j]
            else:
                fn, args = ops[j]
                try:
                    again = fn(*args)
                except Exception as exc:
                    again = exc
            reproducible = same(result, again) and j not in bad_integrity
            if not reproducible:
                self.irreproducible.append(f"{label} op {j}")
            if j not in verdicts:
                verdicts[j] = w.check(j, result)
            self.attempted += 1
            self.failed += 0 if reproducible and verdicts[j] else 1
        return verdicts


def cli_checker(commands: list) -> workloads.Cli:
    """A cli workload over the given commands, to check their outputs."""
    checker = workloads.Cli(0, True)
    checker.inputs = commands
    return checker


def cli_latencies(w, tally: Tally, gauge: Gauge) -> np.ndarray:
    """Five rounds of the workload's CLI requests as subprocesses; per-request scaled ns."""
    commands = w.cli_commands()[: 2 if w.small else None]
    ops = [(workloads.run_cli, (argv,)) for argv in commands]
    loop = run_loop(ops, gauge, passes=5)
    tally.judge(cli_checker(commands), ops, loop, "cli probe")
    return loop.per_op_ns()


def peak_mib(ops: list) -> float:
    """Largest traced-memory peak of a single op, over one pass.

    Each op runs twice and only the second run counts, so one-off
    allocations (caches, refilled free lists) drop out and the peak is
    the op's steady state.
    """
    peak = 0
    tracemalloc.start()
    try:
        for fn, args in ops:
            for measured in (False, True):
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                try:
                    fn(*args)
                except Exception:
                    pass  # outputs are judged by the timed loop's checks
                if measured:
                    peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def measure_setup(args, gauge: Gauge) -> tuple[float, set]:
    """Median scaled seconds from spawning a fresh interpreter to its first timed op."""
    times, digests = [], set()
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload, "--seed", str(args.seed)]
    if args.small:
        command.append("--small")
    for _ in range(1 if args.small else SETUP_PROBES):
        scale = gauge.scale()
        t0 = time.monotonic()
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        record = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((record["ready"] - t0) * scale)
        digests.add(record["digest"])
    return statistics.median(times), digests


def setup_probe(w) -> None:
    ops = w.ops()
    w.warm_up(ops)
    print(json.dumps({"ready": time.monotonic(), "digest": w.digest()}))


# --------------------------------------------------------------- run modes


def timed_run(args, w) -> tuple[dict, Tally]:
    spawn_gauge, loop_gauge = Gauge("spawn"), Gauge(w.reference)
    setup_s, digests = measure_setup(args, spawn_gauge)
    tally = Tally()
    if digests != {w.digest()}:
        tally.irreproducible.append(f"input digests differ across processes: {sorted(digests)}")
    ops = w.ops()
    w.warm_up(ops)
    loop = run_loop(ops, loop_gauge, seconds=args.seconds)
    tally.judge(w, ops, loop, "loop")
    latency = loop.per_op_ns()
    points = sum(count * w.points(j, loop.first[j]) for j, count in enumerate(loop.counts) if count)
    cli_ns = latency if w.name == "cli" else cli_latencies(w, tally, spawn_gauge)
    metrics = {
        "setup_s": setup_s,
        "calls_per_s": len(loop.latency_ns) / loop.busy_s,
        "call_p50_us": percentile(latency, 0.50) / 1e3,
        "call_p99_us": percentile(latency, 0.99) / 1e3,
        "verify_s": statistics.median(loop.pass_ns) / 1e9,
        "draws_per_s": points / loop.busy_s,
        "peak_mib": peak_mib(w.inprocess_ops()),
        "cli_p50_ms": percentile(cli_ns, 0.50) / 1e6,
        "cli_p90_ms": percentile(cli_ns, 0.90) / 1e6,
        "wrong_frac": wilson_upper(tally.failed, tally.attempted),
    }
    print(f"timed loop: {len(loop.latency_ns)} ops, {len(loop.pass_ns)} full passes of {len(ops)} distinct ops")
    print(f"distinct cli requests timed: {len(cli_ns)}; setup probes: {1 if args.small else SETUP_PROBES}")
    for name, gauge in (("loop", loop_gauge), ("spawn", spawn_gauge)):
        if gauge.scales:
            q = statistics.quantiles(gauge.scales, n=4) if len(gauge.scales) > 1 else gauge.scales * 3
            print(f"time scale ({name}, {gauge.kernel.__name__}): median {statistics.median(gauge.scales):.4f}, "
                  f"quartiles {q[0]:.4f}..{q[2]:.4f} over {len(gauge.scales)} samples; raw time = reported / scale")
    return metrics, tally


def _spawn_seconds(command: list, env=None) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, env=env, check=True)
    return time.perf_counter() - t0, proc


def cli_layer(w, tally: Tally, repeats: int) -> dict:
    """Interpreter start-up, import cost and in-process command time of the CLI."""
    interp = [_spawn_seconds([sys.executable, "-c", "pass"])[0] for _ in range(repeats)]
    timed_import = "import time; t = time.perf_counter(); import tmode.cli; print(time.perf_counter() - t)"
    imports = [
        float(_spawn_seconds([sys.executable, "-c", timed_import], workloads.CLI_ENV)[1].stdout)
        for _ in range(repeats)
    ]
    numpy_us = []
    for _ in range(repeats):
        proc = _spawn_seconds([sys.executable, "-X", "importtime", "-c", "import tmode.cli"], workloads.CLI_ENV)[1]
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "numpy":
                numpy_us.append(int(fields[1]))
                break
    commands = w.cli_commands()
    ops = [(workloads.run_cli_inprocess, (argv,)) for argv in commands]
    loop = run_loop(ops, None, passes=1)
    tally.judge(cli_checker(commands), ops, loop, "cli in-process")
    outputs = [r for r in loop.first if not isinstance(r, BaseException)]
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(imports),
        "cli.numpy_import_s": statistics.median(numpy_us) / 1e6 if numpy_us else 0.0,
        "cli.command_s": loop.busy_s,
        "cli.stdout_bytes": sum(len(stdout) for _, stdout in outputs),
        "cli.exit_nonzero": sum(1 for code, _ in outputs if code != 0) + len(commands) - len(outputs),
    }


def traced_run(args, w) -> tuple[dict, Tally]:
    import spans

    tally = Tally()
    ops = w.inprocess_ops()
    w.warm_up(ops)
    untraced = run_loop(ops, None, seconds=args.seconds / 3, passes=TRACE_PASSES, whole_passes=True)
    verdicts = tally.judge(w, ops, untraced, "untraced")

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_ops = [(tracer.op(fn), op_args) for fn, op_args in w.inprocess_ops()]
        traced = run_loop(traced_ops, None, passes=len(untraced.pass_ns))
    finally:
        tracer.uninstall()
    for j in range(len(ops)):
        if not same(traced.first[j], untraced.first[j]):
            tally.irreproducible.append(f"traced op {j} differs from untraced")
    tally.judge(w, ops, traced, "traced", verdicts)

    summary = tracer.summary()
    metrics = {}
    for layer, names in TRACED_FUNCTIONS.items():
        for name in names:
            metrics[f"{layer}.{name}.calls"] = summary["calls"].get(f"{layer}.{name}", 0)
            metrics[f"{layer}.{name}.self_s"] = summary["self_s"].get(f"{layer}.{name}", 0.0)
        metrics[f"{layer}.self_s"] = sum(s for name, s in summary["self_s"].items() if name.startswith(layer + "."))
    proposed = summary["gamma_proposed"]
    metrics["mcoracle.words"] = summary["words"]
    metrics["mcoracle.gamma_accept_ratio"] = summary["gamma_accepted"] / proposed if proposed else 0.0
    metrics["mcoracle.bytes_computed"] = summary["bytes_computed"]
    metrics.update(cli_layer(w, tally, 1 if args.small else 3))
    metrics["trace.untraced_s"] = untraced.busy_s
    metrics["trace.traced_s"] = traced.busy_s
    metrics["trace.overhead_s"] = traced.busy_s - untraced.busy_s

    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{w.name}-seed{args.seed}.jsonl.gz"
    tracer.write(path, {"workload": w.name, "seed": args.seed, "inputs_sha256": w.digest(), "env": environment()})
    print(f"traced {len(untraced.pass_ns)} passes of {len(ops)} ops; {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    print(f"tracing overhead: {metrics['trace.overhead_s']:.6f} s ({traced.busy_s:.6f} s traced vs {untraced.busy_s:.6f} s untraced)")
    return metrics, tally


# -------------------------------------------------------------------- smoke


def smoke() -> int:
    """Run every workload briefly in both modes; check every metric and unit is printed."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if wanted[0] != END_TO_END or wanted[1] != PER_LAYER:
        problems.append("BENCHMARK.json metric names or units differ from run.py")
    for w in spec["workloads"]:
        for trace in (0, 1):
            command = spec["command"] + ["--workload", w["name"], "--seed", "1", "--seconds", "1", "--trace", str(trace), "--small"]
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            label = f"{w['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"} or not result["correct"] or result["attempted"] < 1:
                problems.append(f"{label}: bad result header {lines[-1][:200]}")
            for name, unit in wanted[trace].items():
                metric = result["metrics"].get(name)
                if metric is None or metric.get("unit") != unit or not math.isfinite(metric.get("value", math.nan)):
                    problems.append(f"{label}: metric {name} missing or without unit {unit}")
                if not any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines[:-1]):
                    problems.append(f"{label}: metric {name} not printed with its unit")
            extra = set(result["metrics"]) - set(wanted[trace])
            if extra:
                problems.append(f"{label}: unexpected metrics {sorted(extra)}")
            print(f"smoke {label}: {len(result['metrics'])} metrics, {result['failed']} of {result['attempted']} ops failed")
    for line in problems:
        print(f"SMOKE FAIL {line}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


# --------------------------------------------------------------------- main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test: every metric printed with its unit")
    parser.add_argument("--small", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    # one CPU for this process and every process it spawns, so the speed
    # gauge runs where the measured work runs
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    w = workloads.WORKLOADS[args.workload](args.seed, args.small)
    if args.setup_probe:
        setup_probe(w)
        return 0

    metrics, tally = (traced_run if args.trace else timed_run)(args, w)
    units = PER_LAYER if args.trace else END_TO_END
    print(f"workload {w.name} seed {args.seed} trace {args.trace}")
    print(f"inputs_sha256 {w.digest()}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for line in tally.irreproducible:
        print(f"IRREPRODUCIBLE {line}")
    print(f"ops failed {tally.failed} of {tally.attempted} distinct ops checked; wrong_frac is their Wilson 95% upper bound")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    result = {
        "correct": not tally.irreproducible,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
