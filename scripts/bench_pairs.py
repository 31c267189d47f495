"""Alternating parent/change runs of one benchmark workload, written to BENCH_<workload>.json.

    python3 scripts/bench_pairs.py --workload monte-carlo --parent HEAD~1 --pairs 10 --seed 3 --seed 11

The script works on the repository it sits in. The parent is the
committed tree of --parent and the change the committed tree of --change
(default HEAD). Both are exported with `git archive` into a temporary
directory (under $TMPDIR) that is removed afterwards, so only committed
files are measured and nothing is added to `.git`. A --workload that
BENCHMARK.json does not list, or a --parent or --change that names no
commit, exits 2 before anything is exported or written.

The --seed values are used in turn, one per pair, and the run order flips
after each round of seeds: pair i runs the parent first when i // (number
of seeds) is even and the change first when it is odd, so each seed
alternates between the two orders. Each run is the command in
BENCHMARK.json with `--workload W --seed S --seconds T --trace 0`, where
T is its `run_seconds`, started from its own checkout root with
PYTHONDONTWRITEBYTECODE=1, whose last stdout line is one JSON result.
Every spawn then compiles the modules it imports, as in a fresh
checkout, whatever the caller's environment says. The output holds every
run with the environment it printed (including a hash of the sources
measured), each side's median and quartiles per end-to-end metric, and per metric how many pairs each side
won (ties count for neither), whether the change won at least nine
tenths of at least ten pairs by more than the parent's interquartile
range, whether its median is worse than the parent's by more than
the bound, and whether the metric is unresolved: for some seed, either
side's interquartile range over that seed's runs is wider than the
bound's share of the parent's median for that seed, and not every change
run beats every parent run. Each seed's medians and quartiles are kept
under "per_seed", since a metric such as wrong_frac is fixed per seed
and differs between seeds. Fewer than ten pairs never make a gain
claimable: 2 of 2 or 3 of 3 wins happen by chance too often to count as
evidence. Nor does a run with `correct: false`, or a pair in which the
change failed more ops than the parent: a faster wrong answer is no gain.

A run that exits nonzero or prints no result line ends the loop: the
report keeps the pairs finished before it, records the failed run (pair,
seed, side, exit code and the last lines of its stderr) as
"failed_run", claims no gain, and the script exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILES = ("BENCHMARK.json", "perfbench")
MIN_CLAIM_PAIRS = 10
STDERR_LINES = 20


class RunFailed(Exception):
    """A benchmark run that exited nonzero or printed no result line."""

    def __init__(self, exit_code: int, stderr: list[str]):
        super().__init__(f"exit code {exit_code}")
        self.exit_code, self.stderr = exit_code, stderr


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """The committed tree of rev, unpacked under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True).stdout
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run_once(root: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    argv = [*command, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    # nothing writes bytecode into the fresh export, so every spawn compiles what it imports
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(argv, cwd=root, capture_output=True, text=True, env=env)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0:
        try:
            result = json.loads(lines[-1])
            return {
                "env": next(json.loads(line[4:]) for line in lines if line.startswith("env ")),
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {name: m["value"] for name, m in result["metrics"].items()},
            }
        except (IndexError, KeyError, TypeError, ValueError, StopIteration):
            pass  # no result line: as much a failed run as a nonzero exit
    raise RunFailed(proc.returncode, proc.stderr.splitlines()[-STDERR_LINES:])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(metric: dict, pairs: list[dict]) -> dict:
    name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
    parent = [p["parent"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    gains = [sign * (c - b) for b, c in zip(parent, change)]
    base, new = spread(parent), spread(change)
    worse = sign * (base["median"] - new["median"])
    # a metric can depend on the seed, so run-to-run noise is the spread among one seed's runs
    per_seed = {}
    for seed in dict.fromkeys(p.get("seed") for p in pairs):
        runs = [p for p in pairs if p.get("seed") == seed]
        per_seed[str(seed)] = {side: spread([p[side]["metrics"][name] for p in runs]) for side in ("parent", "change")}
    noisy = any(
        max(s["parent"]["q3"] - s["parent"]["q1"], s["change"]["q3"] - s["change"]["q1"])
        > metric["bound"] * abs(s["parent"]["median"])
        for s in per_seed.values()
    )
    return {
        "unit": metric["unit"],
        "better": metric["better"],
        "bound": metric["bound"],
        "parent": base,
        "change": new,
        "change_wins": sum(g > 0 for g in gains),
        "parent_wins": sum(g < 0 for g in gains),
        "gain_claimable": len(pairs) >= MIN_CLAIM_PAIRS
        and sum(g > 0 for g in gains) >= 0.9 * len(pairs)
        and -worse > base["q3"] - base["q1"]
        and all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
        and all(p["change"]["failed"] <= p["parent"]["failed"] for p in pairs),
        "worse_beyond_bound": worse > metric["bound"] * abs(base["median"]),
        "unresolved": noisy and not min(sign * c for c in change) > max(sign * b for b in parent),
        "per_seed": per_seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--parent", required=True, help="revision to compare against")
    parser.add_argument("--change", default="HEAD", help="revision to measure (default: HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, action="append", help="workload seed, repeatable (default: 1)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be at least 1, got {args.pairs}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        parser.error(f"--workload must be one of {', '.join(workloads)}, got {args.workload!r}")
    seconds = spec["run_seconds"]
    seeds = args.seed or [1]
    revs = {}
    for side in ("parent", "change"):
        rev = getattr(args, side)
        try:
            revs[side] = git("rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}")
        except subprocess.CalledProcessError:
            parser.error(f"--{side} {rev!r} names no commit")
    # git diff --quiet exits 1 when the trees differ; any other failure is git's own
    diff = subprocess.run(["git", "diff", "--quiet", revs["parent"], revs["change"], "--", *BENCHMARK_FILES], cwd=ROOT)
    if diff.returncode == 1:
        parser.error("the benchmark files differ between the two sides; measure both with the same benchmark")
    diff.check_returncode()
    pairs, failed_run = [], None
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        roots = {side: export(rev, Path(tmp) / side) for side, rev in revs.items()}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i // len(seeds) % 2 == 0 else ("change", "parent")
            pair = {"pair": i, "seed": seed, "first": order[0]}
            try:
                for side in order:
                    pair[side] = run_once(roots[side], spec["command"], args.workload, seed, seconds)
                    print(f"pair {i} seed {seed} {side}: " + json.dumps(pair[side]["metrics"]), flush=True)
            except RunFailed as exc:
                failed_run = {"pair": i, "seed": seed, "side": side, "exit_code": exc.exit_code, "stderr": exc.stderr}
                print(f"pair {i} seed {seed} {side}: run failed with exit code {exc.exit_code}", file=sys.stderr)
                print(*exc.stderr, sep="\n", file=sys.stderr)
                break
            pairs.append(pair)
    metrics = {m["name"]: summarize(m, pairs) for m in spec["end_to_end"]} if pairs else {}
    if failed_run is not None:
        # a loop cut short by a failed run is no evidence of a gain, however many pairs it finished
        for m in metrics.values():
            m["gain_claimable"] = False
    report = {
        "workload": args.workload,
        "parent": revs["parent"],
        "change": revs["change"],
        "seconds": seconds,
        "seeds": seeds,
        "counts_agree": all(
            (p["parent"]["attempted"], p["parent"]["failed"]) == (p["change"]["attempted"], p["change"]["failed"])
            for p in pairs
        ),
        "host": {key: pairs[0]["parent"]["env"][key] for key in ("cpu_model", "nproc", "python", "numpy")}
        if pairs
        else None,
        "failed_run": failed_run,
        "metrics": metrics,
        "pairs": pairs,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    for name, m in report["metrics"].items():
        print(
            f"{name}: parent {m['parent']['median']:.6g} change {m['change']['median']:.6g} {m['unit']}, "
            f"change won {m['change_wins']}/{len(pairs)}, claimable {m['gain_claimable']}, "
            f"worse beyond bound {m['worse_beyond_bound']}"
        )
    print(f"wrote {out.relative_to(ROOT)}")
    return 0 if failed_run is None else 1


if __name__ == "__main__":
    sys.exit(main())
