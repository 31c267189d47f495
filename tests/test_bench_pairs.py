"""Claim rules of scripts/bench_pairs.py: which parent/change pairs make a gain claimable."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

HIGHER = {"name": "draws_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
LOWER = {"name": "peak_mib", "unit": "MiB", "better": "lower", "bound": 0.25}


def side(metric, value, correct=True, failed=0):
    return {"correct": correct, "failed": failed, "metrics": {metric["name"]: value}}


def summarize(metric, parent, change):
    pairs = [{"parent": side(metric, b), "change": side(metric, c)} for b, c in zip(parent, change)]
    return bench_pairs.summarize(metric, pairs)


class TestGainClaimable:
    def test_needs_ten_pairs(self):
        assert bench_pairs.MIN_CLAIM_PAIRS == 10
        three = summarize(HIGHER, [100.0] * 3, [120.0] * 3)
        assert three["change_wins"] == 3 and not three["gain_claimable"]
        ten = summarize(HIGHER, [100.0] * 10, [120.0] * 10)
        assert ten["change_wins"] == 10 and ten["gain_claimable"]

    @pytest.mark.parametrize(
        "change, wins, claimable",
        [
            ([120.0] * 9 + [90.0], 9, True),  # 9 of 10
            ([120.0] * 9 + [100.0], 9, True),  # a tie counts for neither side
            ([120.0] * 8 + [90.0] * 2, 8, False),
            ([120.0] * 8 + [100.0] * 2, 8, False),
        ],
    )
    def test_nine_tenths_of_pairs(self, change, wins, claimable):
        got = summarize(HIGHER, [100.0] * 10, change)
        assert got["change_wins"] == wins
        assert got["parent_wins"] == change.count(90.0)
        assert got["gain_claimable"] is claimable

    def test_nine_tenths_scales_with_pairs(self):
        assert summarize(HIGHER, [100.0] * 20, [120.0] * 18 + [90.0] * 2)["gain_claimable"]
        assert not summarize(HIGHER, [100.0] * 20, [120.0] * 17 + [90.0] * 3)["gain_claimable"]

    def test_median_gain_must_exceed_parent_iqr(self):
        parent = [100.0 + 10.0 * i for i in range(10)]  # quartiles 122.5 and 167.5
        small = summarize(HIGHER, parent, [b + 1.0 for b in parent])
        assert small["change_wins"] == 10 and not small["gain_claimable"]
        assert summarize(HIGHER, parent, [b + 46.0 for b in parent])["gain_claimable"]

    def test_lower_is_better(self):
        got = summarize(LOWER, [26.7] * 10, [10.7] * 10)
        assert got["change_wins"] == 10 and got["gain_claimable"]
        assert not summarize(LOWER, [10.7] * 10, [26.7] * 10)["gain_claimable"]

    def test_equal_runs_claim_nothing(self):
        got = summarize(HIGHER, [100.0] * 10, [100.0] * 10)
        assert (got["change_wins"], got["parent_wins"], got["gain_claimable"]) == (0, 0, False)


class TestSoundRuns:
    @pytest.mark.parametrize("who", ["parent", "change"])
    def test_incorrect_run_claims_nothing(self, who):
        pairs = [{"parent": side(HIGHER, 100.0), "change": side(HIGHER, 120.0)} for _ in range(10)]
        assert bench_pairs.summarize(HIGHER, pairs)["gain_claimable"]
        pairs[3][who]["correct"] = False
        got = bench_pairs.summarize(HIGHER, pairs)
        assert got["change_wins"] == 10 and not got["gain_claimable"]

    def test_more_failed_ops_claim_nothing(self):
        pairs = [{"parent": side(HIGHER, 100.0, failed=2), "change": side(HIGHER, 120.0, failed=2)} for _ in range(10)]
        assert bench_pairs.summarize(HIGHER, pairs)["gain_claimable"]
        pairs[7]["change"]["failed"] = 3
        assert not bench_pairs.summarize(HIGHER, pairs)["gain_claimable"]
        # fewer failures than the parent's do not stand in the way
        pairs[7]["change"]["failed"] = 1
        assert bench_pairs.summarize(HIGHER, pairs)["gain_claimable"]


class TestWorseBeyondBound:
    @pytest.mark.parametrize(
        "metric, change, worse",
        [
            (HIGHER, 76.0, False),
            (HIGHER, 74.0, True),
            (LOWER, 124.0, False),
            (LOWER, 126.0, True),
        ],
    )
    def test_median_against_bound(self, metric, change, worse):
        # the bound is 0.25 of the parent's median, 100
        got = summarize(metric, [100.0] * 10, [change] * 10)
        assert got["worse_beyond_bound"] is worse
        assert not got["gain_claimable"]

    def test_uses_medians_not_single_pairs(self):
        # one far-off pair moves no median
        got = summarize(HIGHER, [100.0] * 10, [100.0] * 9 + [1.0])
        assert not got["worse_beyond_bound"]


class TestUnresolved:
    # the bound is 0.25 of the parent's median, 100; [70, 130] x 5 has quartiles 70 and 130
    WIDE = [70.0, 130.0] * 5

    @pytest.mark.parametrize(
        "metric, parent, change, unresolved",
        [
            (HIGHER, [100.0] * 10, [100.0] * 10, False),
            (HIGHER, [90.0, 110.0] * 5, [95.0, 105.0] * 5, False),  # spread 20 and 10, within 25
            (HIGHER, WIDE, [100.0] * 10, True),  # the parent's spread
            (HIGHER, [100.0] * 10, WIDE, True),  # the change's spread
            (LOWER, [100.0] * 10, WIDE, True),
            # every change run beats every parent run, however wide either spread
            (HIGHER, WIDE, [x + 61.0 for x in WIDE], False),
            (HIGHER, WIDE, [x + 60.0 for x in WIDE], True),  # 130 ties 130: not every run beats
            (LOWER, WIDE, [x - 61.0 for x in WIDE], False),
            (LOWER, WIDE, [x + 61.0 for x in WIDE], True),  # every change run loses
        ],
    )
    def test_spread_against_bound(self, metric, parent, change, unresolved):
        assert summarize(metric, parent, change)["unresolved"] is unresolved

    @pytest.mark.parametrize(
        "parent, change, unresolved",
        [
            # fixed per seed, 70 on seed 1 and 130 on seed 2: no noise, whatever the seeds' spread
            (WIDE, WIDE, False),
            (WIDE, [71.0, 129.0] * 5, False),
            # noise within seed 2: parent runs 130, 170, 130, 170, 130 have quartiles 130 and 170, 40 > 0.25 x 130
            ([70.0, 130.0, 70.0, 170.0] * 2 + [70.0, 130.0], WIDE, True),
        ],
    )
    def test_spread_within_each_seed(self, parent, change, unresolved):
        # pairs alternate between seeds 1 and 2, as the script runs them
        pairs = [
            {"seed": 1 + i % 2, "parent": side(LOWER, b), "change": side(LOWER, c)}
            for i, (b, c) in enumerate(zip(parent, change))
        ]
        got = bench_pairs.summarize(LOWER, pairs)
        assert got["unresolved"] is unresolved
        assert got["per_seed"]["1"]["parent"]["median"] == 70.0
        assert got["per_seed"]["2"]["change"]["median"] == statistics.median(change[1::2])


class TestArguments:
    @pytest.mark.parametrize("pairs", ["0", "-3"])
    def test_rejects_fewer_than_one_pair(self, monkeypatch, capsys, pairs):
        # rejected before either tree is exported or any git command runs
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: pytest.fail("exported"))
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: pytest.fail("ran a command"))
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--workload", "monte-carlo", "--parent", "HEAD~1", "--pairs", pairs])
        assert info.value.code == 2
        assert f"--pairs must be at least 1, got {pairs}" in capsys.readouterr().err

    def test_rejects_an_unknown_workload(self, monkeypatch, capsys, tmp_path):
        # rejected before either tree is exported or any git command runs, and no report is written
        (tmp_path / "BENCHMARK.json").write_text((bench_pairs.ROOT / "BENCHMARK.json").read_text())
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: pytest.fail("exported"))
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: pytest.fail("ran a command"))
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--workload", "nope", "--parent", "HEAD~1"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "--workload must be one of closed-form, verify, monte-carlo, cli, got 'nope'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json"]


    @pytest.mark.parametrize("which", ["--parent", "--change"])
    def test_rejects_an_unknown_revision(self, monkeypatch, capsys, tmp_path, which):
        # a one-commit repository stands in for this one; the revision is rejected before
        # either tree is exported, with the option named, and no report is written
        (tmp_path / "BENCHMARK.json").write_text((bench_pairs.ROOT / "BENCHMARK.json").read_text())
        for argv in (["init", "-q"], ["add", "BENCHMARK.json"], ["commit", "-q", "-m", "benchmark"]):
            subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *argv], cwd=tmp_path, check=True)
        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: pytest.fail("exported"))
        revs = {"--parent": "HEAD", "--change": "HEAD", which: "nosuchrev"}
        with pytest.raises(SystemExit) as info:
            bench_pairs.main(["--workload", "verify", *(x for item in revs.items() for x in item)])
        assert info.value.code == 2
        assert f"{which} 'nosuchrev' names no commit" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == [".git", "BENCHMARK.json"]

class TestRunOrder:
    def test_each_seed_alternates(self, monkeypatch, tmp_path):
        # no tree is exported and no benchmark runs; the report goes to tmp_path, not the repository
        spec = (bench_pairs.ROOT / "BENCHMARK.json").read_text()
        (tmp_path / "BENCHMARK.json").write_text(spec)
        metrics = {m["name"]: 1.0 for m in json.loads(spec)["end_to_end"]}
        env = {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2"}
        runs = []

        def run_once(root, command, workload, seed, seconds):
            runs.append((seed, root.name))
            return {"env": env, "correct": 1, "attempted": 1, "failed": 0, "metrics": metrics}

        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "rev")
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: subprocess.CompletedProcess(a, 0))
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
        monkeypatch.setattr(bench_pairs, "run_once", run_once)
        argv = ["--workload", "monte-carlo", "--parent", "HEAD~1", "--pairs", "4", "--seed", "5", "--seed", "13"]
        assert bench_pairs.main(argv) == 0
        assert runs[::2] == [(5, "parent"), (13, "parent"), (5, "change"), (13, "change")]
        report = json.loads((tmp_path / "BENCH_monte-carlo.json").read_text())
        for seed in (5, 13):
            assert sorted(p["first"] for p in report["pairs"] if p["seed"] == seed) == ["change", "parent"]


def run_pairs(monkeypatch, tmp_path, pairs, outcome):
    """bench_pairs.main over pairs with run_once patched; outcome(side, index) gives (value, correct, failed)."""
    spec = (bench_pairs.ROOT / "BENCHMARK.json").read_text()
    (tmp_path / "BENCHMARK.json").write_text(spec)
    env = {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2"}
    count = {"parent": 0, "change": 0}

    def run_once(root, command, workload, seed, seconds):
        value, correct, failed = outcome(root.name, count[root.name])
        count[root.name] += 1
        metrics = {m["name"]: value for m in json.loads(spec)["end_to_end"]}
        return {"env": env, "correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    monkeypatch.setattr(bench_pairs, "git", lambda *args: "rev")
    monkeypatch.setattr(bench_pairs.subprocess, "run", lambda *a, **kw: subprocess.CompletedProcess(a, 0))
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main(["--workload", "verify", "--parent", "HEAD~1", "--pairs", str(pairs)]) == 0
    return json.loads((tmp_path / "BENCH_verify.json").read_text())


class TestReport:
    def test_incorrect_change_claims_nothing(self, monkeypatch, tmp_path):
        # the change's cli_p50_ms is better in all ten pairs, but its sixth run printed correct: false
        def outcome(side, i):
            return (100.0, True, 0) if side == "parent" else (50.0, i != 5, 0)

        report = run_pairs(monkeypatch, tmp_path, 10, outcome)
        assert report["metrics"]["cli_p50_ms"]["change_wins"] == 10
        assert not any(m["gain_claimable"] for m in report["metrics"].values())

    def test_sound_change_claims(self, monkeypatch, tmp_path):
        report = run_pairs(monkeypatch, tmp_path, 10, lambda side, i: (100.0 if side == "parent" else 50.0, True, 0))
        assert report["metrics"]["cli_p50_ms"]["gain_claimable"]


class TestRunOnce:
    def test_children_write_no_bytecode(self, monkeypatch, tmp_path):
        # whatever the caller's environment says, each run starts with PYTHONDONTWRITEBYTECODE=1
        seen = {}
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"call_p50_us": {"value": 1.5}}}

        def run(argv, **kwargs):
            seen.update(kwargs, argv=argv)
            stdout = f"env {json.dumps({'cpu_model': 'cpu'})}\n{json.dumps(result)}\n"
            return subprocess.CompletedProcess(argv, 0, stdout, "")

        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        monkeypatch.setenv("BENCH_PAIRS_PROBE", "kept")
        monkeypatch.setattr(bench_pairs.subprocess, "run", run)
        got = bench_pairs.run_once(tmp_path, ["python3", "perfbench/run.py"], "verify", 3, 16)
        assert seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"
        assert seen["env"]["BENCH_PAIRS_PROBE"] == "kept"
        assert seen["cwd"] == tmp_path
        assert seen["argv"][-8:] == ["--workload", "verify", "--seed", "3", "--seconds", "16", "--trace", "0"]
        assert got["env"] == {"cpu_model": "cpu"} and got["metrics"] == {"call_p50_us": 1.5}
        assert (got["correct"], got["attempted"], got["failed"]) == (True, 3, 0)

    @pytest.mark.parametrize("returncode, stdout", [(1, "env {}\n"), (0, "env {}\n"), (0, "env {}\nnot json\n")])
    def test_failed_run_raises_with_stderr_tail(self, monkeypatch, tmp_path, returncode, stdout):
        stderr = "".join(f"line {i}\n" for i in range(30))
        done = subprocess.CompletedProcess([], returncode, stdout, stderr)
        monkeypatch.setattr(bench_pairs.subprocess, "run", lambda argv, **kw: done)
        with pytest.raises(bench_pairs.RunFailed) as info:
            bench_pairs.run_once(tmp_path, ["python3", "perfbench/run.py"], "verify", 3, 16)
        assert info.value.exit_code == returncode
        assert info.value.stderr == [f"line {i}" for i in range(10, 30)]


class TestFailedRun:
    @pytest.mark.parametrize("fails_at, finished", [(1, 0), (4, 1), (22, 10)])
    def test_report_keeps_finished_pairs(self, monkeypatch, tmp_path, capsys, fails_at, finished):
        # subprocess.run stands in for git and for every benchmark run; run fails_at exits 1, and the
        # change is faster in every finished pair, which with ten of them would be a claimable gain
        spec = (bench_pairs.ROOT / "BENCHMARK.json").read_text()
        (tmp_path / "BENCHMARK.json").write_text(spec)
        env = {"cpu_model": "cpu", "nproc": 2, "python": "3", "numpy": "2"}
        runs = []

        def run(argv, **kwargs):
            if argv[0] == "git":
                return subprocess.CompletedProcess(argv, 0)
            runs.append(kwargs["cwd"].name)
            if len(runs) == fails_at:
                return subprocess.CompletedProcess(argv, 1, "", "Traceback\nMemoryError\n")
            value = 1.0 if kwargs["cwd"].name == "parent" else 0.5
            metrics = {m["name"]: {"value": value} for m in json.loads(spec)["end_to_end"]}
            result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
            return subprocess.CompletedProcess(argv, 0, f"env {json.dumps(env)}\n{json.dumps(result)}\n", "")

        monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
        monkeypatch.setattr(bench_pairs, "git", lambda *args: "rev")
        monkeypatch.setattr(bench_pairs.subprocess, "run", run)
        monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: dest)
        assert bench_pairs.main(["--workload", "verify", "--parent", "HEAD~1", "--pairs", "12"]) == 1
        assert len(runs) == fails_at
        report = json.loads((tmp_path / "BENCH_verify.json").read_text())
        assert len(report["pairs"]) == finished
        # one seed: even pairs run the parent first, odd pairs the change
        pair, second = divmod(fails_at - 1, 2)
        side = ("parent", "change")[(second + pair) % 2]
        want = {"pair": pair, "seed": 1, "side": side, "exit_code": 1, "stderr": ["Traceback", "MemoryError"]}
        assert report["failed_run"] == want
        assert (report["host"] is None, report["metrics"] == {}) == (not finished, not finished)
        if finished:
            assert report["metrics"]["cli_p50_ms"]["change_wins"] == finished
        assert not any(m["gain_claimable"] for m in report["metrics"].values())
        assert "run failed with exit code 1" in capsys.readouterr().err
