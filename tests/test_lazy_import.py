"""Each subcommand loads only the tmode modules it runs: `import tmode`
loads no submodule, `import tmode.cli` loads errors, specfun and tdist, and
every public name loads its home module on first use and is then bound in
the package. numpy stays off the import path until Monte Carlo needs it,
and a plain `import tmode` does not load dataclasses either.
Log-spaced grids are built without numpy, so their printed bytes do not
depend on its CPU dispatch."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmode
from tmode import ballprob, errors, mcoracle, monotone, specfun, tdist

SRC = Path(tmode.__file__).resolve().parent.parent

MCORACLE_NAMES = ("SampleBatch", "SplitMix64", "estimate_ball_prob", "estimate_ball_prob_prefixes", "sample_t")

# in import order, so a name one module takes from another is found at its source
HOMES = [errors, specfun, tdist, ballprob, monotone, mcoracle]

PUBLIC_NAMES = {
    "GAUSSIAN_DOF",
    "ConvergenceError",
    "DimensionMismatchError",
    "DomainError",
    "MomentExistenceError",
    "MonotonicityReport",
    "MonotonicityViolationError",
    "QuadResult",
    "QuadratureConvergenceError",
    "SampleBatch",
    "SplitMix64",
    "Table1Row",
    "ball_prob",
    "ball_prob_quadrature",
    "check_dim",
    "check_dof",
    "classify_monotonicity",
    "default_nu_grid",
    "digamma",
    "dlog_mode_value",
    "estimate_ball_prob",
    "estimate_ball_prob_prefixes",
    "format_published",
    "induction_step_check",
    "kurtosis_ratio",
    "log_density",
    "log_gamma",
    "log_gamma_ratio",
    "log_mode_value",
    "mode_value",
    "mode_value_even_product",
    "moment_ratio",
    "polygamma",
    "radial_moment",
    "reg_inc_beta",
    "reg_lower_inc_gamma",
    "sample_t",
    "table1",
    "__version__",
}

# Runs in a fresh interpreter, one command per argument; prints, after
# each step, whether numpy is loaded, after `import tmode` also whether
# dataclasses is, then which of json and click are, and last which tmode
# submodules are. It imports json itself for neither its input nor its
# output.
PROBE = """
import contextlib, io, sys
def late():
    return [name for name in ("json", "click") if name in sys.modules]
def submodules():
    return sorted(name[len("tmode."):] for name in sys.modules if name.startswith("tmode."))
seen = []
import tmode
seen.append(["import tmode", "numpy" in sys.modules, "dataclasses" in sys.modules, late(), submodules()])
import tmode.cli
seen.append(["import tmode.cli", "numpy" in sys.modules, late(), submodules()])
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tmode.cli.main(args=line.split(), prog_name="tmode", standalone_mode=False)
    seen.append([line, "numpy" in sys.modules, code or 0, late(), submodules()])
print(repr(seen))
"""

# what `import tmode.cli` loads, which every subcommand needs
EAGER = ["cli", "errors", "specfun", "tdist"]

# each subcommand and the deferred modules it loads
SUBCOMMAND_LOADS = [
    (["mode-value", "--nu", "3", "--k", "3"], []),
    (["mode-value", "--k", "2", "--grid", "0.5:20:15"], []),
    (["density-profile", "--k", "3", "--axis-range", "-2:2:9"], []),
    (["moments", "--nu1", "5", "--nu2", "10", "--k", "3", "--m", "2"], []),
    (["mode-value", "--k", "3"], ["monotone"]),
    (["mode-value", "--k", "2", "--grid", "0.5:20:15", "--log"], ["monotone"]),
    (["verify", "--k-max", "3", "--points", "20"], ["monotone"]),
    (["table1"], ["ballprob"]),
    (["table1", "--n-mc", "100"], ["ballprob", "mcoracle"]),
    (["sample", "--nu", "3", "--k", "2", "--n", "100", "--seed", "1"], ["ballprob", "mcoracle"]),
]

NUMPY_FREE = [
    ["mode-value", "--nu", "3", "--k", "3"],
    ["mode-value", "--k", "2", "--grid", "0.5:20:15"],
    ["density-profile", "--k", "3", "--axis-range", "-2:2:9"],
    ["table1"],
    ["verify", "--k-max", "3", "--points", "20"],
    ["moments", "--nu1", "5", "--nu2", "10", "--k", "3", "--m", "2"],
    ["mode-value", "--k", "3"],
    ["mode-value", "--k", "2", "--grid", "0.5:20:15", "--log"],
    ["verify", "--k-max", "3", "--grid", "0.1:100:10"],
]

# full-precision log-grid commands, one on the default grid
LOG_GRID_COMMANDS = [
    ["mode-value", "--k", "3", "--precision", "full"],
    ["mode-value", "--k", "1", "--grid", "0.1:100:50", "--log", "--precision", "full"],
]


def probe(commands):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *(" ".join(argv) for argv in commands)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return ast.literal_eval(proc.stdout)


def test_numpy_free_commands_never_load_numpy():
    seen = probe(NUMPY_FREE)
    assert [step[0] for step in seen] == ["import tmode", "import tmode.cli"] + [" ".join(a) for a in NUMPY_FREE]
    assert [step for step in seen if step[1]] == []
    assert seen[0][2] is False, "import tmode loaded dataclasses"
    assert all(step[2] == 0 for step in seen[2:])
    # click is gone, and every command here prints CSV, which needs no json
    assert [step[-2] for step in seen] == [[]] * len(seen)


def test_imports_defer_ballprob_monotone_and_mcoracle():
    seen = probe([])
    assert seen[0][-1] == []
    assert seen[1][-1] == EAGER


@pytest.mark.parametrize("argv, deferred", SUBCOMMAND_LOADS, ids=[" ".join(argv) for argv, _ in SUBCOMMAND_LOADS])
def test_subcommand_loads_only_the_modules_it_runs(argv, deferred):
    seen = probe([argv])
    assert seen[-1][2] == 0
    assert seen[-1][-1] == sorted(EAGER + deferred)


def test_json_loads_only_for_json_output():
    seen = probe([["mode-value", "--k", "2", "--nu", "7", "--format", "json"]])
    assert seen[1][-2] == []
    assert seen[-1][1:-1] == [False, 0, ["json"]]


def test_sample_loads_numpy():
    seen = probe([["sample", "--nu", "3", "--k", "2", "--n", "100", "--seed", "1"]])
    assert seen[-1][1:3] == [True, 0]


def test_monte_carlo_names_resolve_to_mcoracle():
    assert tmode.sample_t is tmode.mcoracle.sample_t
    for name in MCORACLE_NAMES:
        assert name in tmode.__all__
        assert getattr(tmode, name) is getattr(mcoracle, name)


def home_object(name):
    return getattr(next(module for module in HOMES if hasattr(module, name)), name)


def test_public_names_resolve_to_their_home_modules():
    for name in tmode.__all__:
        if name != "__version__":
            assert getattr(tmode, name) is home_object(name), name
    for module in HOMES[3:]:
        assert getattr(tmode, module.__name__.rpartition(".")[2]) is module
    assert set(tmode.__all__) | {"ballprob", "monotone", "mcoracle"} <= set(dir(tmode))


def test_first_access_binds_each_name_in_the_package():
    # later lookups are dictionary hits, not calls to the module __getattr__
    for name in tmode.__all__:
        if name != "__version__":
            getattr(tmode, name)
            assert vars(tmode)[name] is home_object(name), name
    for module in HOMES:
        assert vars(tmode)[module.__name__.rpartition(".")[2]] is module


def test_public_names_are_unchanged():
    assert set(tmode.__all__) == PUBLIC_NAMES
    assert len(tmode.__all__) == len(PUBLIC_NAMES) == 39


def test_star_import_binds_all_public_names():
    namespace = {}
    exec("from tmode import *", namespace)
    assert set(tmode.__all__) <= set(namespace)
    assert namespace["sample_t"] is mcoracle.sample_t
    assert namespace["table1"] is ballprob.table1
    assert namespace["default_nu_grid"] is monotone.default_nu_grid


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        tmode.nonexistent
    assert not hasattr(tmode, "cli_main")


def _numpy_cpu_features():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_features__
    return __cpu_features__


@pytest.mark.skipif(not _numpy_cpu_features().get("X86_V4"), reason="numpy does not see X86_V4 on this CPU")
@pytest.mark.parametrize("argv", LOG_GRID_COMMANDS, ids=" ".join)
def test_log_grid_bytes_ignore_numpy_cpu_dispatch(argv):
    def stdout(**extra):
        env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
        env.update(PYTHONPATH=str(SRC), **extra)
        proc = subprocess.run(
            [sys.executable, "-m", "tmode.cli", *argv], env=env, capture_output=True, text=True, check=True
        )
        return proc.stdout

    assert stdout() == stdout(NPY_DISABLE_CPU_FEATURES="X86_V4")
