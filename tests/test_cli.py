import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_ke import io
from conic_ke.bergman import partial_c0_scan
from conic_ke.cli import main
from conic_ke.geometry import (
    Grid,
    RadialKahlerPotential,
    cone_mu,
    football_potential,
    fubini_study_potential,
)
from conic_ke.io import (
    FMT,
    format_number,
    potential_table,
    read_manifest,
    read_potential_csv,
    write_csv,
    write_manifest,
)
from conic_ke.ma_solver import (
    build_twist,
    ricci_lower_bound_margin,
    smoothing_family,
    solve_ma,
    two_sided_bound_check,
)
from conic_ke.numerics import CUMULATIVE_MIN_NODES


def run(*argv):
    return main([str(a) for a in argv])


def hash_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def hash_outputs(out_dir):
    manifest = read_manifest(out_dir / "manifest.json")
    return {name: hash_file(out_dir / name) for name in manifest["outputs"]}


def child_stdout(*args, **extra_env):
    """What `python args` prints in a fresh process that imports conic_ke
    from src, with `extra_env` added; it must exit 0.  The child's
    environment drops the OPENBLAS_NUM_THREADS that importing conic_ke.cli
    into this process set, so it sees the CLI's own default."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **extra_env)
    return subprocess.run([sys.executable, *map(str, args)], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_solve_trivial(tmp_path, capsys):
    out = tmp_path / "s"
    assert run("solve", "--beta", 1, "--delta", 1, "--tau", 1, "--out", out) == 0
    phi = np.loadtxt(out / "phi.csv", delimiter=",", skiprows=1)[:, 1]
    assert np.max(np.abs(phi)) < 1e-9
    manifest = read_manifest(out / "manifest.json")
    for name in manifest["outputs"]:
        assert (out / name).stat().st_size > 0
    # the Newton outcome printed on stdout is recorded in the manifest
    summary = capsys.readouterr().out
    assert summary == (f"solve: residual={format_number(manifest['residual'])} "
                       f"iterations={manifest['iterations']}\n")
    assert 0.0 <= manifest["residual"] < 1e-11


def test_solve_football_oracle(tmp_path):
    out = tmp_path / "fb"
    assert run("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.75,
               "--out", out) == 0
    pot = read_potential_csv(out / "solution.csv")
    oracle = football_potential(pot.grid, 0.75)
    assert np.max(np.abs(pot.phi_doubleprime - oracle.phi_doubleprime)) < 1e-8


def test_solve_invalid_config(tmp_path, capsys):
    code = run("solve", "--beta", 0.2, "--delta", 0, "--tau", 0.9,
               "--out", tmp_path / "bad")
    assert code == 1
    assert "error:" in capsys.readouterr().err


TAU_BETA = 0.8
TAU_MU = cone_mu(TAU_BETA)


@pytest.mark.parametrize("tau, accepted, form", [
    (TAU_MU + 5e-16, True, "plain"), (TAU_MU + 3e-15, False, "plain"),
    (-1e-300, False, "plain"), (math.nan, False, "plain"), (-1e-300, False, "equals"),
], ids=["mu-plus-5e-16", "mu-plus-3e-15", "minus-1e-300", "nan", "minus-1e-300-equals"])
def test_tau_range_same_in_cli_and_library(tmp_path, capsys, tau, accepted, form):
    # `solve --tau` and `solve_ma` accept and reject the same tau, and
    # `--tau -1e-300` is read as a value like `--tau=-1e-300`
    flag = ("--tau", tau) if form == "plain" else (f"--tau={tau}",)
    code = run("solve", "--beta", TAU_BETA, "--delta", 1e-2, *flag,
               "--grid-T", 8, "--grid-N", 129, "--out", tmp_path / "o")
    twist = build_twist(Grid(8.0, 129), TAU_BETA, 1e-2)
    if accepted:
        assert code == 0
        assert solve_ma(twist, tau).tau == tau
    else:
        assert code == 1
        assert capsys.readouterr().err.startswith(f"error: --tau {tau}: tau must lie")
        with pytest.raises(ValueError, match="tau must lie"):
            solve_ma(twist, tau)


def test_reproducible_outputs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run("solve", "--beta", 0.8, "--delta", 1e-3, "--tau", 0.5,
                   "--out", out) == 0
    assert hash_outputs(a) == hash_outputs(b)
    # manifests agree on everything except the wall clock
    ma, mb = read_manifest(a / "manifest.json"), read_manifest(b / "manifest.json")
    ma.pop("wall_clock_seconds"), mb.pop("wall_clock_seconds")
    ma["config"].pop("out"), mb["config"].pop("out")
    assert ma == mb


def test_manifest_without_wall_clock(tmp_path):
    path = tmp_path / "manifest.json"
    write_manifest(path, "solve", {"beta": 0.8}, ["phi.csv"])
    assert read_manifest(path)["wall_clock_seconds"] is None


def test_cli_import_leaves_scipy_integrate_unloaded():
    # start-up guard: importing scipy.integrate would add ~0.3 s to every command
    code = ("import conic_ke.cli, sys; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.integrate')))")
    assert child_stdout("-c", code).strip() == "[]"


_SCIPY_PROBE = """
import json, os, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
def threads():
    task = "/proc/self/task"
    return len(os.listdir(task)) if os.path.isdir(task) else None
import conic_ke.cli as cli
seen, counts = {"import": scipy_modules()}, {"import": threads()}
out, metric = sys.argv[1], sys.argv[2]
for argv in (["capacity", "--n", "1", "--eps", "0.1"],
             ["volume-scan", "--source", "football:0.6", "--grid-N", "257"],
             ["bergman-scan", "--betas", "0.7,1.0", "--ells", "2", "--grid-N", "257"],
             ["futaki", "--metric", metric],
             ["log-futaki", "--metric", metric],
             ["solve", "--beta", "0.8", "--delta", "1e-3", "--tau", "0.5",
              "--grid-N", "257"],
             ["continue-path", "--beta", "0.8", "--delta", "1e-3", "--steps", "1",
              "--grid-N", "257"]):
    assert cli.main(argv + ["--out", out + "/" + argv[0]]) == 0, argv
    seen[argv[0]], counts[argv[0]] = scipy_modules(), threads()
print(json.dumps([seen, counts]))
"""


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """(scipy modules, OS threads) of one process after each stage of
    _SCIPY_PROBE; threads are None where there is no /proc to count them."""
    tmp_path = tmp_path_factory.mktemp("probe")
    metric = tmp_path / "fb.csv"
    write_csv(metric, *potential_table(football_potential(Grid(16, 257), 0.6)))
    out = child_stdout("-c", _SCIPY_PROBE, tmp_path, metric)
    return json.loads(out.splitlines()[-1])     # after each command's summary line


def test_scipy_loaded_only_by_solves(probe):
    # start-up guard: the scipy.linalg package costs ~0.25 s, so no command may
    # load it; solves load its LAPACK extension module alone
    seen = dict(probe[0])
    assert seen.pop("solve") == seen.pop("continue-path") == ["scipy.linalg._flapack"]
    assert seen == {stage: [] for stage in ("import", "capacity", "volume-scan",
                                            "bergman-scan", "futaki", "log-futaki")}


def test_cli_process_runs_one_thread(probe):
    # numpy's and scipy's OpenBLAS each started a busy-waiting worker, so a
    # solving process ran three threads
    counts = probe[1]
    if counts["import"] is None:
        pytest.skip("no /proc to count threads")
    assert counts["solve"] == counts["continue-path"] == 1, counts


def test_cli_keeps_an_explicit_blas_thread_count():
    code = "import os, conic_ke.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert child_stdout("-c", code, OPENBLAS_NUM_THREADS="2").strip() == "2"


def test_version_and_usage_errors_leave_numpy_unloaded():
    # start-up guard: argparse answers before any library module loads numpy
    code = ("import sys, conic_ke.cli as cli\n"
            "try:\n    cli.main(['--version'])\nexcept SystemExit:\n    pass\n"
            "assert cli.main(['solve', '--beta', '0.8']) == 1\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))")
    assert child_stdout("-c", code).splitlines() == ["0.1.0", "[]"]


def test_config_flag_without_path(capsys):
    assert run("solve", "--config") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_config_file_not_an_object(tmp_path, capsys):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text("[1, 2]")
    assert run("solve", "--config", cfg_path) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


def test_jobs_env_changes_no_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("CONIC_KE_JOBS", "abc")
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert run("capacity", "--n", 1, "--eps", 0.1, "--out", tmp_path / "cap") == 0
    assert run("bergman-scan", "--betas", "1.0", "--ells", "2", "--grid-N", 257,
               "--out", tmp_path / "b") == 0
    assert "jobs" not in read_manifest(tmp_path / "b" / "manifest.json")["config"]


@pytest.mark.parametrize("argv, config", [
    (("solve", "--beta", 0.7), None),
    (("bergman-scan",), {"betas": "1.0", "grid_N": 257, "colour": "red"}),
    (("bergman-scan",), {"betas": "1.0", "grid_N": 257, "jobs": 1}),
    (("bergman-scan", "--betas", "1.0", "--grid-N", 257, "--jobs", 2), None),
    (("solve", "--beta", 0.7, "--delta", 0, "--tau", 0.7, "--grid-N", "many"), None),
], ids=["missing-flag", "unknown-config-key", "config-jobs-key", "jobs-flag", "bad-int"])
def test_usage_errors_exit_config(tmp_path, capsys, argv, config):
    # argparse would exit 2, the code of a solver failure
    if config is not None:
        (tmp_path / "cfg.json").write_text(json.dumps(config))
        argv += ("--config", tmp_path / "cfg.json")
    assert run(*argv, "--out", tmp_path / "u") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv", [("--help",), ("solve", "--help")], ids=["help", "solve-help"])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        run(*argv)
    assert exc.value.code == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("table", [
    "t,phi_prime,phi_doubleprime\n",
    "t,phi_prime,phi_doubleprime\n0,1,0.5\n",
    "t,phi_prime\n-1,0.5\n0,1\n1,1.5\n",
    # Grid's own refusals came without the file's name
    "t,phi_prime,phi_doubleprime\n-1,1,1\n-2,1,1\n-3,1,1\n",
    "t,phi_prime,phi_doubleprime\n-746,0,1\n0,1,1\n746,2,1\n",
], ids=["header-only", "one-row", "two-column", "reversed", "round-density-underflows"])
@pytest.mark.parametrize("command", ["futaki", "log-futaki"])
def test_malformed_metric_csv(tmp_path, capsys, table, command):
    metric = tmp_path / "bad.csv"
    metric.write_text(table)
    assert run(command, "--metric", metric, "--out", tmp_path / "m") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {metric}: "), err


def test_malformed_pair_items_name_their_flag(tmp_path, capsys):
    metric = tmp_path / "fb.csv"
    write_csv(metric, *potential_table(football_potential(Grid(16, 257), 0.6)))
    cases = [(("bergman-scan", "--betas", "1.0", "--ells", "2", "--grid-N", 257,
               "--density", "0.6"), "--density BETA:ELL"),
             (("bergman-scan", "--betas", "1.0", "--ells", "2", "--grid-N", 257,
               "--density", "0.6:two"), "--density BETA:ELL"),
             (("log-futaki", "--metric", metric, "--points", "zero"), "--points LOC:WEIGHT"),
             (("log-futaki", "--metric", metric, "--points", "zero:1,pole:1"),
              "--points LOC:WEIGHT")]
    for argv, flag in cases:
        assert run(*argv, "--out", tmp_path / "p") == 1, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {flag}"), err


def test_config_file_round_trip(tmp_path):
    cfg = {"beta": 0.75, "delta": 0.0, "tau": 0.75, "out": str(tmp_path / "c1")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run("solve", "--config", cfg_path) == 0
    assert run("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.75,
               "--out", tmp_path / "c2") == 0
    h1 = hash_file(tmp_path / "c1" / "solution.csv")
    h2 = hash_file(tmp_path / "c2" / "solution.csv")
    assert h1 == h2
    # the manifest echo reruns to identical outputs
    echoed = read_manifest(tmp_path / "c1" / "manifest.json")["config"]
    echoed["out"] = str(tmp_path / "c3")
    (tmp_path / "cfg2.json").write_text(json.dumps(echoed))
    assert run("solve", "--config", tmp_path / "cfg2.json") == 0
    assert hash_file(tmp_path / "c3" / "solution.csv") == h1


def test_data_files_independent_of_blas_threads(tmp_path):
    # every grid sum is one single-thread reduction (numerics.weighted_sum);
    # a BLAS dot over more than 10^4 nodes changed with the thread count
    commands = (("bergman-scan", "--betas", "0.6,1.0", "--ells", "2,8"),
                ("continue-path", "--beta", "1.0", "--delta", "0.1", "--steps", "2"))
    for k, argv in enumerate(commands):
        hashes = []
        for threads in ("1", "2"):
            out = tmp_path / f"{k}-{threads}"
            child_stdout("-m", "conic_ke.cli", *argv, "--grid-N", "10241", "--out", out,
                         OPENBLAS_NUM_THREADS=threads)
            hashes.append(hash_outputs(out))
        assert hashes[0] and hashes[0] == hashes[1], argv


def test_bergman_products_independent_of_blas_threads(tmp_path):
    # each Bergman kernel is a BLAS matrix product; at l = 64, N = 8193 it
    # is large enough for OpenBLAS to split across two threads, and here the
    # split moves no bit (at N = 32769 it can, see the next test)
    files = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        child_stdout("-m", "conic_ke.cli", "bergman-scan", "--density", "0.6:64",
                     "--grid-N", "8193", "--out", out, OPENBLAS_NUM_THREADS=threads)
        files.append([(out / name).read_bytes() for name in ("scan.csv", "density.csv")])
    assert files[0] == files[1]


def test_default_run_matches_one_blas_thread(tmp_path):
    # at two BLAS threads this cell's trace_check read 33 against
    # 32.999999999999993 at one; a default run now uses one on any machine
    argv = ("-m", "conic_ke.cli", "bergman-scan", "--betas", "0.85", "--ells", "16",
            "--grid-N", "32769", "--out")
    child_stdout(*argv, tmp_path / "default")
    child_stdout(*argv, tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    assert (tmp_path / "default" / "scan.csv").read_bytes() == \
        (tmp_path / "one" / "scan.csv").read_bytes()


def test_continue_path_echo_round_trip(tmp_path):
    # the adaptive path echoes "steps": null, which keeps --steps at its default
    assert run("continue-path", "--beta", 0.9, "--delta", 0.1, "--grid-N", 129,
               "--out", tmp_path / "p1") == 0
    echoed = read_manifest(tmp_path / "p1" / "manifest.json")["config"]
    assert echoed["steps"] is None
    echoed["out"] = str(tmp_path / "p2")
    (tmp_path / "cfg.json").write_text(json.dumps(echoed))
    assert run("continue-path", "--config", tmp_path / "cfg.json") == 0
    assert hash_outputs(tmp_path / "p2") == hash_outputs(tmp_path / "p1")


@pytest.mark.parametrize("flags, config, key, expected", [
    (("--beta", 1, "--grid-N=257"), {"grid_N": 129}, "grid_N", 257),
    (("--bet", 1, "--grid-N", 129), {"beta": 0.9}, "beta", 1.0),
], ids=["equals-form", "abbreviation"])
def test_command_line_beats_config_file(tmp_path, flags, config, key, expected):
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "o"
    assert run("solve", *flags, "--delta", 0, "--tau", 1, "--config", cfg_path,
               "--out", out) == 0
    assert read_manifest(out / "manifest.json")["config"][key] == expected


def test_exit_code_taxonomy(tmp_path, monkeypatch):
    import conic_ke.ma_solver as ma_solver
    from conic_ke.ma_solver import PathStalled, SolverError

    def raiser(exc):
        def fn(*a, **k):
            raise exc("synthetic")
        return fn

    monkeypatch.setattr(ma_solver, "solve_ma", raiser(SolverError))
    assert run("solve", "--beta", 0.8, "--delta", 1e-3, "--tau", 0.4,
               "--out", tmp_path / "x1") == 2
    monkeypatch.setattr(ma_solver, "continuity_path",
                        raiser(PathStalled))
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3,
               "--out", tmp_path / "x2") == 4


_OUT_OF_RANGE = {"beta": [0.0, 1e-17, -0.5, 1.0 + 1e-9, math.nan, math.inf],
                 "delta": [-1e-300, -0.5, math.nan, math.inf],
                 "tau": [-1e-300, -0.5, 2.0, math.nan, math.inf]}


@st.composite
def _solve_flags(draw):
    """--beta, --delta and --tau in range, or with one of them out of range."""
    beta = draw(st.floats(0.01, 1.0))
    flags = {"beta": beta,
             "delta": draw(st.one_of(st.just(0.0), st.floats(1e-8, 1.0))),
             # the smallest double is a tau the solver fails at (ROADMAP 2(e))
             "tau": draw(st.one_of(st.just(5e-324), st.floats(0.0, beta)))}
    bad = draw(st.sampled_from([None, None, "beta", "delta", "tau"]))
    if bad is not None:
        flags[bad] = draw(st.sampled_from(_OUT_OF_RANGE[bad]))
    return flags


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n=st.integers(32, 128).map(lambda k: 2 * k + 1), flags=_solve_flags())
def test_solve_exit_codes(tmp_path_factory, n, flags):
    # in range or not, a solve exits 0 with a residual within the Newton
    # tolerance, or 1 or 2 without making its output directory
    out = tmp_path_factory.mktemp("solve") / "o"
    code = run("solve", "--beta", flags["beta"], "--delta", flags["delta"],
               "--tau", flags["tau"], "--grid-N", n, "--out", out)
    assert code in (0, 1, 2)
    if code == 0:
        assert read_manifest(out / "manifest.json")["residual"] <= 1e-11
    else:
        assert not out.exists()


def test_eigen_solve_failure_exit_code(tmp_path, monkeypatch, capsys):
    import conic_ke.ma_solver as ma_solver

    def fail(diag, off):
        raise ma_solver.SolverError("synthetic eigen-solve failure")

    monkeypatch.setattr(ma_solver, "_lowest_eigenvalue", fail)
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3, "--steps", 2,
               "--grid-N", 257, "--out", tmp_path / "e") == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "synthetic eigen-solve failure" in err


def test_continue_path_checks_its_trace(tmp_path, capsys):
    # the tau = 0 row is one linear solve; on the default grid its residual
    # is above the Newton tolerance for these inputs, so the path exits 2 at
    # that row, names the residual, and makes no output directory
    for beta, delta in ((0.3, 0.0), (0.4, 1e-3)):
        out = tmp_path / f"p{beta}"
        assert run("continue-path", "--beta", beta, "--delta", delta, "--out", out) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("solver did not converge: residual ")
        assert "at tau = 0 is above the Newton tolerance 1e-11" in err


def test_solve_tau_zero_meets_the_tolerance_or_exits_2(tmp_path, capsys):
    out = tmp_path / "s"
    assert run("solve", "--beta", 0.3, "--delta", 0, "--tau", 0, "--out", out) == 2
    assert not out.exists()
    assert "at tau = 0 is above the Newton tolerance" in capsys.readouterr().err
    assert run("solve", "--beta", 0.8, "--delta", 1e-3, "--tau", 0, "--out", out) == 0
    assert read_manifest(out / "manifest.json")["residual"] <= 1e-11


def test_solve_manifest_potential_keys(tmp_path):
    out = tmp_path / "s"
    assert run("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.75,
               "--grid-N", 257, "--out", out) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["potential"].keys() == {"base_offset"}
    assert manifest["grid"]["n_nodes"] == 257


def columns_of(rows, width):
    """The columns of a list of rows of `width` cells."""
    return [[row[i] for row in rows] for i in range(width)]


def test_write_csv_matches_per_cell_format(tmp_path):
    rows = [("a", 1, True, np.int64(-7), np.float64(0.1), np.float32(0.1)),
            ("b", 2**60, False, np.int64(2**62), float("nan"), np.float32(-0.0)),
            ("c", -0.0, 5e-324, float("inf"), float("-inf"), 1.0 / 3.0)]
    expected = "x,y,z,u,v,w\n" + "".join(
        ",".join(x if isinstance(x, str) else FMT % float(x) for x in row) + "\n"
        for row in rows)
    write_csv(tmp_path / "g.csv", ["x", "y", "z", "u", "v", "w"], columns_of(rows, 6))
    assert (tmp_path / "g.csv").read_text(encoding="utf-8") == expected
    # numpy arrays of any number dtype print as their cells do
    text, *numbers = columns_of(rows, 6)
    write_csv(tmp_path / "a.csv", ["x", "y", "z", "u", "v", "w"],
              [text, *map(np.array, numbers)])
    assert (tmp_path / "a.csv").read_text(encoding="utf-8") == expected
    # a text column with a number, or a number column with text, raises
    with pytest.raises(TypeError):
        write_csv(tmp_path / "bad1.csv", ["x", "y"], [["a", 2.0], [1.0, 1.0]])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "bad2.csv", ["x", "y"], [["a", "b"], [1.0, "c"]])


def per_row_write_csv(path, header, rows):
    """The writer before whole-table formatting: one `%` per row."""
    lines = [",".join(header)]
    fmt = None
    for row in rows:
        if fmt is None:
            text_cols = [i for i, x in enumerate(row) if isinstance(x, str)]
            fmt = ",".join("%s" if isinstance(x, str) else FMT for x in row)
        if text_cols and not all(isinstance(row[i], str) for i in text_cols):
            raise TypeError(f"{path}: row {row!r} has a non-string cell in a text column")
        lines.append(fmt % tuple(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_CELLS = {
    "str": st.text(st.characters(codec="utf-8"), max_size=6),
    "int": st.integers(-2**70, 2**70),
    "float": st.floats(allow_nan=True, allow_infinity=True),
    "special": st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 5e-324]),
}


@st.composite
def _tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)), min_size=1, max_size=5))
    # "special" stays numeric, so every column keeps one cell kind (str or number)
    cols = [_CELLS[k] for k in kinds]
    return kinds, draw(st.lists(st.tuples(*cols), max_size=8))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table=_tables())
def test_write_csv_matches_per_row_writer(tmp_path_factory, table):
    kinds, rows = table
    tmp = tmp_path_factory.mktemp("csv")
    header = [f"c{i}" for i in range(len(kinds))]
    write_csv(tmp / "new.csv", header, columns_of(rows, len(kinds)))
    per_row_write_csv(tmp / "old.csv", header, rows)
    assert (tmp / "new.csv").read_bytes() == (tmp / "old.csv").read_bytes()


def test_write_csv_ragged_and_empty(tmp_path):
    with pytest.raises(TypeError):
        write_csv(tmp_path / "r.csv", ["x", "y"], [[1.0, 3.0, 4.0], [2.0, 5.0]])
    with pytest.raises(TypeError):
        write_csv(tmp_path / "r.csv", ["x", "y", "z"], [["a", "b"], [2.0, 5.0], ["c"]])
    for empty in ([], [[], []], [np.array([]), []]):
        write_csv(tmp_path / "e.csv", ["x", "y"], empty)
        assert (tmp_path / "e.csv").read_text(encoding="utf-8") == "x,y\n"


def cell_texts(cells):
    """The rows of `_format_column` cells without their padding."""
    assert cells.shape[1] == io._WIDTH
    lines = np.hstack([cells, np.full((len(cells), 1), ord("\n"), np.uint8)])
    return lines.tobytes().translate(None, b"\xff").split(b"\n")[:-1]


def _edge_doubles():
    """Named edge classes of the %.17g layout and rounding."""
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return {
        "powers of ten and one ulp off": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]),
        "layout boundaries": np.array([1e-5, 9.9999999999999991e-6, 1.0000000000000001e-5,
                                       1e-4, 9.9999999999999991e-5, 1.0000000000000002e-4,
                                       99999999999999984.0, 1e17, 1.0000000000000002e17,
                                       9999999999999998.0, 1e16, 10000000000000002.0]),
        # 18 significant digits ending in 5: round half to even decides
        "exact decimal ties": np.array([1000000000000000.25, 1000000000000000.75,
                                        100000000000000.125, 100000000000000.375,
                                        10000000000000.0625, 10000000000000.1875]),
        "subnormals": np.array([5e-324, 1e-323, 2.2250738585072009e-308,
                                2.2250738585072014e-308, 1.5e-315, 4.9e-320]),
        "zeros, infinities and NaN": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
        "integers above 2**53": np.array([2.0**53 + 2, 2.0**60, 2.0**63, 1e20 + 2**17,
                                          123456789012345678.0, 2.0**1023,
                                          1.7976931348623157e308]),
        "dyadic rationals": np.arange(-4096, 4097) / 1024.0,
    }


@pytest.mark.parametrize("case", ["random bits", *_edge_doubles()])
def test_format_column_matches_fmt(case):
    if case == "random bits":
        x = np.random.default_rng(20).integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    else:
        x = _edge_doubles()[case]
    x = np.concatenate([x, -x])
    assert cell_texts(io._format_column(x)) == [(FMT % v).encode() for v in x.tolist()]


def test_format_column_fallback_for_every_lane(monkeypatch):
    rng = np.random.default_rng(21)
    x = np.concatenate([rng.integers(0, 2**64, 20_000, dtype=np.uint64).view(np.float64),
                        *_edge_doubles().values()])
    fast = cell_texts(io._format_column(x))
    monkeypatch.setattr(io, "_LD_EPS", 1.0)          # an error bound of y or more
    calls = []
    real_fmt = io.FMT

    class CountingFormat(str):
        def __mod__(self, v):
            calls.append(v)
            return real_fmt % v
    monkeypatch.setattr(io, "FMT", CountingFormat(real_fmt))
    assert cell_texts(io._format_column(x)) == fast
    assert len(calls) == x.size


def test_potential_csv_node_column_per_grid(tmp_path):
    grids = [Grid(16, 2049), Grid(24, 1025), Grid(16, 2049)]
    for k, g in enumerate(grids):
        pot = football_potential(g, 0.7)
        write_csv(tmp_path / f"new{k}.csv", *potential_table(pot))
        per_row_write_csv(tmp_path / f"old{k}.csv", ["t", "phi_prime", "phi_doubleprime"],
                          zip(g.t.tolist(), pot.phi_prime.tolist(),
                              pot.phi_doubleprime.tolist()))
        assert (tmp_path / f"new{k}.csv").read_bytes() == \
            (tmp_path / f"old{k}.csv").read_bytes()


@pytest.mark.parametrize("steps", ["0", "-1", "-2"])
def test_continue_path_needs_a_step(tmp_path, capsys, steps):
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3, "--steps", steps,
               "--grid-N", 257, "--out", tmp_path / "p") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --steps"), err
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("argv", [
    ("solve", "--beta", 0.8, "--delta", 1e-3, "--tau", 0.5, "--grid-N", 257),
    ("continue-path", "--beta", 0.8, "--delta", 1e-3, "--steps", 2, "--grid-N", 257),
    ("smooth-family", "--beta", 0.75, "--deltas", "1e-1,1e-2", "--grid-N", 257),
    ("bergman-scan", "--betas", "0.7,1.0", "--ells", 2, "--density", "0.7:2",
     "--grid-N", 257),
    ("futaki", "--metric", None),
    ("log-futaki", "--metric", None),
    ("capacity", "--n", 1, "--eps", 0.1),
    ("volume-scan", "--source", "football:0.6", "--grid-N", 257),
], ids=lambda argv: argv[0])
def test_manifest_lists_every_written_file(tmp_path, capsys, argv):
    metric = tmp_path / "fb.csv"
    write_csv(metric, *potential_table(football_potential(Grid(16, 257), 0.6)))
    out = tmp_path / "out"
    argv = [metric if a is None else a for a in argv]
    assert run(*argv, "--out", out) == 0
    manifest = read_manifest(out / "manifest.json")
    assert manifest["outputs"] == sorted(
        p.name for p in out.iterdir() if p.name != "manifest.json")
    assert manifest["command"] == argv[0]
    stdout = capsys.readouterr().out
    assert stdout.count("\n") == 1 and stdout.startswith(f"{argv[0]}: "), stdout


def test_continue_path_one_step(tmp_path, capsys):
    out = tmp_path / "p"
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3, "--steps", 1,
               "--grid-N", 257, "--out", out) == 0
    assert "2 steps" in capsys.readouterr().out
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace.shape[0] == 2 and trace[-1, 0] == pytest.approx(0.8, abs=1e-12)


def test_continue_path_outputs(tmp_path):
    out = tmp_path / "p"
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3,
               "--grid-N", 1025, "--out", out) == 0
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(trace[:, 0]) > 0)          # tau increasing
    assert trace[-1, 0] == pytest.approx(0.8, abs=1e-12)
    assert np.all(trace[:, 3] > trace[:, 0])         # lambda1 > tau
    assert np.all(trace[:, 5] <= 1e-10)              # residuals
    steps = sorted(out.glob("step_*.csv"))
    assert len(steps) == trace.shape[0]
    header = (out / "functionals.csv").read_text().splitlines()[0]
    assert header == "tag,tau,beta,delta,J,F,linear,logterm"


def test_smooth_family_outputs(tmp_path):
    out = tmp_path / "f"
    assert run("smooth-family", "--beta", 0.75, "--deltas", "1e-1,1e-2,1e-3",
               "--grid-N", 1025, "--out", out) == 0
    fam = np.loadtxt(out / "family.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(fam[:, 1]) < 0)


@pytest.mark.parametrize("deltas", ["1.2e-1,1e-1", "1e-2,1.5e-3"])
def test_smooth_family_names_each_profile_by_its_delta(tmp_path, deltas):
    # names read solution_{delta:.0e}: 1.2e-1 and 1e-1 both wrote
    # solution_1e-01.csv (the run exited 1), and 1.5e-3 wrote solution_2e-03.csv
    out = tmp_path / "f"
    assert run("smooth-family", "--beta", 0.75, "--deltas", deltas,
               "--grid-N", 257, "--out", out) == 0
    family = np.loadtxt(out / "family.csv", delimiter=",", skiprows=1, ndmin=2)
    named = sorted(float(p.stem.removeprefix("solution_")) for p in out.glob("solution_*.csv"))
    assert named == sorted(family[:, 0].tolist())
    assert named == sorted(float(d) for d in deltas.split(","))


def test_smooth_family_margin_tables(tmp_path):
    out = tmp_path / "f"
    deltas = [1e-1, 1e-2]
    assert run("smooth-family", "--beta", 0.75, "--deltas", "1e-1,1e-2",
               "--grid-N", 1025, "--out", out) == 0
    rep = smoothing_family(0.75, deltas, Grid(16, 1025))

    def table(header, rows):
        return header + "\n" + "".join(",".join(FMT % x for x in row) + "\n" for row in rows)

    margins = [ricci_lower_bound_margin(sol) for sol in rep.solutions]
    assert (out / "margins.csv").read_text(encoding="utf-8") == table(
        "delta,min_ricci_margin,margin_route_discrepancy,newton_iters",
        [(d, m.min_margin, m.discrepancy, sol.iterations)
         for d, m, sol in zip(deltas, margins, rep.solutions)])
    b = two_sided_bound_check(rep)
    assert (out / "two_sided.csv").read_text(encoding="utf-8") == table(
        "lower_constant,upper_constant,argmin_t",
        [(b.lower_constant, b.upper_constant, b.argmin_t)])
    outputs = read_manifest(out / "manifest.json")["outputs"]
    assert {"margins.csv", "two_sided.csv"} <= set(outputs)


def test_smooth_family_margins_finite_on_a_wide_grid(tmp_path):
    # w' = (1 - e^t) / (1 + e^t) overflowed above t ~ 709 and wrote NaN margins
    out = tmp_path / "f"
    assert run("smooth-family", "--beta", 0.8, "--deltas", "1e-1", "--grid-T", 720,
               "--out", out) == 0
    row = np.loadtxt(out / "margins.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(row)), row


def test_bergman_scan_config_file(tmp_path):
    cfg = {"betas": "0.7,1.0", "ells": "2,4", "grid_N": 1025,
           "out": str(tmp_path / "bsc")}
    (tmp_path / "scan.json").write_text(json.dumps(cfg))
    assert run("bergman-scan", "--config", tmp_path / "scan.json") == 0
    rows = np.loadtxt(tmp_path / "bsc" / "scan.csv", delimiter=",", skiprows=1)
    assert rows.shape == (4, 5)
    assert np.all(rows[:, 2] > 0)


def test_bergman_scan_rows_are_partial_c0_scan(tmp_path):
    out = tmp_path / "b"
    assert run("bergman-scan", "--betas", "0.7,0.9,1.0", "--ells", "2,4",
               "--grid-N", 1025, "--out", out) == 0
    rows = partial_c0_scan([0.7, 0.9, 1.0], [2, 4], Grid(16, 1025))
    assert all(r.inf_rho > 0 for r in rows)
    expected = "beta,ell,inf_rho,sup_rho,trace_check\n" + "".join(
        ",".join(FMT % x for x in (r.beta, r.ell, r.inf_rho, r.sup_rho, r.trace_check))
        + "\n" for r in rows)
    assert (out / "scan.csv").read_text(encoding="utf-8") == expected


def test_futaki_cli(tmp_path):
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid(24, 4097))))
    out = tmp_path / "fut"
    assert run("futaki", "--metric", metric, "--out", out) == 0
    vals = np.loadtxt(out / "futaki.csv", delimiter=",", skiprows=1)
    assert abs(vals[0]) < 1e-10


def test_futaki_cli_refuses_a_lopsided_grid(tmp_path, capsys):
    # a Grid is [-T, T]: nodes from -8 to 16 are checked against [-16, 16]
    t = np.linspace(-8.0, 16.0, 2049)
    metric = tmp_path / "lopsided.csv"
    write_csv(metric, ["t", "phi_prime", "phi_doubleprime"],
              [t, 2.0 / (1.0 + np.exp(-t)), 0.5 / (1.0 + np.cosh(t))])
    assert run("futaki", "--metric", metric, "--out", tmp_path / "fut") == 1
    err = capsys.readouterr().err
    assert err == f"error: {metric}: nodes are not a uniform symmetric grid\n", err
    assert not (tmp_path / "fut").exists()


@pytest.mark.parametrize("command", ["futaki", "log-futaki"])
def test_metric_with_a_nonpositive_density_names_its_file(tmp_path, capsys, command):
    # the profile refuses Phi'' <= 0 when it is read, and the message names
    # the file and the first bad node
    fb = football_potential(Grid(16, 257), 0.6)
    pp = fb.phi_doubleprime.copy()
    pp[50] = -1e-3
    metric = tmp_path / "neg.csv"
    write_csv(metric, ["t", "phi_prime", "phi_doubleprime"], [fb.grid.t, fb.phi_prime, pp])
    assert run(command, "--metric", metric, "--out", tmp_path / "fut") == 1
    err = capsys.readouterr().err
    assert err == f"error: {metric}: metric positivity violated: Phi'' <= 0 at t = -9.75\n", err
    assert not (tmp_path / "fut").exists()


def test_futaki_cli_conic_metric(tmp_path):
    # conic profiles only support the theta route; gradient column is nan
    metric = tmp_path / "fb.csv"
    write_csv(metric, *potential_table(football_potential(Grid(), 0.6)))
    out = tmp_path / "futc"
    assert run("futaki", "--metric", metric, "--out", out) == 0
    vals = np.loadtxt(out / "futaki.csv", delimiter=",", skiprows=1)
    assert np.isnan(vals[0])
    assert abs(vals[1]) < 1e-8


@pytest.mark.parametrize("beta, delta, conic", [
    (0.97, 0.0, True), (0.6, 1e-2, False), (0.8, 1e-3, False)])
def test_futaki_cli_reads_the_cone_from_the_profile(tmp_path, beta, delta, conic):
    # a CSV carries no cone: a beta = 0.97 solution must still take the
    # theta route only, and the smoothed solutions both routes
    metric = tmp_path / "sol.csv"
    write_csv(metric, *potential_table(solve_ma(build_twist(Grid(), beta, delta), beta).potential))
    out = tmp_path / "fut"
    assert run("futaki", "--metric", metric, "--out", out) == 0
    vals = np.loadtxt(out / "futaki.csv", delimiter=",", skiprows=1)
    assert np.isnan(vals[0]) == conic and np.isfinite(vals[1])


def test_log_futaki_cli_refuses_a_non_conic_profile(tmp_path, capsys):
    # the refusal blamed --beta and --points, or --scan-config
    g = Grid()
    fs = fubini_study_potential(g)
    metric = tmp_path / "wild.csv"
    write_csv(metric, *potential_table(RadialKahlerPotential(
        g, fs.phi_prime, fs.phi_doubleprime * np.exp(0.8 * np.sin(3.0 * g.t)))))
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps({"configs": {"tear": [["infinity", 1.0]]},
                                     "betas": [0.5]}))
    for route in (("--points", "infinity:1"), ("--scan-config", scan_path)):
        assert run("log-futaki", "--metric", metric, *route, "--out", tmp_path / "lf") == 1
        assert capsys.readouterr().err == \
            f"error: --metric {metric}: non-conic asymptotics at infinity\n"
    assert not (tmp_path / "lf").exists()


def test_log_futaki_scan_refuses_points_and_beta(tmp_path, capsys):
    # --scan-config dropped an explicit --points or --beta without a word
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid(16, 257))))
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps({"configs": {"c": [["zero", 1.0]]}, "betas": [0.5]}))
    for extra, names in ((("--points", "zero:1"), ("--points", "--scan-config")),
                         (("--beta", 0.5), ("--beta 0.5", "--scan-config"))):
        assert run("log-futaki", "--metric", metric, "--scan-config", scan_path, *extra,
                   "--out", tmp_path / "lf") == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and all(name in err for name in names), err
        assert not (tmp_path / "lf").exists()


@pytest.mark.parametrize("route", [("--scan-config", "scan.json"), ("--beta", 0.5), ()],
                         ids=["scan", "points", "defaults"])
def test_log_futaki_manifest_replays(tmp_path, route):
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid(16, 257))))
    (tmp_path / "scan.json").write_text(
        json.dumps({"configs": {"c": [["zero", 1.0]]}, "betas": [0.5]}))
    route = [tmp_path / a if a == "scan.json" else a for a in route]
    assert run("log-futaki", "--metric", metric, *route, "--out", tmp_path / "a") == 0
    config = read_manifest(tmp_path / "a" / "manifest.json")["config"]
    if not route:       # the defaults are echoed as used
        assert (config["points"], config["beta"]) == ("zero:1,infinity:1", 0.7)
    config["out"] = str(tmp_path / "b")
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run("log-futaki", "--config", tmp_path / "cfg.json") == 0
    assert hash_outputs(tmp_path / "a") == hash_outputs(tmp_path / "b")


def test_log_futaki_points_table(tmp_path):
    # the form the benchmark runs: --beta and --points, no scan
    from conic_ke.stability import log_futaki
    pot = football_potential(Grid(16, 257), 0.6)
    metric = tmp_path / "fb.csv"
    write_csv(metric, *potential_table(pot))
    assert run("log-futaki", "--metric", metric, "--beta", 0.6, "--points", "infinity:1",
               "--out", tmp_path / "lf") == 0
    val = log_futaki(read_potential_csv(metric), 0.6, [("infinity", 1.0)])
    assert (tmp_path / "lf" / "log_futaki.csv").read_text(encoding="utf-8") == \
        f"beta,log_futaki\n{FMT % 0.6},{FMT % val}\n"


def test_log_futaki_cli_scan(tmp_path):
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid())))
    scan = {"configs": {"sym": [["zero", 1.0], ["infinity", 1.0]],
                        "tear": [["infinity", 2.0]]},
            "betas": [0.5, 0.8]}
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps(scan))
    out = tmp_path / "lf"
    assert run("log-futaki", "--metric", metric, "--scan-config", scan_path,
               "--out", out) == 0
    lines = (out / "obstruction.csv").read_text().splitlines()
    assert lines[0] == "config_id,beta,log_futaki,flag"
    flags = [ln.split(",")[-1] for ln in lines[1:]]
    assert flags == ["UNOBSTRUCTED", "UNOBSTRUCTED", "OBSTRUCTED", "OBSTRUCTED"]


def test_log_futaki_scan_t_location_off_the_grid(tmp_path, capsys):
    # read the end node's theta and exited 0
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid(16, 257))))
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(json.dumps({"configs": {"c": [[40.0, 1.0]]}, "betas": [0.5]}))
    assert run("log-futaki", "--metric", metric, "--scan-config", scan_path,
               "--out", tmp_path / "lf") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: --scan-config {scan_path}: t = 40 lies outside"), err
    assert not (tmp_path / "lf").exists()


@pytest.mark.parametrize("text", [
    '{"betas": [0.5]}',
    '{"configs": {"sym": [["zero", 1]]}}',
    '[1, 2]',
    '{"configs": {"sym": [["zero"]]}, "betas": [0.5]}',
    '{"configs": {"sym": [["zero", 1]]}',
], ids=["no-configs", "no-betas", "array", "point-not-a-pair", "not-json"])
def test_malformed_scan_config(tmp_path, capsys, text):
    metric = tmp_path / "fs.csv"
    write_csv(metric, *potential_table(fubini_study_potential(Grid(16, 257))))
    scan_path = tmp_path / "scan.json"
    scan_path.write_text(text)
    assert run("log-futaki", "--metric", metric, "--scan-config", scan_path,
               "--out", tmp_path / "lf") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --scan-config"), err
    assert not (tmp_path / "lf").exists()


def test_capacity_cli(tmp_path, capsys):
    out = tmp_path / "cap"
    assert run("capacity", "--n", 1, "--eps", 0.1, "--out", out) == 0
    row = np.loadtxt(out / "capacity.csv", delimiter=",", skiprows=1)
    assert row[4] <= 0.1          # energy below eps
    assert row[4] <= row[5]       # and below the closed-form bound


@pytest.mark.parametrize("delta", ["-1", "0"])
def test_capacity_manual_delta_must_be_positive(tmp_path, capsys, delta):
    # log(delta) would write nan / -inf columns and exit 0
    assert run("capacity", "--n", 1, "--eps", 0.1, "--delta", delta,
               "--out", tmp_path / "cap") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --delta"), err
    assert not (tmp_path / "cap").exists()


@pytest.mark.parametrize("argv, name", [
    (("solve", "--beta", 0.75, "--delta", "nan", "--tau", 0.5), "delta"),
    (("solve", "--beta", 0.75, "--delta", "inf", "--tau", 0.5), "delta"),
    (("smooth-family", "--beta", 0.75, "--deltas", "1e-1,nan"),
     "error: --deltas 1e-1,nan: deltas must be"),
    (("continue-path", "--beta", 0.8, "--delta", "nan"), "delta"),
    (("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.5, "--grid-T", "inf"), "--grid-T"),
    (("capacity", "--n", 1, "--eps", 0), "--eps"),
    (("capacity", "--n", 1, "--eps", "nan"), "--eps"),
    (("volume-scan", "--source", "football:0.6", "--r-max", 100), "radius"),
    (("volume-scan", "--mode", "tube", "--source", "cone:2:0.7", "--annulus", 1), "--annulus"),
    (("bergman-scan", "--betas", "1.0", "--ells", 2, "--grid-N", 257, "--density", 0.6),
     "--density"),
    (("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.5, "--grid-N", 4), "--grid-N"),
    (("smooth-family", "--beta", 0.75, "--deltas", ""), "--deltas"),
    (("bergman-scan", "--betas", "1.0,x", "--grid-N", 257), "--betas"),
    (("bergman-scan", "--betas", "1.0", "--ells", "2.5", "--grid-N", 257), "--ells"),
    (("bergman-scan", "--betas", "0.6,1.5", "--grid-N", 257), "error: --betas 1.5: "),
    (("bergman-scan", "--ells", "2,0", "--grid-N", 257), "error: --ells 0: "),
    (("bergman-scan", "--ells", 2, "--density", "0.6:0", "--grid-N", 257),
     "error: --density 0.6:0: "),
    (("solve", "--beta", 0.75, "--delta", 0, "--tau", -0.1), "error: --tau -0.1: "),
    (("solve", "--beta", 1.5, "--delta", 0, "--tau", 0.5), "error: --beta 1.5: "),
    (("continue-path", "--beta", 0, "--delta", 0.1), "error: --beta 0.0: "),
    (("solve", "--beta", 0.75, "--delta", -1, "--tau", 0.5), "error: --delta -1.0: "),
    (("solve", "--beta", 0.75, "--delta", "-1e-3", "--tau", 0.5), "error: --delta -0.001: "),
    (("solve", "--beta", 0.75, "--delta", "-inf", "--tau", 0.5), "error: --delta -inf: "),
    (("continue-path", "--beta", 0.8, "--delta", "-1E-3"), "error: --delta -0.001: "),
    (("capacity", "--n", 1, "--eps", 0.1, "--delta", "-1e-3"),
     "error: --delta must be positive"),
    (("volume-scan", "--mode", "tube", "--source", "football:0.6"),
     "error: tube mode needs --source cone:N:BETA_BAR"),
    (("volume-scan", "--source", "football:abc"), "error: --source"),
    (("volume-scan", "--source", "football:0"), "error: --source football:0: "),
    (("volume-scan", "--source", "football:2"), "error: --source football:2: "),
    (("volume-scan", "--source", "football:nan"), "error: --source football:nan: "),
    (("continue-path", "--beta", 0.25, "--delta", 0), "error: --beta 0.25 --delta 0.0: "),
    # Phi0'' = 2 e^t / (1 + e^t)^2 is 0 in double at t = -800, where the
    # tail closure would divide 0 by 0 (warnings are errors in this suite)
    (("solve", "--beta", 0.8, "--delta", 0, "--tau", 0.4, "--grid-T", 800),
     "error: --grid-T 800"),
    # h^2 underflowed to 0 and the Newton rows divided by it (ZeroDivisionError)
    (("solve", "--beta", 0.8, "--delta", 0, "--tau", 0.4, "--grid-T", "1e-160"),
     "error: --grid-T 1e-160 --grid-N 2049: the spacing h = "),
    (("solve", "--beta", 0.8, "--delta", 0, "--tau", 0.4, "--grid-T", "1e-300"),
     "error: --grid-T 1e-300 --grid-N 2049: the spacing h = "),
    (("continue-path", "--beta", 0.8, "--delta", 1e-3, "--grid-T", "1e-160"),
     "error: --grid-T 1e-160 --grid-N 2049: the spacing h = "),
    (("smooth-family", "--beta", 0.8, "--deltas", "1e-1", "--grid-T", "1e-160"),
     "error: --grid-T 1e-160 --grid-N 2049: the spacing h = "),
    # a fit needs two radii: one radius wrote a tube exponent of 0.565
    (("volume-scan", "--mode", "tube", "--source", "cone:2:0.25", "--num", 1),
     "error: --num 1: "),
    (("volume-scan", "--num", 0), "error: --num 0: "),
    (("volume-scan", "--num", -3), "error: --num -3: "),
    (("volume-scan", "--mode", "tube", "--source", "cone:2:0.25", "--r-min", 0.5,
      "--r-max", 0.5), "error: --r-min 0.5 --r-max 0.5: "),
    (("volume-scan", "--r-min", 0, "--r-max", "inf"), "error: --r-min 0 --r-max inf: "),
    (("volume-scan", "--source", "cone:0:0.25"), "error: --source cone:0:0.25: "),
    (("capacity", "--n", 0, "--eps", 0.1), "error: --n 0 "),
    (("capacity", "--n", 1, "--eps", 0.1, "--beta-bar", 2), "--beta-bar 2"),
    (("capacity", "--n", 1, "--eps", 50), "error: --eps 50.0: "),
    (("capacity", "--n", 1, "--eps", 0.1, "--delta", 0.5), "error: --delta 0.5: "),
    # Gamma(201) overflowed in the ball volume; the selection rule's delta is
    # then exp(-1e-154), not below 1/3
    (("capacity", "--n", 200, "--eps", 0.5), "error: --eps 0.5: "),
    # r^2 underflowed: the ratios and the pole's angle read inf
    (("volume-scan", "--source", "football:0.6", "--r-min", "1e-200", "--r-max", "1e-100"),
     "error: --r-min 1e-200 --r-max 1e-100: "),
    (("volume-scan", "--mode", "tube", "--source", "cone:2:0.25", "--r-min", "1e-200",
      "--r-max", "1e-100"), "error: --r-min 1e-200 --r-max 1e-100: "),
    # radii below the grid's first node were read at that node
    (("volume-scan", "--source", "football:0.6", "--r-min", "1e-3"),
     "error: --r-min 0.001 --grid-T 16: "),
    # None stands for a stored football metric
    (("log-futaki", "--metric", None, "--beta", 1.5), "error: --beta 1.5 --points "),
    (("log-futaki", "--metric", None, "--points", "zero:-1"),
     "--points zero:-1: point weights must be positive"),
    # t-locations off the grid read the end node's theta, NaN passed through
    (("log-futaki", "--metric", None, "--points", "40:1"),
     "--points 40:1: t = 40 lies outside the grid [-16, 16]"),
    (("log-futaki", "--metric", None, "--points", "inf:1"), "--points inf:1: t = inf"),
    (("log-futaki", "--metric", None, "--points", "nan:1"), "--points nan:1: t = nan"),
    (("log-futaki", "--metric", None, "--points=-16.5:1"), "--points -16.5:1: t = -16.5"),
    (("volume-scan", "--source", "fs", "--center", "foo", "--grid-N", 257),
     "error: --source fs --center foo: pole must be 'zero' or 'infinity'"),
    # the band end 3e300 squared overflowed: energy and quadrature read 0
    (("capacity", "--n", 1, "--eps", "1e-300"), "error: --n 1 --eps 1e-300: "),
    # eps^398 underflowed to 0, and the bound divided by it
    (("capacity", "--n", 200, "--eps", 0.01, "--delta", 1e-3),
     "error: --n 200 --eps 0.01: "),
    (("capacity", "--n", 2, "--eps", "1e-300"), "error: --n 2 --eps 1e-300: eps^3 "),
], ids=["solve-delta-nan", "solve-delta-inf", "family-deltas-nan", "path-delta-nan",
        "grid-T-inf", "capacity-eps-zero", "capacity-eps-nan", "volume-radius-off-grid",
        "tube-annulus-without-b", "density-without-ell", "grid-N-even", "deltas-empty",
        "betas-not-a-number", "ells-not-an-int", "betas-beta-above-1", "ells-zero",
        "density-ell-zero", "solve-tau-negative", "solve-beta-above-1",
        "path-beta-zero", "solve-delta-negative", "solve-delta-exponent-form",
        "solve-delta-minus-inf", "path-delta-exponent-form", "capacity-delta-exponent-form",
        "tube-from-football", "football-beta-not-a-number",
        "football-beta-zero", "football-beta-above-1", "football-beta-nan",
        "path-conic-beta-below-0.3",
        "grid-T-round-density-underflows", "solve-spacing-squares-underflow",
        "solve-spacing-squares-underflow-1e-300", "path-spacing-squares-underflow",
        "family-spacing-squares-underflow", "tube-one-radius", "volume-no-radii",
        "volume-negative-num", "tube-equal-radii", "volume-infinite-radius",
        "volume-cone-n-zero", "capacity-n-zero", "capacity-beta-bar-above-1",
        "capacity-auto-delta-too-large", "capacity-manual-delta-too-large",
        "capacity-n-200", "volume-radii-squares-underflow", "tube-radii-squares-underflow",
        "volume-radius-below-grid",
        "log-futaki-beta-above-1", "log-futaki-weight-negative", "log-futaki-t-beyond-grid",
        "log-futaki-t-inf", "log-futaki-t-nan", "log-futaki-t-below-grid",
        "volume-center-not-a-pole",
        "capacity-band-end-overflows", "capacity-eps-power-underflows",
        "capacity-selection-power-underflows"])
def test_bad_numbers_exit_config(tmp_path, capsys, argv, name):
    if None in argv:
        metric = tmp_path / "fb.csv"
        write_csv(metric, *potential_table(football_potential(Grid(16, 257), 0.6)))
        argv = [metric if a is None else a for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and name in err, err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (("--source", "football"), "--source"),
    (("--mode", "tube", "--source", "cone:2"), "--source"),
    (("--mode", "tube", "--source", "cone:2:0.7", "--annulus", "1"), "--annulus"),
], ids=["football-without-beta", "cone-without-beta-bar", "annulus-without-b"])
def test_volume_scan_malformed_items_name_their_flag(tmp_path, capsys, argv, flag):
    assert run("volume-scan", *argv, "--out", tmp_path / "vol") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {flag}"), err


def test_volume_scan_radius_off_grid_names_its_flags(tmp_path, capsys):
    assert run("volume-scan", "--source", "football:0.6", "--r-max", 100,
               "--grid-T", 8, "--out", tmp_path / "vol") == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: --r-max 100 --grid-T 8: "), err
    reach = float(err.split("exceeds ")[1].split(",")[0])    # the largest radius
    assert 0 < reach < 100, err
    assert not (tmp_path / "vol").exists()


def test_volume_scan_cli(tmp_path):
    out = tmp_path / "vol"
    assert run("volume-scan", "--source", "football:0.6", "--center", "zero",
               "--out", out) == 0
    fit = np.loadtxt(out / "fit.csv", delimiter=",", skiprows=1)
    assert fit[0] == pytest.approx(0.6, rel=0.01)
    out2 = tmp_path / "tube"
    assert run("volume-scan", "--mode", "tube", "--source", "cone:2:0.7",
               "--r-min", 0.01, "--r-max", 0.5, "--num", 12, "--out", out2) == 0
    fit2 = np.loadtxt(out2 / "fit.csv", delimiter=",", skiprows=1)
    assert fit2[0] == pytest.approx(2.0, abs=0.05)


@pytest.mark.parametrize("argv, table, column, expected", [
    # --delta alone selects the manual cutoff
    (("capacity", "--n", 1, "--eps", 0.1, "--delta", 1e-3),
     "capacity.csv", 3, math.log(1e-3)),
    (("volume-scan", "--source", "cone:2:0.25"), "fit.csv", 0, 0.25),
], ids=["capacity-manual", "ratio-of-cone"])
def test_capacity_manual_and_cone_ratio(tmp_path, argv, table, column, expected):
    out = tmp_path / "o"
    assert run(*argv, "--out", out) == 0
    row = np.loadtxt(out / table, delimiter=",", skiprows=1)
    assert row[column] == pytest.approx(expected, rel=1e-12)


def test_cone_ratio_is_its_closed_form(tmp_path):
    # the ratio was the ball volume divided back by r^4: a defect of 2.2e-16
    out = tmp_path / "o"
    assert run("volume-scan", "--source", "cone:2:0.25", "--out", out) == 0
    angle, defect = np.loadtxt(out / "fit.csv", delimiter=",", skiprows=1)
    assert angle == 0.25 and defect == 0.0


@pytest.mark.parametrize("tau", [0.8, 0.4])
def test_wide_grid_solve_converges(tmp_path, tau):
    out = tmp_path / "s"
    assert run("solve", "--beta", 0.8, "--delta", 0, "--tau", tau, "--grid-T", 40,
               "--out", out) == 0
    if tau == 0.8:
        pot = read_potential_csv(out / "solution.csv")
        core = np.abs(pot.grid.t) <= 20.0
        oracle = football_potential(pot.grid, 0.8)
        assert np.max(np.abs(pot.phi_doubleprime - oracle.phi_doubleprime)[core]) < 1e-6


def test_wide_grid_path_completes(tmp_path):
    out = tmp_path / "p"
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3, "--grid-T", 32,
               "--grid-N", 4097, "--out", out) == 0
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace[-1, 0] == pytest.approx(0.8, abs=1e-14)
    assert np.all(trace[:, 5] <= 1e-11)


def test_wide_grid_path_converges_at_half_width_40(tmp_path):
    out = tmp_path / "p"
    assert run("continue-path", "--beta", 0.8, "--delta", 1e-3, "--grid-T", 40,
               "--out", out) == 0
    trace = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=1)
    assert trace[-1, 0] == pytest.approx(0.8, abs=1e-14)
    assert trace[-1, 3] == pytest.approx(0.8042, abs=1e-4)
    assert np.all(trace[:, 5] <= 1e-11)


@pytest.mark.parametrize("n", [3, 5])
@pytest.mark.parametrize("argv", [
    ("solve", "--beta", 0.8, "--delta", 1e-2, "--tau", 0.5),
    ("continue-path", "--beta", 0.8, "--delta", 1e-2, "--steps", 2),
    ("smooth-family", "--beta", 0.8),
    ("bergman-scan", "--betas", "0.8", "--ells", "2"),
    ("volume-scan", "--source", "fs"),
], ids=lambda a: a[0])
def test_grid_below_cumulative_integration_names_grid_n(tmp_path, capsys, argv, n):
    # a grid too small for cumulative integration fails before any compute,
    # not with a solver exit or a message that names no flag
    assert run(*argv, "--grid-N", n, "--out", tmp_path / "o") == 1
    err = capsys.readouterr().err
    assert err == (f"error: --grid-N {n}: cumulative integration needs at least "
                   f"{CUMULATIVE_MIN_NODES} nodes\n")
    assert not (tmp_path / "o").exists()
