"""Benchmark of the conic-ke command line, end to end and per layer.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload session --seed 0 --seconds 45 --trace 0

--trace 0 runs the workload's seeded command list (workloads.py) again and
again for --seconds, one fresh `python -m conic_ke.cli` process per command
and one command at a time (a closed loop with one client), with timed
`--version` starts before each pass.  A fixed task that runs no conic_ke code
is timed before every process as a gauge of the machine's speed; the times
reported as end-to-end metrics are scaled to a nominal speed, and the
as-measured ones are printed beside them.

--trace 1 runs the command lists of all three workloads inside this process,
once plain and once with every conic_ke function wrapped in a span
(tracer.py), and reports the per-layer metrics.  All workloads are traced so
that every layer metric is measured on every run; the results file splits
them by workload.

Both modes check every command's output (oracles.py) and hash every data
file.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record (quartiles, sample
counts, hashes, outcomes, environment) and the replayable command list go to
perfbench/runs/<workload>-seed<seed>-trace<0|1>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from collections import defaultdict
from dataclasses import asdict
from importlib import metadata
from pathlib import Path
from time import perf_counter

import oracles
import tracer
from workloads import BUILDERS, DEFAULT_SEED, generate

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
RUNS = BENCH_DIR / "runs"
REFERENCE = BENCH_DIR / "reference_hashes.json"   # data-file hashes at DEFAULT_SEED
SETUP_REPS = 2          # timed `--version` starts before each pass
IMPORT_REPS = 3         # `-X importtime` runs per traced run, after one warm-up
CHILD_TIMEOUT = 60.0    # seconds before a hung command is killed

# Fixed work that runs no conic_ke code, timed right before every start-up
# and every command as a gauge of the machine's speed at that moment.  On a
# shared 2-vCPU machine the speed drifts by up to ~1.8x within minutes, which
# spread raw times 13-23% (IQR/median over ten seeds); scaled to the speed at
# which this task takes REFERENCE_NOMINAL_S they spread 6-12%.
REFERENCE_TASK = """
import numpy as np
x = np.linspace(0.0, 1.0, 1 << 20)
for _ in range(40):
    x = np.sqrt(x + 1.0) - 0.5
s = 0
for i in range(300000):
    s += i * i
"""
REFERENCE_NOMINAL_S = 0.4
TIMES = ("setup_s", "wall_s", "cmd_p50_s")

# Functions called once per CSV cell; a span each would cost more than the
# work it measures, so their time stays in the caller's self time.
UNTRACED = {"io.format_number"}
TRACED_PRIVATE = {"ma_solver._trace_step"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CONIC_KE_JOBS", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, cwd: Path, log_name: str):
    """Run one CLI command; returns (wall seconds, exit code, max RSS in MB)."""
    with open(cwd / f"{log_name}.log", "wb") as log:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "conic_ke.cli", *argv],
                                cwd=cwd, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def hash_outputs(out: Path) -> dict:
    """SHA-256 of every data file a command wrote (the manifest holds a clock)."""
    if not out.is_dir():
        return {}
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir()) if p.is_file() and p.name != "manifest.json"}


def judge(cmd, work: Path, code) -> tuple[str, str | None]:
    """'ok', 'defect' (a documented known defect showed) or 'failed'."""
    reason = oracles.check(cmd.oracle, work / cmd.name, cmd.params) if code == 0 \
        else f"exit code {code}"
    if reason is None:
        return "ok", None
    return ("defect" if cmd.known_defect else "failed"), reason


def finish_pass(commands, work: Path, rows: list[dict]) -> list[dict]:
    """Judge and hash the outputs of one pass, outside the timed region."""
    for cmd, row in zip(commands, rows):
        row["outcome"], row["reason"] = judge(cmd, work, row["exit"])
        row["hashes"] = hash_outputs(work / cmd.name)
    return rows


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


def summary(values) -> dict:
    values = list(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2],
            "n": len(values)}


def hash_diffs(a: dict, b: dict) -> int:
    """Files whose hash differs, or that only one side wrote."""
    return sum(a.get(k) != b.get(k) for k in set(a) | set(b))


def reference_diffs(commands, rows, reference: list) -> tuple[int, int]:
    """(files compared, files differing) against the recorded reference.

    A command's outputs can depend on every command before it (futaki reads
    what solve wrote), so comparison stops at the first command whose argv
    differs from the reference's.
    """
    checked = differ = 0
    for cmd, row, ref in zip(commands, rows, reference):
        if tuple(ref["argv"]) != cmd.argv:
            break
        checked += len(ref["hashes"])
        differ += hash_diffs(ref["hashes"], row["hashes"])
    return checked, differ


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}


# ---------------------------------------------------------------------------
# --trace 0: fresh processes, end-to-end metrics


def run_reference(cwd: Path) -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_TASK], cwd=cwd, check=True,
                   timeout=CHILD_TIMEOUT)
    return perf_counter() - start


def end_to_end(workload: str, seed: int, seconds: float, run_dir: Path) -> dict:
    commands = generate(workload, seed)
    work = run_dir / "work"
    run_child(("--version",), fresh_dir(work), "version")   # warm-up, untimed
    setup, gauge, passes = [], [], []
    start = perf_counter()
    while True:
        fresh_dir(work)
        for _ in range(SETUP_REPS):
            gauge.append(run_reference(work))
            setup.append(run_child(("--version",), work, "version")[0])
        rows = []
        for cmd in commands:
            gauge.append(run_reference(work))
            elapsed, code, rss = run_child(cmd.argv, work, cmd.name)
            rows.append({"name": cmd.name, "seconds": elapsed, "exit": code,
                         "rss_mb": rss})
        passes.append(finish_pass(commands, work, rows))
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    # p50 over each command's median across passes: with two or three
    # distinct commands, a p50 over raw samples would sit on the slowest
    # sample of one command and the fastest of another
    per_cmd = [statistics.median(rows[i]["seconds"] for rows in passes)
               for i in range(len(commands))]
    all_rows = [row for rows in passes for row in rows]
    ok = sum(row["outcome"] == "ok" for row in all_rows)
    failed = sum(row["outcome"] == "failed" for row in all_rows)
    runs_differ = sum(hash_diffs(a["hashes"], b["hashes"])
                      for rows in passes[1:] for a, b in zip(passes[0], rows))
    checked, ref_differ = reference_diffs(commands, passes[0],
                                          load_reference().get(workload, []))
    stats = {
        "setup_s": summary(setup),
        "wall_s": summary(sum(r["seconds"] for r in rows) for rows in passes),
        "cmd_p50_s": summary(per_cmd),
        "ok_ratio": summary([ok / len(all_rows)]),
        "peak_rss_mb": summary(max(r["rss_mb"] for r in rows) for rows in passes),
    }
    scale = REFERENCE_NOMINAL_S / statistics.median(gauge)
    return {
        "commands": commands,
        "stats": stats,
        "metrics": {name: s["median"] * (scale if name in TIMES else 1.0)
                    for name, s in stats.items()},
        "speed_scale": scale,
        "reference_s": gauge,
        "attempted": len(all_rows),
        "failed": failed,
        "correct": failed == 0 and runs_differ == 0,
        "checks": {"files_differ_between_passes": runs_differ,
                   "files_checked_against_reference": checked,
                   "files_differ_from_reference": ref_differ},
        "passes": passes,
    }


# ---------------------------------------------------------------------------
# --trace 1: in-process runs, per-layer metrics


def import_times() -> tuple[float, float]:
    """(import conic_ke.cli, all scipy imports not nested in another) in s."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import conic_ke.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT, check=True)
    entries = []
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if line.startswith("import time:") and len(fields) == 3 and fields[1].strip().isdigit():
            name = fields[2][1:]
            entries.append((len(name) - len(name.lstrip()), int(fields[1]), name.strip()))
    cli_us = next(cum for _, cum, name in entries if name == "conic_ke.cli")

    def is_scipy(name):
        return name == "scipy" or name.startswith("scipy.")

    scipy_us, ancestors = 0, []
    for depth, cum, name in reversed(entries):      # parents before children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if is_scipy(name) and not (ancestors and is_scipy(ancestors[-1][1])):
            scipy_us += cum
        ancestors.append((depth, name))
    return cli_us / 1e6, scipy_us / 1e6


def make_hooks(counters: dict) -> dict:
    """Counters read from arguments and results, outside the spans."""

    def newton(args, kwargs, result):
        counters["ma_solver.newton_iters"] += result.iterations

    def gram(args, kwargs, result):
        ell = args[0] if args else kwargs["ell"]
        pot = args[2] if len(args) > 2 else kwargs["pot"]
        counters["bergman.bytes_computed"] += (2 * ell + 1) * pot.grid.n_nodes * 8

    def written(args, kwargs, result):      # CSV data only; manifests hold a clock
        counters["io.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])

    def accepted(args, kwargs, result):
        counters["continuity_path.accepted"] += len(result.steps)

    return {"ma_solver.solve_ma": newton, "bergman.gram_matrix": gram,
            "io.write_csv": written,
            "ma_solver.continuity_path": accepted}


def select(qualname: str) -> bool:
    func = qualname.rsplit(".", 1)[1]
    return qualname not in UNTRACED and (not func.startswith("_") or qualname in TRACED_PRIVATE)


def inprocess_pass(cli, lists: dict, work: Path, trace=None):
    """Every command of every workload through cli.main; returns
    ({workload: rows}, wall seconds, start, end)."""
    results, here = {}, Path.cwd()
    sink = io.StringIO()
    start = perf_counter()
    try:
        for workload, commands in lists.items():
            wdir = work / workload
            wdir.mkdir(parents=True)
            os.chdir(wdir)
            if trace is not None:
                trace.tag = workload
            rows = []
            for cmd in commands:
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        code = cli.main(list(cmd.argv))
                    except Exception as exc:  # a crash is a failed command, not a dead run
                        code = f"raised {type(exc).__name__}: {exc}"
                rows.append({"name": cmd.name, "exit": code})
            results[workload] = rows
    finally:
        os.chdir(here)
    end = perf_counter()
    for workload, commands in lists.items():
        finish_pass(commands, work / workload, results[workload])
    return results, end - start, start, end


def layer_values(spans, counters, imports, lo, hi) -> tuple[dict, dict]:
    """(counter-like metrics, per-function table) of one traced pass."""
    stats = tracer.summarize(spans)
    attempts = 0
    for s in spans:
        if s.name == "ma_solver.solve_ma":
            p = s.parent
            while p >= 0 and spans[p].name != "ma_solver.continuity_path":
                p = spans[p].parent
            attempts += p >= 0
    values = {
        "cli.import_s": statistics.median_low(i[0] for i in imports),
        "cli.import.scipy_s": statistics.median_low(i[1] for i in imports),
        "ma_solver.newton_iters": counters["ma_solver.newton_iters"],
        "ma_solver.continuity_path.accepted_ratio":
            counters["continuity_path.accepted"] / attempts if attempts else 0.0,
        "bergman.bytes_computed": counters["bergman.bytes_computed"],
        "io.bytes_written": counters["io.bytes_written"],
        "trace.untraced_s": tracer.uncovered(spans, lo, hi),
    }
    return values, stats


def layer_metric(values: dict, stats: dict, name: str):
    """A counter, or `<module>.<function>.<calls|total_s|self_s|failed>`."""
    if name in values:
        return values[name]
    func, stat = name.rsplit(".", 1)
    return stats[func][stat] if func in stats else 0


def per_layer(seed: int, seconds: float, run_dir: Path, metric_names) -> dict:
    lists = {w: generate(w, seed) for w in BUILDERS}
    start = perf_counter()
    imports = [import_times() for _ in range(IMPORT_REPS + 1)][1:]
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("conic_ke.cli")
    # warm-up: lazy library set-up is paid before either side is timed
    inprocess_pass(cli, {"session": lists["session"]}, fresh_dir(run_dir / "warm"))

    plain, traced, restored, nested = [], [], True, True
    while True:
        rows_u, wall_u, _, _ = inprocess_pass(cli, lists, fresh_dir(run_dir / "plain"))
        counters = defaultdict(int)
        trace = tracer.Tracer(make_hooks(counters))
        patched = tracer.install(trace, "conic_ke", select)
        try:
            rows_t, wall_t, lo, hi = inprocess_pass(cli, lists, fresh_dir(run_dir / "traced"),
                                                    trace)
        finally:
            restored = tracer.restore(patched) and restored
        nested = tracer.nesting_ok(trace.spans) and nested
        values, stats = layer_values(trace.spans, counters, imports, lo, hi)
        plain.append((rows_u, wall_u))
        traced.append((rows_t, wall_t, values, stats, trace.spans))
        rounds = len(traced)
        if (perf_counter() - start) * (rounds + 1) / rounds > seconds:
            break

    overhead = (statistics.median(t[1] for t in traced)
                - statistics.median(p[1] for p in plain))
    metrics = {name: overhead if name == "trace.overhead_s" else
               statistics.median_low(layer_metric(values, stats, name)
                                 for _, _, values, stats, _ in traced)
               for name in metric_names}

    rows = [r for rows_by_w, *_ in plain + traced for rs in rows_by_w.values() for r in rs]
    failed = sum(r["outcome"] == "failed" for r in rows)
    differ = sum(hash_diffs(a["hashes"], b["hashes"])
                 for (pu, _), (pt, *_) in zip(plain, traced)
                 for w in lists for a, b in zip(pu[w], pt[w]))
    reference = load_reference()
    checked = ref_differ = 0
    for w, commands in lists.items():
        c, d = reference_diffs(commands, plain[0][0][w], reference.get(w, []))
        checked, ref_differ = checked + c, ref_differ + d
    last_spans = traced[-1][4]
    by_workload = {w: tracer.summarize(last_spans, tag=w) for w in lists}
    return {
        "commands": [c for commands in lists.values() for c in commands],
        "metrics": metrics,
        "attempted": len(rows),
        "failed": failed,
        "correct": failed == 0 and differ == 0 and restored and nested,
        "checks": {"files_differ_traced_vs_plain": differ,
                   "originals_restored": restored, "spans_nested": nested,
                   "files_checked_against_reference": checked,
                   "files_differ_from_reference": ref_differ,
                   "spans_per_traced_pass": len(last_spans)},
        "plain_wall_s": [p[1] for p in plain],
        "traced_wall_s": [t[1] for t in traced],
        "functions": traced[-1][3],
        "by_workload": by_workload,
        "outcomes": {w: [{k: r[k] for k in ("name", "exit", "outcome", "reason")}
                         for r in traced[-1][0][w]] for w in lists},
    }


# ---------------------------------------------------------------------------


def environment() -> dict:
    def command(*argv):
        try:
            return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, env={**os.environ,
                                                   "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
                                  ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            return None

    caches = {}
    for line in (command("getconf", "-a") or "").splitlines():
        parts = line.split()
        if len(parts) == 2 and "CACHE_SIZE" in parts[0]:
            caches[parts[0]] = int(parts[1])
    source = hashlib.sha256()
    for path in sorted((SRC / "conic_ke").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": platform.python_version(),
            **{pkg: metadata.version(pkg) for pkg in ("numpy", "scipy")},
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "caches": caches, "git_commit": command("git", "rev-parse", "HEAD"),
            "source_sha256": source.hexdigest(), "platform": platform.platform()}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's data-file hashes as the reference")
    args = parser.parse_args(argv)
    if not (SRC / "conic_ke" / "cli.py").is_file():
        print(f"error: run from the root of a conic-ke checkout ({SRC}/conic_ke missing)",
              file=sys.stderr)
        return 2
    os.environ.pop("CONIC_KE_JOBS", None)
    bench = load_benchmark()
    run_dir = fresh_dir(RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        res = per_layer(args.seed, args.seconds, run_dir, list(units))
        lines = [f"{name:48s} {value!r:>24} {units[name]}"
                 for name, value in res["metrics"].items()]
    else:
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
        res = end_to_end(args.workload, args.seed, args.seconds, run_dir)
        lines = [f"{name:12s} {res['metrics'][name]:.6g} {units[name]}  (as measured: median "
                 f"{s['median']:.6g} q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']})"
                 for name, s in res["stats"].items()]
        lines.append(f"times scaled by {res['speed_scale']:.4f}: the reference task took "
                     f"{statistics.median(res['reference_s']):.4f} s against "
                     f"{REFERENCE_NOMINAL_S} s nominal")
    commands = res.pop("commands")
    (run_dir / "commands.json").write_text(json.dumps(
        {"seed": args.seed, "default_seed": DEFAULT_SEED,
         "replay": "PYTHONPATH=<checkout>/src python3 -m conic_ke.cli <argv>, every "
                   "argv of a workload run in order from one empty directory",
         "commands": [asdict(c) for c in commands]}, indent=1) + "\n", encoding="utf-8")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(), **res}
    (run_dir / "results.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    if args.write_reference and not args.trace:
        write_reference(args.workload, commands, res["passes"][0])
    for line in lines:
        print(line)
    for key, value in res["checks"].items():
        print(f"check {key}: {value}")
    print(json.dumps({"correct": bool(res["correct"]), "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {name: {"value": res["metrics"][name], "unit": units[name]}
                                  for name in units}}))
    return 0


def write_reference(workload: str, commands, rows) -> None:
    reference = load_reference()
    reference[workload] = [{"argv": c.argv, "hashes": row["hashes"]}
                           for c, row in zip(commands, rows)]
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
