"""Every function the benchmark traces by name still exists in conic_ke,
and its hooks read the arguments conic_ke passes."""

import importlib
import importlib.util
import json
from collections import defaultdict
from pathlib import Path

SUFFIXES = (".calls", ".self_s", ".total_s", ".failed")


def test_benchmark_layers_name_existing_functions():
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    names = {metric["name"].rsplit(".", 1)[0] for metric in spec["per_layer"]
             if metric["name"].endswith(SUFFIXES)}
    assert names
    missing = []
    for name in sorted(names):
        module, func = name.split(".")
        if not callable(getattr(importlib.import_module(f"conic_ke.{module}"), func, None)):
            missing.append(name)
    assert not missing, missing


def _bench_hooks(monkeypatch, counters):
    """The hooks of the benchmark's traced run (perfbench/run.py)."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run.make_hooks(counters)


def test_gram_hook_reads_a_real_scan_call(monkeypatch):
    # the traced benchmark run reads gram_matrix's arguments in a hook; a
    # signature the hook cannot read would fail that run, and here first
    from conic_ke import bergman
    from conic_ke.geometry import Grid
    calls = []
    real = bergman.gram_matrix

    def recording(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append((args, kwargs, result))
        return result

    monkeypatch.setattr(bergman, "gram_matrix", recording)
    grid = Grid(16.0, 65)
    bergman.partial_c0_scan([0.8], [2, 3], grid)
    assert len(calls) == 2
    counters = defaultdict(int)
    hook = _bench_hooks(monkeypatch, counters)["bergman.gram_matrix"]
    for args, kwargs, result in calls:
        hook(args, kwargs, result)
    assert counters["bergman.bytes_computed"] == (5 + 7) * grid.n_nodes * 8


def test_solver_hooks_read_a_real_path_call(monkeypatch):
    # the same for the hooks that read the results of solve_ma and
    # continuity_path: a changed result shape fails here first
    from conic_ke import ma_solver
    from conic_ke.geometry import Grid
    calls = defaultdict(list)
    for name in ("solve_ma", "continuity_path"):
        def recording(*args, _real=getattr(ma_solver, name), _name=name, **kwargs):
            result = _real(*args, **kwargs)
            calls[_name].append((args, kwargs, result))
            return result
        monkeypatch.setattr(ma_solver, name, recording)
    trace = ma_solver.continuity_path(0.8, 1e-3, steps=4, grid=Grid(16.0, 257))
    assert len(calls["continuity_path"]) == 1 and len(calls["solve_ma"]) == 5
    counters = defaultdict(int)
    hooks = _bench_hooks(monkeypatch, counters)
    for name, recorded in calls.items():
        for args, kwargs, result in recorded:
            hooks[f"ma_solver.{name}"](args, kwargs, result)
    assert counters["continuity_path.accepted"] == len(trace.steps) == 5
    assert counters["ma_solver.newton_iters"] == \
        sum(s.solution.iterations for s in trace.steps) > 0
