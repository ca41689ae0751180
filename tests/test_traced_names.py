"""Every function the benchmark traces by name still exists in conic_ke."""

import importlib
import json
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
