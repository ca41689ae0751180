"""Self-tests of the benchmark's own arithmetic, oracles, patching and seeding.

    python3 -m pytest -q perfbench
"""

import sys
import types

import numpy as np
import pytest

import oracles
import tracer
from workloads import BUILDERS, generate


def spans_from(rows):
    """rows: (name, parent, start, end)."""
    return [tracer.Span(name, parent, start, end) for name, parent, start, end in rows]


def test_self_time_on_synthetic_tree():
    spans = spans_from([
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 3.0),
        ("b", 0, 2.0, 4.0),      # overlaps a: the union 1..4 counts once
        ("c", 0, 6.0, 7.0),
        ("c.child", 3, 6.2, 6.5),
        ("late", -1, 12.0, 13.0),
    ])
    own = tracer.self_times(spans)
    assert own == pytest.approx([10.0 - 3.0 - 1.0, 2.0, 2.0, 0.7, 0.3, 1.0])
    assert tracer.nesting_ok(spans)
    assert tracer.uncovered(spans, 0.0, 14.0) == pytest.approx(3.0)
    table = tracer.summarize(spans)
    assert table["c"] == {"calls": 1, "total_s": 1.0, "self_s": pytest.approx(0.7), "failed": 0}
    for s in spans[3:5]:
        s.tag = "other"
    assert set(tracer.summarize(spans, tag="other")) == {"c", "c.child"}
    assert tracer.summarize(spans, tag="other")["c"]["self_s"] == pytest.approx(0.7)


def test_nesting_check_rejects_a_child_outside_its_parent():
    spans = spans_from([("root", -1, 0.0, 1.0), ("child", 0, 0.5, 1.5)])
    assert not tracer.nesting_ok(spans)


def write_phi(path, beta, bump=0.0):
    t = np.linspace(-16.0, 16.0, 2049)
    phi = oracles.football_phi(t, beta)
    phi[1024] += bump
    path.mkdir()
    np.savetxt(path / "phi.csv", np.column_stack([t, phi]), delimiter=",",
               header="t,phi", comments="", fmt="%.17g")
    (path / "solution.csv").write_text("t,phi_prime,phi_doubleprime\n")


def test_football_oracle_rejects_a_perturbed_csv(tmp_path):
    write_phi(tmp_path / "exact", 0.75)
    assert oracles.check("football", tmp_path / "exact", {"beta": 0.75}) is None
    write_phi(tmp_path / "bumped", 0.75, bump=1e-5)
    reason = oracles.check("football", tmp_path / "bumped", {"beta": 0.75})
    assert reason is not None and "core error" in reason


def test_path_oracle_rejects_a_residual_above_tolerance(tmp_path):
    rows = [(0.0, 1e-13, 0.9), (0.4, 1e-13, 0.95), (0.8, 2e-11, 0.99)]
    out = tmp_path / "p"
    out.mkdir()
    lines = ["tau,J,F,lambda1,newton_iters,residual"]
    lines += [f"{tau!r},0,0,{lam!r},1,{res!r}" for tau, res, lam in rows]
    (out / "trace.csv").write_text("\n".join(lines) + "\n")
    for k in range(3):
        (out / f"step_{k:04d}.csv").write_text("")
    reason = oracles.check("path", out, {"beta": 0.8, "steps": 2})
    assert reason is not None and "residual" in reason


def test_install_patches_every_binding_and_restores(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    defining = types.ModuleType("fakepkg.defining")
    exec("def leaf(x):\n    return x + 1\n\ndef outer(x):\n    return leaf(x) * 2\n",
         defining.__dict__)
    importer = types.ModuleType("fakepkg.importer")
    importer.leaf = defining.leaf            # as `from .defining import leaf`
    for mod in (pkg, defining, importer):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    originals = (defining.leaf, defining.outer)

    trace = tracer.Tracer()
    patched = tracer.install(trace, "fakepkg", lambda name: True)
    assert importer.leaf is defining.leaf and importer.leaf is not originals[0]
    assert defining.outer(1) == 4 and importer.leaf(1) == 2
    assert tracer.restore(patched)
    assert (defining.leaf, defining.outer) == originals and importer.leaf is originals[0]

    names = [(s.name, s.parent) for s in trace.spans]
    assert names == [("defining.outer", -1), ("defining.leaf", 0), ("defining.leaf", -1)]
    assert tracer.nesting_ok(trace.spans)


def test_seed_moves_only_beta_and_delta():
    for workload in BUILDERS:
        a, b = generate(workload, 1), generate(workload, 2)
        assert a == generate(workload, 1)
        assert [c.name for c in a] == [c.name for c in b]
        for ca, cb in zip(a, b):
            flags = [x for x in ca.argv if x.startswith("--")]
            assert flags == [x for x in cb.argv if x.startswith("--")]
            for i, (x, y) in enumerate(zip(ca.argv, cb.argv)):
                if x != y:
                    assert ca.argv[i - 1] in ("--beta", "--tau", "--delta", "--density",
                                              "--source")
