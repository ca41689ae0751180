"""Seeded command lists of the three benchmark workloads.

Every command is one `conic-ke` argv, run from a work directory that holds
one output directory per command.  The seed moves beta inside narrow bands
and picks delta from DELTAS; grid sizes, step counts and the list itself
never change, so every seed asks for the same work (the Newton iteration
counts of the path commands are the same across the bands).
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 0

# Each delta here gives the same Newton iteration counts on the N=2049 paths.
DELTAS = (1e-2, 1e-3)

# Documented defects that the workloads keep on purpose, so that a fix shows
# as a higher ok_ratio instead of going unmeasured.
TRUNCATION_DEFECT = ("ROADMAP item 2: exits 0 but the T=16 grid leaves the "
                     "beta~0.2 conic solve ~1.2e-3 off the football")
RESIDUAL_FLOOR_DEFECT = ("ROADMAP item 2: at N=8193 the tau = 0 row of a path "
                         "reports a residual of 1e-11 to 2e-10, above newton_tol")
FLOOR_DEFECT = ("ROADMAP item 2: newton_tol sits below the rounding floor, "
                "so the N=8193 conic solve exits 2")


@dataclass(frozen=True)
class Command:
    """One CLI call; `name` is also its output directory."""

    name: str
    argv: tuple
    oracle: str
    params: dict = field(default_factory=dict)
    known_defect: str | None = None


def _band(rng: random.Random, center: float, half: float = 0.005) -> str:
    return f"{rng.uniform(center - half, center + half):.4f}"


def _solve(name, beta, grid=(), known_defect=None):
    argv = ("solve", "--beta", beta, "--delta", "0", "--tau", beta, *grid,
            "--out", name)
    return Command(name, argv, "football", {"beta": float(beta)}, known_defect)


def _path(name, beta, delta, steps=None, grid=()):
    extra = () if steps is None else ("--steps", str(steps))
    argv = ("continue-path", "--beta", beta, "--delta", delta, *extra, *grid,
            "--out", name)
    return Command(name, argv, "path", {"beta": float(beta), "steps": steps})


def _session(rng):
    delta = f"{rng.choice(DELTAS):g}"
    b_solve, b_lf, b_family = _band(rng, 0.75), _band(rng, 0.7), _band(rng, 0.75)
    b_density, b_volume = _band(rng, 0.6), _band(rng, 0.6)
    b_path, b_low = _band(rng, 0.8), _band(rng, 0.2)
    return [
        _solve("solve", b_solve),
        Command("futaki", ("futaki", "--metric", "solve/solution.csv",
                           "--out", "futaki"), "futaki"),
        Command("log-futaki", ("log-futaki", "--metric", "solve/solution.csv",
                               "--beta", b_lf, "--points", "infinity:1",
                               "--out", "log-futaki"),
                "log_futaki", {"beta": float(b_lf)}),
        Command("smooth-family", ("smooth-family", "--beta", b_family,
                                  "--out", "smooth-family"), "smooth_family"),
        Command("bergman-scan", ("bergman-scan", "--density", f"{b_density}:8",
                                 "--out", "bergman-scan"),
                "bergman", {"density": True}),
        Command("capacity", ("capacity", "--n", "1", "--eps", "0.1",
                             "--out", "capacity"), "capacity", {"eps": 0.1}),
        Command("volume-ratio", ("volume-scan", "--source", f"football:{b_volume}",
                                 "--center", "zero", "--out", "volume-ratio"),
                "volume_ratio", {"beta": float(b_volume)}),
        Command("volume-tube", ("volume-scan", "--mode", "tube", "--source",
                                "cone:2:0.25", "--annulus", "1:2",
                                "--out", "volume-tube"),
                "tube", {"n": 2, "beta_bar": 0.25, "annulus": (1.0, 2.0)}),
        _path("path-adaptive", b_path, delta),
        _solve("solve-low-beta", b_low, known_defect=TRUNCATION_DEFECT),
    ]


def _path_workload(rng):
    delta = f"{rng.choice(DELTAS):g}"
    return [
        _path("path-smoothed", _band(rng, 0.8), delta, steps=100),
        _path("path-conic", _band(rng, 0.75), "0", steps=40),
    ]


def _fine(rng):
    # The N=8193 path is not seeded: whether its tau = 0 residual lands above
    # or below 1e-11 depends on the last bits of beta and delta, and a seed
    # would turn that coin into run-to-run noise in ok_ratio.
    path = _path("path-fine", "0.8000", "0.01", steps=20, grid=("--grid-N", "8193"))
    return [
        Command("bergman-fine", ("bergman-scan", "--ells", "8,16,32,64",
                                 "--grid-N", "32769", "--out", "bergman-fine"),
                "bergman", {"density": False}),
        dataclasses.replace(path, known_defect=RESIDUAL_FLOOR_DEFECT),
        _solve("solve-fine", _band(rng, 0.75), grid=("--grid-N", "8193"),
               known_defect=FLOOR_DEFECT),
    ]


BUILDERS = {"session": _session, "path": _path_workload, "fine": _fine}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of `workload`; the same seed gives the same list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"))
