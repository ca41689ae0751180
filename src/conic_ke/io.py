"""Serialization: CSV tables with full double precision, JSON manifests.

Numbers print through repr-faithful %.17g so re-reading reproduces the
exact doubles and byte-identical reruns are possible.  Each table is
formatted by one `%` over all its cells, and the node column of a potential
profile is formatted once per grid and then reused.
"""

from __future__ import annotations

import itertools
import json
import warnings
from functools import lru_cache
from pathlib import Path

import numpy as np

from .geometry import Grid, RadialKahlerPotential

FMT = "%.17g"


def format_number(x) -> str:
    return FMT % float(x)


def write_csv(path, header: list[str], rows) -> None:
    """One line per row: strings as given, numbers through FMT.

    The row format is built once from the first row's cell types and the
    whole table is formatted by one `%`.  A row of another length, or with
    a string where the first row had a number or the reverse, raises
    TypeError instead of being written in another format.
    """
    path = Path(path)
    rows = list(rows)
    lines = [",".join(header)]
    if rows:
        widths = set(map(len, rows))
        if len(widths) > 1:
            raise TypeError(f"{path}: rows of unequal lengths {sorted(widths)}")
        first = rows[0]
        for i in [i for i, x in enumerate(first) if isinstance(x, str)]:
            if not all(isinstance(row[i], str) for row in rows):
                raise TypeError(f"{path}: column {i} is text in the first row "
                                "but not in every row")
        fmt = ",".join("%s" if isinstance(x, str) else FMT for x in first)
        lines.append("\n".join([fmt] * len(rows))
                     % tuple(itertools.chain.from_iterable(rows)))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@lru_cache(maxsize=1)
def _node_column(grid: Grid) -> tuple[str, ...]:
    """The grid nodes as FMT strings, kept for the last grid written."""
    return tuple(FMT % x for x in grid.t.tolist())


POTENTIAL_HEADER = ["t", "phi_prime", "phi_doubleprime"]


def potential_table(pot: RadialKahlerPotential) -> tuple[list[str], zip]:
    """A profile as (header, rows) for `write_csv`."""
    return POTENTIAL_HEADER, zip(_node_column(pot.grid), pot.phi_prime.tolist(),
                                 pot.phi_doubleprime.tolist())


def read_potential_csv(path) -> RadialKahlerPotential:
    """A `potential_table` CSV as a profile: base offset 0, cone fractions 1."""
    path = Path(path)
    with warnings.catch_warnings():      # an empty table is reported below
        warnings.simplefilter("ignore", UserWarning)
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != 3 or data.shape[0] < 3:
        raise ValueError(f"{path}: expected columns t,phi_prime,phi_doubleprime "
                         f"and at least 3 rows, got a {data.shape[0]}x{data.shape[1]} table")
    t = data[:, 0]
    n = t.size
    grid = Grid(float(t[0]), float(t[-1]), n)
    if not np.allclose(grid.t, t, rtol=0, atol=1e-12):
        raise ValueError(f"{path}: nodes are not a uniform symmetric grid")
    return RadialKahlerPotential(grid, data[:, 1], data[:, 2])


def potential_manifest(pot: RadialKahlerPotential) -> dict:
    return {
        "grid": {"t_min": pot.grid.t_min, "t_max": pot.grid.t_max,
                 "n_nodes": pot.grid.n_nodes},
        "base_offset": pot.base_offset,
        "angle_at_zero": pot.angle_at_zero,
        "angle_at_infinity": pot.angle_at_infinity,
    }


def write_manifest(path, command: str, config: dict, outputs: list[str],
                   grid: Grid | None = None, wall_clock: float | None = None,
                   extra: dict | None = None) -> None:
    """Run manifest: config echo, version, outputs, timing.

    The wall clock is the run's duration in seconds, informational and
    null when not given; reproducibility comparisons cover the data files
    listed under "outputs".
    """
    from . import __version__
    doc = {
        "command": command,
        "config": config,
        "version": __version__,
        "outputs": sorted(outputs),
        "wall_clock_seconds": wall_clock,
    }
    if grid is not None:
        doc["grid"] = {"t_min": grid.t_min, "t_max": grid.t_max, "n_nodes": grid.n_nodes}
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def read_manifest(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))
