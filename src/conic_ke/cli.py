"""Command-line batch driver.

Subcommands map one-to-one onto the library operations; every run writes
CSV data files plus a JSON manifest echoing the configuration.  Given the
same configuration the data files are byte-identical across reruns.  A
command checks its inputs and computes before the output directory is made,
so a command that exits non-zero leaves no output directory; only a failed
write (exit 1) can leave a partial one.  The manifest's wall clock covers
the compute and the CSV writes.

Exit codes: 0 success, 1 invalid configuration or usage, 2 a solver did
not converge (Newton divergence or an eigen-solve failure), 3 metric
positivity loss, 4 continuation stall.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import NewtonDiverged, PathStalled, PositivityLost, SolverError

# Library modules (and numpy with them) are imported by the command that
# uses them, so --version and usage errors answer before numpy loads.

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_POSITIVITY = 3
EXIT_STALLED = 4


class Run(NamedTuple):
    """What a command computed: its tables as {file name: (header, columns)}
    in the form `io.write_csv` takes, the text of its summary line, and the
    grid and extra keys of its manifest."""

    tables: dict
    summary: str
    grid: object = None
    extra: dict | None = None


def _write(args, run: Run, t0: float) -> None:
    """Make `--out`, write every table and the manifest, print the summary."""
    from .io import write_csv, write_manifest
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in run.tables.items():
        write_csv(out / name, header, columns)
    config = {k: v for k, v in vars(args).items()
              if k not in ("func", "config", "command")}
    write_manifest(out / "manifest.json", args.command, config, list(run.tables),
                   grid=run.grid, wall_clock=time.time() - t0, extra=run.extra)
    print(f"{args.command}: {run.summary}")


def _grid_from(args):
    """The grid of `--grid-T` and `--grid-N`, with at least the nodes that
    cumulative integration, used by every command with a grid, needs."""
    from .geometry import Grid
    from .numerics import CUMULATIVE_MIN_NODES
    try:
        grid = Grid(-args.grid_T, args.grid_T, args.grid_N)
    except ValueError as exc:
        raise ValueError(f"--grid-T {args.grid_T} --grid-N {args.grid_N}: {exc}") from None
    if grid.n_nodes < CUMULATIVE_MIN_NODES:
        raise ValueError(f"--grid-N {args.grid_N}: cumulative integration needs "
                         f"at least {CUMULATIVE_MIN_NODES} nodes")
    return grid


def _cone_from(args):
    """The cone of `--beta`; `--delta`, where the command has one, is checked
    finite and nonnegative.  Errors name their flag."""
    from .geometry import ConeConfiguration
    try:
        cone = ConeConfiguration(args.beta)
    except ValueError as exc:
        raise ValueError(f"--beta {args.beta}: {exc}") from None
    delta = getattr(args, "delta", 0.0)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"--delta {delta}: must be finite and nonnegative")
    return cone


def _comma_list(text: str, flag: str, read) -> list:
    """Read the comma list of `flag`, each item through `read`."""
    try:
        return [read(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag}: cannot read {text!r}") from None


def _profile_table(sol):
    """The profile table of a solution.  Its potential is built only when
    the table is written, so a long path holds one profile at a time."""
    from .io import POTENTIAL_HEADER, potential_table

    def columns():
        yield from potential_table(sol.potential)[1]
    return POTENTIAL_HEADER, columns()


def cmd_solve(args) -> Run:
    from .io import format_number, potential_manifest, potential_table
    from .ma_solver import build_twist, check_tau, solve_ma
    grid = _grid_from(args)
    cone = _cone_from(args)
    try:
        check_tau(args.tau, cone.mu)
    except ValueError as exc:
        raise ValueError(f"--tau {args.tau}: {exc}") from None
    sol = solve_ma(build_twist(grid, cone.beta, args.delta), args.tau)
    pot = sol.potential
    return Run({"solution.csv": potential_table(pot),
                "phi.csv": (["t", "phi"], [grid.t, sol.phi])},
               f"residual={format_number(sol.residual)} iterations={sol.iterations}",
               grid, {"potential": potential_manifest(pot),
                      "residual": sol.residual, "iterations": sol.iterations})


def cmd_continue_path(args) -> Run:
    from .functionals import TAU_FLOOR, f_functional
    from .ma_solver import continuity_path
    grid = _grid_from(args)
    cone = _cone_from(args)
    if args.steps is not None and args.steps < 1:
        raise ValueError(f"--steps must be at least 1, got {args.steps}")
    trace = continuity_path(cone, args.delta, steps=args.steps, grid=grid)
    trace.validate()
    tables = {"trace.csv": (
        ["tau", "J", "F", "lambda1", "newton_iters", "residual"],
        zip(*[(s.tau, s.j_value, s.f_value, s.lambda1, s.solution.iterations,
               s.solution.residual) for s in trace.steps]))}
    frows = []
    for k, s in enumerate(trace.steps):
        tables[f"step_{k:04d}.csv"] = _profile_table(s.solution)
        if s.tau >= TAU_FLOOR:
            rep = f_functional(s.solution.phi, s.tau, s.solution.twist,
                               dphi=s.solution.dphi)
            frows.append((f"step{k:04d}", s.tau, args.beta, args.delta,
                          rep.j_value, rep.f_value, rep.linear_term, rep.log_term))
    tables["functionals.csv"] = (
        ["tag", "tau", "beta", "delta", "J", "F", "linear", "logterm"], zip(*frows))
    return Run(tables, f"{len(trace.steps)} steps, status {trace.status}", grid)


def cmd_smooth_family(args) -> Run:
    from .io import format_number
    from .ma_solver import ricci_lower_bound_margin, smoothing_family, two_sided_bound_check
    grid = _grid_from(args)
    cone = _cone_from(args)
    deltas = _comma_list(args.deltas, "--deltas", float)
    names = [f"solution_{d:.0e}.csv" for d in deltas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"--deltas: {deltas[names.index(name)]:g} and {deltas[i]:g} "
                             f"would both write {name}")
    rep = smoothing_family(cone, deltas, grid)
    margins = [ricci_lower_bound_margin(sol) for sol in rep.solutions]
    bounds = two_sided_bound_check(rep)
    tables = {
        "family.csv": (["delta", "sup_distance", "core_distance"],
                       zip(*[(sol.twist.delta, sup, core) for sol, sup, core in
                             zip(rep.solutions, rep.sup_distances, rep.core_distances)])),
        "margins.csv": (["delta", "min_ricci_margin", "margin_route_discrepancy",
                         "newton_iters"],
                        zip(*[(sol.twist.delta, m.min_margin, m.discrepancy, sol.iterations)
                              for m, sol in zip(margins, rep.solutions)])),
        "two_sided.csv": (["lower_constant", "upper_constant", "argmin_t"],
                          [[bounds.lower_constant], [bounds.upper_constant],
                           [bounds.argmin_t]]),
    }
    for name, sol in zip(names, rep.solutions):
        tables[name] = _profile_table(sol)
    return Run(tables, f"distances {[format_number(x) for x in rep.sup_distances]}", grid)


def _parse_pair(item: str, flag: str, first, second):
    """Read one `A:B` item of `flag` as (first(A), second(B))."""
    try:
        a, b = item.split(":")
        return first(a.strip()), second(b)
    except ValueError:
        raise ValueError(f"{flag}: cannot read {item!r}") from None


def cmd_bergman_scan(args) -> Run:
    from .bergman import (associated_hermitian_weight, bergman_density,
                          gram_matrix, partial_c0_scan)
    from .geometry import football_potential
    from .io import format_number
    grid = _grid_from(args)
    betas = _comma_list(args.betas, "--betas", float)
    ells = _comma_list(args.ells, "--ells", int)
    density = _parse_pair(args.density, "--density BETA:ELL", float, int) \
        if args.density else None
    rows = [(r.beta, r.ell, r.inf_rho, r.sup_rho, r.trace_check)
            for r in partial_c0_scan(betas, ells, grid)]
    tables = {"scan.csv": (["beta", "ell", "inf_rho", "sup_rho", "trace_check"], zip(*rows))}
    if density is not None:
        b, ell = density
        pot = football_potential(grid, b)
        rep = bergman_density(gram_matrix(ell, associated_hermitian_weight(pot), pot))
        tables["density.csv"] = (["t", "rho"], [grid.t, rep.rho])
    return Run(tables, f"{len(rows)} cells, min inf rho "
                       f"{format_number(min(r[2] for r in rows))}", grid)


def cmd_futaki(args) -> Run:
    from .io import format_number, read_potential_csv
    from .stability import futaki
    pot = read_potential_csv(args.metric)
    rep = futaki(pot)
    # conic inputs only support the theta route; the gradient column is nan
    grad = float("nan") if rep.via_gradient is None else rep.via_gradient
    disc = float("nan") if rep.discrepancy is None else rep.discrepancy
    return Run({"futaki.csv": (["via_gradient", "via_theta", "discrepancy"],
                               [[grad], [rep.via_theta], [disc]])},
               f"via_gradient={format_number(grad)} "
               f"via_theta={format_number(rep.via_theta)}", pot.grid)


def _location(loc: str):
    return loc if loc in ("zero", "infinity") else float(loc)


def _read_scan_config(path: str) -> tuple[dict, list]:
    """The `--scan-config` document as (configs, betas)."""
    def malformed(why):
        return ValueError(f"--scan-config {path}: {why}")
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise malformed(exc) from None
    if not (isinstance(doc, dict) and isinstance(doc.get("configs"), dict)
            and isinstance(doc.get("betas"), list)):
        raise malformed('expected {"configs": {ID: [[LOC, WEIGHT], ...]}, "betas": [BETA, ...]}')
    try:
        configs = {k: [(_location(p), float(w)) for p, w in v]
                   for k, v in doc["configs"].items()}
        betas = [float(b) for b in doc["betas"]]
    except (TypeError, ValueError):
        raise malformed("each point must be a [location, weight] pair "
                        "and each beta a number") from None
    return configs, betas


def cmd_log_futaki(args) -> Run:
    from .io import format_number, read_potential_csv
    from .stability import log_futaki, obstruction_scan
    scan = _read_scan_config(args.scan_config) if args.scan_config else None
    pot = read_potential_csv(args.metric)
    if scan is not None:
        rows = obstruction_scan(*scan, pot)
        return Run({"obstruction.csv": (["config_id", "beta", "log_futaki", "flag"],
                                        zip(*[(r.config_id, r.beta, r.log_futaki, r.flag)
                                              for r in rows]))},
                   f"{len(rows)} rows", pot.grid)
    points = [_parse_pair(item, "--points LOC:WEIGHT", _location, float)
              for item in args.points.split(",")]
    val = log_futaki(pot, args.beta, points)
    return Run({"log_futaki.csv": (["beta", "log_futaki"], [[args.beta], [val]])},
               format_number(val), pot.grid)


def cmd_capacity(args) -> Run:
    import numpy as np

    from .cone_analysis import FlatConeModel, LogLogCutoff, dirichlet_energy, selection_log_delta
    from .io import format_number
    model = FlatConeModel(args.n, args.beta_bar)
    if not (np.isfinite(args.eps) and args.eps > 0):
        raise ValueError(f"--eps must be finite and positive, got {args.eps}")
    if args.rule == "auto":
        log_delta = selection_log_delta(args.n, args.eps)
    else:
        if args.delta is None:
            raise ValueError("--rule manual requires --delta")
        if not args.delta > 0:
            raise ValueError(f"--delta must be positive, got {args.delta}")
        log_delta = float(np.log(args.delta))
    rep = dirichlet_energy(LogLogCutoff(args.eps, log_delta), model)
    return Run({"capacity.csv": (
        ["n", "beta_bar", "eps", "log_delta", "energy",
         "closed_form_bound", "coarea_quadrature", "coarea_closed_form"],
        [[x] for x in (args.n, args.beta_bar, args.eps, log_delta, rep.energy,
                       rep.closed_form_bound, rep.radial_factor_quadrature,
                       rep.radial_factor_coarea)])},
        f"energy={format_number(rep.energy)} "
        f"bound={format_number(rep.closed_form_bound)} "
        f"within_eps={rep.energy <= args.eps}")


def _parse_source(item: str) -> tuple:
    """Read `--source` as ("fs",), ("football", beta) or ("cone", n, beta_bar)."""
    kind, *params = item.split(":")
    readers = {"fs": (), "football": (float,), "cone": (int, float)}.get(kind)
    if readers is not None and len(params) == len(readers):
        try:
            return (kind, *(read(p) for read, p in zip(readers, params)))
        except ValueError:
            pass
    raise ValueError(f"--source fs|football:BETA|cone:N:BETA_BAR: cannot read {item!r}")


def cmd_volume_scan(args) -> Run:
    import numpy as np

    from .cone_analysis import (FlatConeModel, RadiusBeyondGrid, tube_volume,
                                volume_ratio_profile)
    from .geometry import football_potential
    from .io import format_number
    radii = np.linspace(args.r_min, args.r_max, args.num)
    kind, *params = _parse_source(args.source)
    if args.mode == "tube":
        if kind != "cone":
            raise ValueError("tube mode needs --source cone:N:BETA_BAR")
        annulus = _parse_pair(args.annulus, "--annulus A:B", float, float)
        rep = tube_volume(FlatConeModel(*params), annulus, radii)
        return Run({"profile.csv": (["r", "value"], [rep.radii, rep.volumes]),
                    "fit.csv": (["exponent", "constant"], [[rep.exponent], [rep.constant]])},
                   f"exponent={format_number(rep.exponent)}")
    if kind == "cone":
        source = FlatConeModel(*params)
        center = "vertex"
    else:
        grid = _grid_from(args)
        source = grid.reference if kind == "fs" else football_potential(grid, *params)
        center = args.center
    try:
        rep = volume_ratio_profile(source, center, radii)
    except RadiusBeyondGrid as exc:
        raise ValueError(f"--r-max {args.r_max:g} --grid-T {args.grid_T:g}: {exc}") from None
    return Run({"profile.csv": (["r", "value"], [rep.radii, rep.ratios]),
                "fit.csv": (["angle_estimate", "monotone_defect"],
                            [[rep.angle_estimate], [rep.monotone_defect]])},
               f"angle={format_number(rep.angle_estimate)}")


def _add_grid_flags(p):
    p.add_argument("--grid-T", type=float, default=16.0, dest="grid_T",
                   help="half width of the logarithmic grid (default 16)")
    p.add_argument("--grid-N", type=int, default=2049, dest="grid_N",
                   help="node count, odd (default 2049)")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError (exit 1, one line) instead of exiting 2,
    the code of a solver failure; --help and --version still exit 0.  A
    negative number in any form `float` reads (`-1e-3`, `-inf`) is a value,
    not an option, so it reaches the range check of its flag."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conic-ke",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="one twisted solve at (beta, delta, tau)")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--tau", type=float, required=True)
    _add_grid_flags(p)
    p.add_argument("--out", default="out-solve")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("continue-path", help="continuation from tau = 0 to mu")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--steps", type=int, default=None,
                   help="uniform step count (default: adaptive)")
    _add_grid_flags(p)
    p.add_argument("--out", default="out-path")
    p.set_defaults(func=cmd_continue_path)

    p = sub.add_parser("smooth-family", help="solves along a decreasing delta list")
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--deltas", default="1e-1,1e-2,1e-3,1e-4,1e-5")
    _add_grid_flags(p)
    p.add_argument("--out", default="out-family")
    p.set_defaults(func=cmd_smooth_family)

    p = sub.add_parser("bergman-scan", help="density-of-states floor over (beta, ell)")
    p.add_argument("--betas", default="0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95,1.0")
    p.add_argument("--ells", default="2,4,8,16")
    p.add_argument("--density", default=None, metavar="BETA:ELL",
                   help="also write the density profile t,rho for one cell")
    _add_grid_flags(p)
    p.add_argument("--out", default="out-bergman")
    p.set_defaults(func=cmd_bergman_scan)

    p = sub.add_parser("futaki", help="obstruction integral of a stored metric")
    p.add_argument("--metric", required=True, help="potential CSV")
    p.add_argument("--out", default="out-futaki")
    p.set_defaults(func=cmd_futaki)

    p = sub.add_parser("log-futaki", help="logarithmic obstruction invariant")
    p.add_argument("--metric", required=True)
    p.add_argument("--beta", type=float, default=0.7)
    p.add_argument("--points", default="zero:1,infinity:1",
                   help="comma list location:weight (pole names or t values)")
    p.add_argument("--scan-config", default=None,
                   help="JSON with configs/betas for an obstruction table")
    p.add_argument("--out", default="out-logfutaki")
    p.set_defaults(func=cmd_log_futaki)

    p = sub.add_parser("capacity", help="doubly logarithmic cutoff energy")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--rule", choices=("auto", "manual"), default="auto")
    p.add_argument("--delta", type=float, default=None)
    p.add_argument("--beta-bar", type=float, default=0.25, dest="beta_bar")
    p.add_argument("--out", default="out-capacity")
    p.set_defaults(func=cmd_capacity)

    p = sub.add_parser("volume-scan", help="ball-volume ratios or tube volumes")
    p.add_argument("--source", default="football:0.6",
                   help="fs | football:beta | cone:n:beta_bar")
    p.add_argument("--center", default="zero",
                   help="zero | infinity (surfaces); cones use the vertex")
    p.add_argument("--mode", choices=("ratio", "tube"), default="ratio")
    p.add_argument("--annulus", default="1:2", help="tube mode: a:b in the flat factor")
    p.add_argument("--r-min", type=float, default=0.1, dest="r_min")
    p.add_argument("--r-max", type=float, default=1.5, dest="r_max")
    p.add_argument("--num", type=int, default=24)
    _add_grid_flags(p)
    p.add_argument("--out", default="out-volume")
    p.set_defaults(func=cmd_volume_scan)

    return parser


def _merge_config_file(argv):
    """Support `--config file.json`: keys become flag defaults.  Their flags go
    right after the subcommand, so every flag on the command line, in any form
    argparse reads (`--flag=value`, an abbreviation), comes later and wins.
    A null key, a manifest's echo of an unset flag, keeps the flag's default."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a JSON file path")
    path = argv[i + 1]
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"--config {path}: expected a JSON object")
    rest = argv[:i] + argv[i + 2:]
    extra = [item for key, val in doc.items() if val is not None
             for item in ("--" + key.replace("_", "-"), str(val))]
    # options before the subcommand take no value, so it is the first positional
    k = next((j + 1 for j, a in enumerate(rest) if not a.startswith("-")), len(rest))
    return rest[:k] + extra + rest[k:]


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _merge_config_file(argv)
        args = build_parser().parse_args(argv)
        t0 = time.time()
        _write(args, args.func(args), t0)
        return EXIT_OK
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NewtonDiverged as exc:
        print(f"newton diverged: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except PositivityLost as exc:
        print(f"positivity lost: {exc}", file=sys.stderr)
        return EXIT_POSITIVITY
    except PathStalled as exc:
        print(f"path stalled: {exc}", file=sys.stderr)
        return EXIT_STALLED
    except SolverError as exc:
        print(f"solver did not converge: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
