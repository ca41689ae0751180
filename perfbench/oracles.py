"""Output checks for every benchmark command, from closed forms or invariants.

Each oracle reads the CSV files a command wrote and returns None when they
pass, or a one-line reason when they do not.  Nothing here imports
conic_ke: the references are written out again from their closed forms.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

FOOTBALL_TOL = 1e-6      # README: the two-cone-point solution to 1e-6
TRACE_TOL = 1e-8         # integral of the Bergman density equals 2l+1
LOG_FUTAKI_TOL = 1e-6    # acceptance criterion 8 (teardrop 0.3 +- 1e-6)
FUTAKI_TOL = 1e-8        # the football is Einstein, so the theta route vanishes
RESIDUAL_TOL = 1e-11     # SolverConfig.newton_tol
VOLUME_TOL = 3e-3        # relative, pole ball-volume ratios of the football
ANGLE_TOL = 1e-2         # relative, acceptance criterion 10
TUBE_TOL = 1e-9          # tube volumes are exact in the radius


class OracleFailure(Exception):
    pass


def _table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


def _column(path: Path, name: str) -> np.ndarray:
    header, data = _table(path)
    return data[:, header.index(name)]


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise OracleFailure(message)


def football_phi(t: np.ndarray, beta: float) -> np.ndarray:
    """Relative potential of the football plus the constant the conic
    equation at tau = beta selects.

    With u = sigmoid(t) the normalization of the conic twist is a beta
    integral, a_beta = -log(4^(beta-1) B(beta, beta)); matching the density
    at t = 0 then fixes the additive constant.
    """
    shape = (2.0 / beta) * np.logaddexp(0.0, beta * t) - 2.0 * np.logaddexp(0.0, t)
    a_beta = -((beta - 1.0) * math.log(4.0) + 2.0 * math.lgamma(beta)
               - math.lgamma(2.0 * beta))
    shape_at_0 = (2.0 / beta - 2.0) * math.log(2.0)
    return shape + (a_beta - beta * shape_at_0 - math.log(beta)) / beta


def check_football(out: Path, params: dict) -> None:
    """sup |phi - football| over the core |t| <= T/2."""
    t, phi = _table(out / "phi.csv")[1].T
    core = np.abs(t) <= t.max() / 2.0
    err = float(np.max(np.abs(phi[core] - football_phi(t[core], params["beta"]))))
    _require(err <= FOOTBALL_TOL, f"core error {err:.3e} against the football")
    _require((out / "solution.csv").is_file(), "solution.csv missing")


def check_futaki(out: Path, params: dict) -> None:
    val = float(_column(out / "futaki.csv", "via_theta")[0])
    _require(abs(val) <= FUTAKI_TOL, f"futaki via theta {val:.3e} on a football")


def check_log_futaki(out: Path, params: dict) -> None:
    val = float(_column(out / "log_futaki.csv", "log_futaki")[0])
    want = 1.0 - params["beta"]
    _require(abs(val - want) <= LOG_FUTAKI_TOL,
             f"log-futaki {val!r}, want 1 - beta = {want!r}")


def check_smooth_family(out: Path, params: dict) -> None:
    header, data = _table(out / "family.csv")
    sup = data[:, header.index("sup_distance")]
    core = data[:, header.index("core_distance")]
    _require(bool(np.all(sup > 0) and np.all(np.diff(sup) < 0)),
             "sup distances not positive and decreasing")
    _require(bool(np.all(core <= sup)), "core distance above sup distance")
    files = sorted(out.glob("solution_*.csv"))
    _require(len(files) == len(sup), "one solution file per delta expected")


def check_bergman(out: Path, params: dict) -> None:
    header, data = _table(out / "scan.csv")
    ell = data[:, header.index("ell")]
    trace = data[:, header.index("trace_check")]
    worst = float(np.max(np.abs(trace - (2.0 * ell + 1.0))))
    _require(worst <= TRACE_TOL, f"trace check off 2l+1 by {worst:.3e}")
    inf_rho = data[:, header.index("inf_rho")]
    _require(bool(np.all(inf_rho > 0) and np.all(inf_rho <= data[:, header.index("sup_rho")])),
             "density floor not in (0, sup]")
    if params.get("density"):
        rho = _column(out / "density.csv", "rho")
        _require(bool(np.all(np.isfinite(rho)) and np.all(rho > 0)),
                 "density profile not positive")


def check_capacity(out: Path, params: dict) -> None:
    energy = float(_column(out / "capacity.csv", "energy")[0])
    _require(0.0 < energy <= params["eps"], f"cutoff energy {energy!r} above eps")


def check_volume_ratio(out: Path, params: dict) -> None:
    """Constant curvature beta and angle 2 pi beta: Vol(B_r) = 2 pi (1 - cos(sqrt(beta) r))."""
    beta = params["beta"]
    r, ratio = _table(out / "profile.csv")[1].T
    exact = 2.0 * np.pi * (1.0 - np.cos(math.sqrt(beta) * r)) / r ** 2
    worst = float(np.max(np.abs(ratio / exact - 1.0)))
    _require(worst <= VOLUME_TOL, f"ball-volume ratio off by {worst:.3e} relative")
    angle = float(_column(out / "fit.csv", "angle_estimate")[0])
    _require(abs(angle - beta) <= ANGLE_TOL * beta, f"angle estimate {angle!r}")


def check_tube(out: Path, params: dict) -> None:
    """V(r) = vol(unit (2n-2)-ball) (b^(2n-2) - a^(2n-2)) pi beta_bar r^2."""
    header, data = _table(out / "fit.csv")
    exponent = float(data[0, header.index("exponent")])
    constant = float(data[0, header.index("constant")])
    dim = 2 * params["n"] - 2
    a, b = params["annulus"]
    ball = math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)
    want = ball * (b ** dim - a ** dim) * math.pi * params["beta_bar"]
    _require(abs(exponent - 2.0) <= TUBE_TOL, f"tube exponent {exponent!r}")
    _require(abs(constant / want - 1.0) <= TUBE_TOL, f"tube constant {constant!r}")


def check_path(out: Path, params: dict) -> None:
    header, data = _table(out / "trace.csv")
    tau = data[:, header.index("tau")]
    residual = data[:, header.index("residual")]
    lam = data[:, header.index("lambda1")]
    _require(bool(np.all(residual <= RESIDUAL_TOL)),
             f"residual {residual.max():.3e} above {RESIDUAL_TOL:g}")
    _require(bool(np.all(lam > tau)), "lambda1 <= tau on the path")
    _require(tau[0] == 0.0 and bool(np.all(np.diff(tau) > 0))
             and abs(tau[-1] - params["beta"]) <= 1e-12,
             "tau does not increase from 0 to mu")
    if params.get("steps") is not None:
        _require(tau.size == params["steps"] + 1, f"{tau.size} rows for "
                 f"{params['steps']} steps")
    steps = sorted(out.glob("step_*.csv"))
    _require(len(steps) == tau.size, "one profile file per accepted step expected")


ORACLES = {
    "football": check_football,
    "futaki": check_futaki,
    "log_futaki": check_log_futaki,
    "smooth_family": check_smooth_family,
    "bergman": check_bergman,
    "capacity": check_capacity,
    "volume_ratio": check_volume_ratio,
    "tube": check_tube,
    "path": check_path,
}


def check(oracle: str, out: Path, params: dict) -> str | None:
    """None when the outputs in `out` pass, else the reason they do not."""
    try:
        ORACLES[oracle](out, params)
    except OracleFailure as exc:
        return str(exc)
    except (OSError, ValueError, IndexError) as exc:
        return f"unreadable output: {exc}"
    return None
