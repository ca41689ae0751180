"""Holomorphic obstruction invariants for radial metrics.

The rotation field z d/dz has Hamiltonian theta = Phi' - mean, and the
classical obstruction integral is evaluated both as the pairing of the
field with the Ricci potential gradient and as the pairing of theta with
the trace-free Ricci term; their agreement is an integration-by-parts
identity.  The logarithmic variant adds (1 - beta) times the weighted sum
of theta over the marked points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RadialKahlerPotential, read_pole, ricci_potential_h0
from .numerics import d1, d2, weighted_sum

_UNOBSTRUCTED_TOL = 1e-4   # obstruction_scan: |invariant| at most this is UNOBSTRUCTED


@dataclass
class HamiltonianPotential:
    """theta(t) for the rotation field, mean-normalized against the metric."""

    pot: RadialKahlerPotential
    theta: np.ndarray
    mean_removed: float

    def limit_at(self, pole: str) -> float:
        """Asymptotic value of theta at a pole: Phi' at the end node plus
        the mass beyond it (`read_pole`), not the end node's value alone."""
        mass = read_pole(self.pot, pole)[1]     # raises for another pole name
        end, sign = (-1, 1.0) if pole == "infinity" else (0, -1.0)
        return float(self.pot.phi_prime[end] + sign * mass - self.mean_removed)

    def at(self, location) -> float:
        """theta at a pole name or a t-location; ValueError for a t off the
        grid (np.interp would hold the end node's value) or not finite."""
        if isinstance(location, str):
            return self.limit_at(location)
        grid, t = self.pot.grid, float(location)
        if not grid.t_min <= t <= grid.t_max:
            raise ValueError(f"t = {t:g} lies outside the grid [{grid.t_min:g}, {grid.t_max:g}]")
        return float(np.interp(t, grid.t, self.theta))


def hamiltonian_theta(pot: RadialKahlerPotential) -> HamiltonianPotential:
    """Hamiltonian of the rotation field with metric mean zero."""
    pot.require_positive()
    grid = pot.grid
    w = grid.weights * pot.phi_doubleprime
    mean = weighted_sum(w, pot.phi_prime) / float(w.sum())
    return HamiltonianPotential(pot, pot.phi_prime - mean, mean)


@dataclass
class FutakiReport:
    """The obstruction integral by two routes; NaN marks a route not taken."""

    via_gradient: float     # grad-of-Ricci-potential pairing; NaN for a conic input
    via_theta: float        # -integral of theta (Ricci - metric)
    discrepancy: float      # |via_gradient - via_theta|


def futaki_theta_route(pot: RadialKahlerPotential) -> float:
    """-integral of theta (Ricci - metric), smooth part only.

    Works for conic inputs: away from the poles the Einstein defect is the
    bounded profile -(log Phi'')'' - Phi'', differenced directly.
    """
    grid = pot.grid
    theta = hamiltonian_theta(pot)
    defect = -d2(np.log(pot.phi_doubleprime), grid.h) - pot.phi_doubleprime
    return -2.0 * np.pi * grid.integrate(theta.theta * defect)


def futaki(pot: RadialKahlerPotential) -> FutakiReport:
    """Obstruction integral of the rotation field, by two routes.

    Route one integrates X(h) against the volume form and needs a smooth
    (angle-1) input, since the Ricci potential blows up at cone points;
    route two pairs the mean-normalized Hamiltonian with the Einstein
    defect and is evaluated for any input.  On smooth metrics the two
    agree up to discretization and both vanish in this class; on conic ones
    route one and the discrepancy are NaN.
    """
    grid = pot.grid
    via_theta = futaki_theta_route(pot)
    try:
        h, _ = ricci_potential_h0(pot)
    except ValueError:
        return FutakiReport(math.nan, via_theta, math.nan)
    hp = d1(h, grid.h)
    via_gradient = 2.0 * np.pi * grid.integrate(hp * pot.phi_doubleprime)
    return FutakiReport(via_gradient, via_theta, abs(via_gradient - via_theta))


def log_futaki(pot: RadialKahlerPotential, beta: float, points) -> float:
    """Logarithmic obstruction: f(X) + (1 - beta) * sum of weighted theta.

    `points` lists (location, weight) pairs with pole names or t-locations;
    weights must be positive.  A nonzero value obstructs constant-curvature
    cone metrics with the given angle data.
    """
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must lie in (0, 1]")
    pts = list(points)
    if not pts:
        raise ValueError("need at least one marked point")
    if any(w <= 0 for _, w in pts):
        raise ValueError("point weights must be positive")
    base = futaki_theta_route(pot)
    theta = hamiltonian_theta(pot)
    divisor_term = sum(w * theta.at(loc) for loc, w in pts)
    return float(base + (1.0 - beta) * divisor_term)


def linearity_check(pot: RadialKahlerPotential, beta: float, beta1: float,
                    points) -> float:
    """Residual of the affine relation between two cone-angle invariants.

    (beta - beta1) f(X) = (1-beta1) f_{(1-beta)D}(X) - (1-beta) f_{(1-beta1)D}(X)
    is exact for the affine definition; the residual is returned.
    """
    if beta == beta1:
        raise ValueError("beta and beta1 must differ")
    f = futaki_theta_route(pot)
    lhs = (beta - beta1) * f
    rhs = (1.0 - beta1) * log_futaki(pot, beta, points) \
        - (1.0 - beta) * log_futaki(pot, beta1, points)
    return float(abs(lhs - rhs))


@dataclass
class ObstructionRow:
    config_id: str
    beta: float
    log_futaki: float
    flag: str                 # OBSTRUCTED or UNOBSTRUCTED


def obstruction_scan(configs, beta_grid, pot: RadialKahlerPotential) -> list[ObstructionRow]:
    """Tabulate the logarithmic invariant over point configurations.

    `configs` maps an identifier to a list of (location, weight) pairs.
    Values within _UNOBSTRUCTED_TOL of zero are flagged UNOBSTRUCTED; the
    symmetric two-pole rows are the ones a solver run can realize, while
    obstructed rows (the teardrop family) admit no solution and are only
    flagged.
    """
    rows = []
    for config_id, pts in configs.items():
        for beta in beta_grid:
            val = log_futaki(pot, float(beta), pts)
            flag = "UNOBSTRUCTED" if abs(val) <= _UNOBSTRUCTED_TOL else "OBSTRUCTED"
            rows.append(ObstructionRow(config_id, float(beta), val, flag))
    return rows
