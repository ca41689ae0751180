"""Rotationally symmetric Kahler metrics on the Riemann sphere.

Everything is phrased in the logarithmic radial coordinate t = log|z|^2.
A metric is stored through the profile of its potential derivative
Phi'(t) (the moment coordinate, increasing from 0 to 2) and Phi''(t)
(the positive density of the area form).  In this gauge

    omega      = i Phi''(t) dz wedge dzbar / |z|^2,
    area       = 2 pi (Phi'(+T) - Phi'(-T)),
    curvature  = -(log Phi'')'' / Phi''.

All derivative stencils are second-order centered differences and
`Grid.integrate` is composite Simpson, both validated by refinement tests;
a solve's whole-sphere integrals use its own node rule and tail masses
(`ma_solver.TwistData`).  Every sum over the nodes is
`numerics.weighted_sum`, so no grid integral depends on the BLAS thread
count.  The one Ricci potential here, `ricci_potential_h0`, is that of a
smooth metric (beta = mu = 1); the Bergman weight needs none, as it is
e^(-Phi), read off the potential.

A `Grid` computes its nodes, its Simpson weights and the round reference
profile once (the reference at construction, which refuses ends where its
density underflows to 0) and hands out the same read-only arrays
afterwards: copy them before changing them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import cumulative_integral, simpson_weights, weighted_sum

_POLE_TOL = 1e-4        # read_pole: third-node miss allowed, relative to beta^2


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform symmetric grid in t = log|z|^2 with Simpson weights.

    `t`, `weights` and `reference` are computed once per instance and are
    read-only; equality and hashing use the three fields alone.
    """

    t_min: float = -16.0
    t_max: float = 16.0
    n_nodes: int = 2049

    def __post_init__(self):
        if self.n_nodes < 3 or self.n_nodes % 2 == 0:
            raise ValueError("n_nodes must be odd and >= 3")
        if not (np.isfinite(self.t_min) and np.isfinite(self.t_max)):
            raise ValueError(f"grid bounds must be finite, got [{self.t_min}, {self.t_max}]")
        if not self.t_max > self.t_min:
            raise ValueError("empty grid")
        if abs(self.t_min + self.t_max) > 1e-12 * max(1.0, abs(self.t_max)):
            raise ValueError("grid must be symmetric about t = 0")
        # every solve divides by the round density; it underflows from |T| ~ 745
        if self.reference.phi_doubleprime[0] == 0.0:
            raise ValueError("the round metric's density underflows to 0 at the grid ends")

    @property
    def h(self) -> float:
        return (self.t_max - self.t_min) / (self.n_nodes - 1)

    @cached_property
    def t(self) -> np.ndarray:
        return _read_only(np.linspace(self.t_min, self.t_max, self.n_nodes))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(simpson_weights(self.n_nodes, self.h))

    @cached_property
    def reference(self) -> "RadialKahlerPotential":
        """The round metric on this grid (`fubini_study_potential`), read-only."""
        pot = fubini_study_potential(self)
        _read_only(pot.phi_prime)
        _read_only(pot.phi_doubleprime)
        return pot

    def integrate(self, values: np.ndarray) -> float:
        return weighted_sum(self.weights, values)


@dataclass(frozen=True)
class ConeConfiguration:
    """Angle data for the conic problem.

    The divisor is the two poles, each with cone fraction `beta`: the
    unique rotation-invariant configuration.  `mu` = 1 - (1 - beta) is the
    constant of the conic equation Ric(omega) = mu omega + (1 - beta) [D].
    """

    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.mu <= 0.0:
            raise ValueError("mu = 1 - (1-beta) must be positive")

    @property
    def mu(self) -> float:
        # Written as 1 - (1 - beta), not beta: the two differ in the last
        # bit for most beta (1 - (1 - 0.2013) != 0.2013 in double), and mu
        # sets the tau = mu targets, so the data files depend on this form
        # (the Bergman weight e^(-Phi) reads neither beta nor mu).  It rounds
        # to 0 for beta up to ~5.5e-17 (half an ulp below 1), which
        # __post_init__ rejects.
        return 1.0 - (1.0 - self.beta)


@dataclass
class RadialKahlerPotential:
    """Profile of a rotation-invariant Kahler potential.

    `phi_prime` and `phi_doubleprime` hold Phi'(t) and Phi''(t) per node,
    `base_offset` is the value of Phi at t_min (physical outputs never
    depend on it), and `cone` is the intended cone configuration: the
    fraction beta at both poles and the constant mu.  Every diagnostic of
    the potential reads beta and mu from it.
    """

    grid: Grid
    phi_prime: np.ndarray
    phi_doubleprime: np.ndarray
    base_offset: float = 0.0
    cone: ConeConfiguration = ConeConfiguration(1.0)

    def __post_init__(self):
        self.phi_prime = np.asarray(self.phi_prime, dtype=float)
        self.phi_doubleprime = np.asarray(self.phi_doubleprime, dtype=float)
        n = self.grid.n_nodes
        if self.phi_prime.shape != (n,) or self.phi_doubleprime.shape != (n,):
            raise ValueError("profile length does not match grid")

    def require_positive(self):
        if not np.all(self.phi_doubleprime > 0.0):
            raise ValueError("metric positivity violated: Phi'' <= 0 somewhere")

    def values(self) -> np.ndarray:
        """Potential values Phi(t) reconstructed by cumulative quadrature."""
        return cumulative_integral(self.phi_prime, self.grid.h, self.base_offset)


# ---------------------------------------------------------------------------
# reference metrics


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """e^x/(1+e^x) with full relative accuracy in both tails."""
    out = np.empty_like(np.asarray(x, dtype=float))
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def fubini_study_potential(grid: Grid) -> RadialKahlerPotential:
    """Round reference metric, Phi'(t) = 2 e^t / (1 + e^t): the football of
    beta = 1."""
    return football_potential(grid, 1.0)


def football_potential(grid: Grid, beta: float) -> RadialKahlerPotential:
    """Constant-curvature metric with equal cone fraction beta at both poles.

    Phi'(t) = 2 e^(beta t) / (1 + e^(beta t)); curvature is beta away from
    the poles and beta = 1 reproduces the round metric.
    """
    cone = ConeConfiguration(beta)
    t = grid.t
    pp = 2.0 * _sigmoid(beta * t)
    ppp = 2.0 * beta * _sigmoid(beta * t) * _sigmoid(-beta * t)
    offset = (2.0 / beta) * np.log1p(np.exp(beta * grid.t_min))
    return RadialKahlerPotential(grid, pp, ppp, offset, cone)


def football_phi(grid: Grid, beta: float) -> np.ndarray:
    """Closed-form relative potential of the football against the round metric.

    (2/beta) log(1 + e^(beta t)) - 2 log(1 + e^t); bounded on the whole line
    and tending to 0 at both ends.  The additive normalization demanded by
    the twisted equations is applied separately.
    """
    t = grid.t
    return (2.0 / beta) * np.logaddexp(0.0, beta * t) - 2.0 * np.logaddexp(0.0, t)


# ---------------------------------------------------------------------------
# pointwise and integral diagnostics


def liouville_tail(density: float, rate: float, slope: float) -> tuple[float, float]:
    """Mass x beyond an edge node of density E, and S = (log E)' there, for
    a tail with E = rate x + (slope/4) x^2: S^2 = rate^2 + slope E and
    x = 2E / (rate + S), NaN where S^2 < 0."""
    s = np.sqrt(rate * rate + slope * density)
    return 2.0 * density / (rate + s), s


def read_pole(pot: RadialKahlerPotential, pole: str) -> tuple[float, float]:
    """Cone fraction beta at a pole and the mass beyond its end node, read
    from Phi'' alone.

    With Phi'' = beta x + c x^2 in the moment distance x from the pole,
    s = (log Phi'')', taken away from the pole, obeys s^2 = beta^2 + 4c Phi''.
    s is read by centred differences at node 1 and one unit of t further in;
    beta^2 is the intercept of the line through the two.  The node halfway
    between must lie on it within _POLE_TOL beta^2, else this raises.
    """
    pot.require_positive()
    if pole not in ("zero", "infinity"):
        raise ValueError("pole must be 'zero' or 'infinity'")
    u = pot.phi_doubleprime if pole == "zero" else pot.phi_doubleprime[::-1]
    h = pot.grid.h
    m = max(1, round(0.5 / h))
    if 2 * m + 3 > u.size:
        raise ValueError(f"a pole read needs {2 * m + 3} nodes, the grid has {u.size}")
    i = np.array([1, 1 + m, 1 + 2 * m])
    s2 = ((np.log(u[i + 1]) - np.log(u[i - 1])) / (2.0 * h)) ** 2
    slope = (s2[2] - s2[0]) / (u[i[2]] - u[i[0]])
    beta2 = s2[0] - slope * u[i[0]]
    if not abs(s2[1] - beta2 - slope * u[i[1]]) < _POLE_TOL * beta2:
        raise ValueError(f"non-conic asymptotics at {pole}")
    beta = float(np.sqrt(beta2))
    return beta, float(liouville_tail(u[0], beta, slope)[0])


def defining_section_norm(grid: Grid) -> np.ndarray:
    """Reference norm of the degree-2 section vanishing at both poles.

    ||S||_0^2(t) = 4 e^t/(1+e^t)^2, sup-normalized to 1 at t = 0.
    """
    return np.exp(log_defining_section_norm(grid))


def log_defining_section_norm(grid: Grid) -> np.ndarray:
    """log ||S||_0^2, safe in the far tails."""
    t = grid.t
    return np.log(4.0) + t - 2.0 * np.logaddexp(0.0, t)


def ricci_potential_h0(pot0: RadialKahlerPotential) -> tuple[np.ndarray, float]:
    """Smooth-case Ricci potential: Ric(omega0) - omega0 = i ddbar h0.

    Requires a smooth input: `read_pole` reads beta within 1e-4 of 1 at
    both poles.  Uses the closed-form primitive h0 = -log Phi'' - Phi +
    t + c, with c fixed by the vanishing of the integral of (e^{h0} - 1)
    against omega0.
    Returns (h0 profile, normalization constant c).
    """
    for pole in ("zero", "infinity"):
        if abs(read_pole(pot0, pole)[0] - 1.0) > 1e-4:
            raise ValueError("ricci_potential_h0 requires a smooth (angle-1) metric")
    raw = -np.log(pot0.phi_doubleprime) - pot0.values() + pot0.grid.t
    w = pot0.grid.weights * pot0.phi_doubleprime
    m = np.max(raw)
    c = np.log(w.sum()) - (m + np.log(weighted_sum(w, np.exp(raw - m))))
    return raw + c, float(c)
