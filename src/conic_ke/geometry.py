"""Rotationally symmetric Kahler metrics on the Riemann sphere.

Everything is phrased in the logarithmic radial coordinate t = log|z|^2.
A metric is stored through the profile of its potential derivative
Phi'(t) (the moment coordinate, increasing from 0 to 2) and Phi''(t)
(the positive density of the area form).  In this gauge

    omega      = i Phi''(t) dz wedge dzbar / |z|^2,
    area       = 2 pi (Phi'(+T) - Phi'(-T)),
    curvature  = -(log Phi'')'' / Phi''.

All derivative stencils are second-order centered differences and all
quadrature is composite Simpson; both are validated by refinement tests.

A `Grid` computes its nodes, its Simpson weights and the round reference
profile once, on first access, and hands out the same read-only arrays
afterwards: copy them before changing them in place.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import cumulative_integral, simpson_weights

_FIT_FRACTION = 0.2     # share of the nodes next to a pole in cone_angle_at_pole's fit


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
        return float(np.dot(self.weights, values))


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
        # sets the tau = mu targets and the Bergman weight, so the data files
        # depend on this form.  It rounds to 0 for beta up to ~5.5e-17 (half
        # an ulp below 1), which __post_init__ rejects.
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
    """Round reference metric: Phi'(t) = 2 e^t / (1 + e^t)."""
    t = grid.t
    pp = 2.0 * _sigmoid(t)
    ppp = 2.0 * _sigmoid(t) * _sigmoid(-t)
    offset = 2.0 * np.log1p(np.exp(grid.t_min))
    return RadialKahlerPotential(grid, pp, ppp, offset)


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


def cone_angle_at_pole(pot: RadialKahlerPotential, pole: str,
                       residual_threshold: float = 0.2) -> float:
    """Cone fraction from the asymptotic slope of log Phi''.

    A line is fitted to log Phi'' over the outer _FIT_FRACTION of the grid;
    the slope tends to +beta at the zero pole and -beta at infinity.  A large
    fit residual signals non-conic asymptotics and raises.
    """
    pot.require_positive()
    n = pot.grid.n_nodes
    k = max(8, int(_FIT_FRACTION * n))
    if pole == "zero":
        sl = slice(0, k)
        sign = 1.0
    elif pole == "infinity":
        sl = slice(n - k, n)
        sign = -1.0
    else:
        raise ValueError("pole must be 'zero' or 'infinity'")
    x = pot.grid.t[sl]
    y = np.log(pot.phi_doubleprime[sl])
    coeff = np.polyfit(x, y, 1)
    fit = np.polyval(coeff, x)
    res = float(np.sqrt(np.mean((y - fit) ** 2)))
    if res > residual_threshold:
        raise ValueError(f"non-conic asymptotics at {pole}: fit residual {res:.3g}")
    beta = sign * float(coeff[0])
    if not 0.0 < beta <= 1.0 + 1e-6:
        raise ValueError(f"fitted cone fraction {beta:.4g} outside (0, 1]")
    return min(beta, 1.0)


def defining_section_norm(grid: Grid) -> np.ndarray:
    """Reference norm of the degree-2 section vanishing at both poles.

    ||S||_0^2(t) = 4 e^t/(1+e^t)^2, sup-normalized to 1 at t = 0.
    """
    return np.exp(log_defining_section_norm(grid))


def log_defining_section_norm(grid: Grid) -> np.ndarray:
    """log ||S||_0^2, safe in the far tails."""
    t = grid.t
    return np.log(4.0) + t - 2.0 * np.logaddexp(0.0, t)


def ricci_potential(pot: RadialKahlerPotential) -> tuple[np.ndarray, float]:
    """Potential h with Ricci(omega) = mu*omega + cone terms + i ddbar h.

    Uses the closed-form primitive h = -log Phi'' - mu*Phi + beta*t + c
    with beta and mu from `pot.cone`.  It is valid whenever the class
    normalization and the angle bookkeeping beta0 + beta_inf = 2 mu hold,
    as they do for one cone fraction at both poles; c enforces
    integral of (e^h - 1) against omega equal to zero.
    Returns (h profile, normalization constant c).
    """
    pot.require_positive()
    cone = pot.cone
    t = pot.grid.t
    phi_vals = pot.values()
    raw = -np.log(pot.phi_doubleprime) - cone.mu * phi_vals + cone.beta * t
    w = pot.grid.weights * pot.phi_doubleprime
    m = np.max(raw)
    c = np.log(np.dot(w, np.ones_like(raw))) - (m + np.log(np.dot(w, np.exp(raw - m))))
    return raw + c, float(c)


def ricci_potential_h0(pot0: RadialKahlerPotential) -> tuple[np.ndarray, float]:
    """Smooth-case Ricci potential: Ric(omega0) - omega0 = i ddbar h0.

    Requires a smooth input: a potential whose cone has beta = 1 and whose
    fitted angle at both poles is 1.  The constant is fixed by the
    vanishing of the integral of (e^{h0} - 1) against omega0.
    """
    if pot0.cone.beta != 1.0:
        raise ValueError(f"ricci_potential_h0 requires a smooth metric, "
                         f"got a cone of beta = {pot0.cone.beta:g}")
    for pole in ("zero", "infinity"):
        b = cone_angle_at_pole(pot0, pole)
        if abs(b - 1.0) > 5e-2:
            raise ValueError("ricci_potential_h0 requires a smooth (angle-1) metric")
    return ricci_potential(pot0)

