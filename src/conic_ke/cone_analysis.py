"""Flat product cones, capacity cutoffs and volume comparison diagnostics.

The model space is C^(n-1) x C_bb where C_bb is the two-dimensional cone
d rho^2 + bb^2 rho^2 d theta^2 of total angle 2 pi bb.  Points are
(z', rho, theta) with z' in C^(n-1), and all volumes follow the product
measure (Lebesgue) x (bb rho d rho d theta).

Capacity integrals exploit the product structure: the angular and flat
factors are integrated in closed form and only the radial factor is
quadratured, in the coordinate s = -log(rho / scale) so the doubly
logarithmic bands survive arbitrarily small cutoff parameters.

Ball-volume ratios about a cone's vertex are the closed form beta_bar
omega_2n (`cone_volume_ratios`); those of a surface profile about a pole
are read from its arclength and moment coordinate (`volume_ratio_profile`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import RadialKahlerPotential, read_pole
from .numerics import cumulative_integral, simpson_weights

LOG3 = math.log(3.0)
_ENERGY_NODES = 4097    # Simpson nodes of the band integral in dirichlet_energy


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in R^dim (dim = 0 gives 1), through log Gamma:
    Gamma(dim/2 + 1) overflows from dim = 342, where the volume is 8e-225."""
    return math.exp(dim / 2.0 * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0))


@dataclass(frozen=True)
class FlatConeModel:
    """Product of flat space with a two-dimensional cone of fraction beta_bar."""

    n: int
    beta_bar: float

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 0.0 < self.beta_bar <= 1.0:
            raise ValueError("beta_bar must lie in (0, 1]")

    def vertex_ball_volume(self, r: float) -> float:
        """Volume of B_r about a point on the singular axis (closed form)."""
        return self.beta_bar * unit_ball_volume(2 * self.n) * r ** (2 * self.n)


# ---------------------------------------------------------------------------
# doubly logarithmic cutoff and its energy


@dataclass(frozen=True)
class LogLogCutoff:
    """Radial cutoff gamma(rho) = ramp(log(-log(rho/eps_bar))).

    Vanishes for rho <= delta^3 eps_bar, equals one for rho >= delta
    eps_bar, with |grad gamma| <= 1/(rho (-log(rho/eps_bar))).  The ramp is
    the piecewise-linear profile of slope 1/log 3 < 1 in log(-log), so the
    stated gradient bound holds with margin.  delta is carried through its
    logarithm: the selection rule can push delta below the smallest positive
    double.
    """

    eps_bar: float
    log_delta: float

    def __post_init__(self):
        if not self.eps_bar > 0.0:
            raise ValueError("eps_bar must be positive")
        if self.log_delta >= math.log(1.0 / 3.0):
            raise ValueError("delta must be smaller than 1/3")

    @property
    def band_s(self) -> tuple[float, float]:
        """Support of the gradient in s = -log(rho/eps_bar)."""
        return -self.log_delta, -3.0 * self.log_delta

    def __call__(self, rho):
        rho = np.asarray(rho, dtype=float)
        pos = rho > 0.0
        s = np.full_like(rho, np.inf)
        s[pos] = -np.log(rho[pos] / self.eps_bar)
        s1, s2 = self.band_s
        # ramp linearly in log s over a window of width log 3
        with np.errstate(divide="ignore", invalid="ignore"):
            val = (math.log(s2) - np.log(np.maximum(s, 1e-300))) / LOG3
        out = np.clip(val, 0.0, 1.0)
        out[s <= 0.0] = 1.0
        out[~pos] = 0.0
        return out


def selection_log_delta(n: int, eps_bar: float) -> float:
    """log delta from the band-selection rule a_(n-1) <= eps^(2n-1) (-log delta);
    ValueError where eps^(2n-1) lies beyond e^(+-700), near the double range."""
    if not abs((2 * n - 1) * math.log(eps_bar)) <= 700.0:
        raise ValueError(f"eps^{2 * n - 1} leaves double range")
    return -unit_ball_volume(2 * n - 2) / eps_bar ** (2 * n - 1)


@dataclass
class CutoffEnergyReport:
    energy: float
    closed_form_bound: float       # a_(n-1) / (eps^(2n-2) (-log delta))
    radial_factor_quadrature: float
    radial_factor_coarea: float    # closed-form reorganization of the band integral

    def coarea_relative_difference(self) -> float:
        return abs(self.radial_factor_quadrature - self.radial_factor_coarea) \
            / abs(self.radial_factor_coarea)


def dirichlet_energy(cutoff: LogLogCutoff, model: FlatConeModel) -> CutoffEnergyReport:
    """Energy of the cutoff gradient over the ball of radius 1/eps_bar.

    Product quadrature: the angular factor 2 pi bb and the flat-slice ball
    volume are closed form; the radial band integral runs in the
    logarithmic coordinate.  The co-area reorganization of the same band
    integral is returned as a cross-check.  ValueError where eps^(2n-2) or
    R^(2n-2) lies beyond e^(+-700), so that the energy (at most 32 R^(2n-2))
    could leave the double range, or where the band end's square s2^2 would.
    """
    R = 1.0 / cutoff.eps_bar
    s1, s2 = cutoff.band_s
    k = 2 * model.n - 2
    if not (abs(k * math.log(cutoff.eps_bar)) <= 700.0 and s2 <= 1e154):
        raise ValueError(f"eps^{k}, R^{k} or the band end's square ({s2:.3g})^2 "
                         f"leaves double range")
    s = np.linspace(s1, s2, _ENERGY_NODES)
    w = simpson_weights(_ENERGY_NODES, s[1] - s[0])
    rho_sq = np.exp(np.clip(2.0 * (math.log(cutoff.eps_bar) - s), -745.0, 709.0))
    slice_vol = unit_ball_volume(2 * model.n - 2) \
        * np.maximum(R * R - rho_sq, 0.0) ** (model.n - 1)
    # |grad gamma|^2 rho drho = (1/log3)^2 / (rho^2 s^2) * rho * (rho ds)
    radial_quad = float(np.dot(w, (1.0 / LOG3) ** 2 / (s * s)))
    # the same integral evaluated through the co-area closed form
    radial_coarea = (1.0 / LOG3) ** 2 * (1.0 / s1 - 1.0 / s2)
    energy = 2.0 * np.pi * model.beta_bar \
        * float(np.dot(w, (1.0 / LOG3) ** 2 / (s * s) * slice_vol))
    bound = unit_ball_volume(2 * model.n - 2) / (cutoff.eps_bar ** (2 * model.n - 2) * s1)
    return CutoffEnergyReport(energy, bound, radial_quad, radial_coarea)


# ---------------------------------------------------------------------------
# volume comparison


def check_radii(r_list) -> np.ndarray:
    """`r_list` as an array; ValueError unless it holds at least two radii,
    positive and increasing, whose squares are normal doubles: every
    ratio and tube volume divides by or multiplies with r^2."""
    r = np.asarray(list(r_list), dtype=float)
    if r.ndim != 1 or r.size < 2 or not (r[0] > 0 and np.all(np.diff(r) > 0)
                                         and np.isfinite(r[-1])):
        raise ValueError("radii must be at least two, finite, positive and increasing")
    info = np.finfo(float)
    if 2 * math.log(r[0]) < math.log(info.tiny) or 2 * math.log(r[-1]) > math.log(info.max):
        raise ValueError("the squares of the radii leave double range")
    return r


class RadiusOutOfRange(ValueError):
    """A radius lies outside the range a volume profile resolves; `end`,
    "min" or "max", says at which end of the radii."""

    def __init__(self, end: str, message: str):
        super().__init__(message)
        self.end = end


@dataclass
class VolumeRatioReport:
    radii: np.ndarray
    ratios: np.ndarray            # Vol(B_r)/r^(2n)
    monotone_defect: float        # largest increase between consecutive radii
    angle_estimate: float         # the cone fraction the ratios give


def cone_volume_ratios(model: FlatConeModel, r_list) -> VolumeRatioReport:
    """Ball-volume ratios Vol(B_r)/r^(2n) about the vertex of a flat cone.

    A cone is scale-invariant, so the ratio is Vol(B_1) = beta_bar omega_2n
    at every radius: the monotone defect is 0 and the angle estimate is
    beta_bar itself.
    """
    r = check_radii(r_list)
    return VolumeRatioReport(r, np.full(r.size, model.vertex_ball_volume(1.0)), 0.0,
                             model.beta_bar)


def volume_ratio_profile(pot: RadialKahlerPotential, pole: str, r_list) -> VolumeRatioReport:
    """Ball-volume ratios Vol(B_r)/r^2 of a surface profile about a pole.

    The pole is 'zero' or 'infinity'; the geodesic radius is inverted
    through the arclength integral and the enclosed area through the moment
    coordinate.  The small-radius limit of ratio/pi estimates the cone
    fraction.
    """
    r = check_radii(r_list)
    beta, x0 = read_pole(pot, pole)
    grid = pot.grid
    pp = pot.phi_doubleprime if pole == "zero" else pot.phi_doubleprime[::-1]
    prime = pot.phi_prime if pole == "zero" else 2.0 - pot.phi_prime[::-1]
    # geodesic distance from the pole: arclength plus the distance
    # beyond the end node, the integral of dx / sqrt(2 Phi'') over the
    # read's tail mass x0 with Phi'' = beta x + c x^2 met at the node
    q = (pp[0] - beta * x0) / (beta * x0)          # c x0 / beta, above -1
    y = math.sqrt(abs(q))
    arc = math.asinh(y) if q > 0 else math.asin(y)
    tail = math.sqrt(2.0 * x0 / beta) * (arc / y if y > 0 else 1.0)
    dist = cumulative_integral(np.sqrt(pp / 2.0), grid.h, tail)
    area = 2.0 * np.pi * prime
    if r[-1] > dist[-1]:
        raise RadiusOutOfRange("max", f"radius {r[-1]:.6g} exceeds {dist[-1]:.6g}, "
                                      f"the largest radius the grid reaches")
    if r[0] < dist[0]:
        raise RadiusOutOfRange("min", f"radius {r[0]:.6g} is below {dist[0]:.6g}, "
                                      f"the smallest radius the grid resolves")
    # invert r -> t and read the area in log space: both quantities are
    # exponential near the pole, so log-linear interpolation is sharp
    tr = np.interp(np.log(r), np.log(dist), grid.t)
    ratios = np.exp(np.interp(tr, grid.t, np.log(area))) / r ** 2
    inc = np.diff(ratios)
    return VolumeRatioReport(r, ratios, float(max(inc.max(), 0.0)),
                             float(np.mean(ratios[:3]) / np.pi))


@dataclass
class TubeVolumeReport:
    """Tube volumes V(r) = C r^2 with `exponent` 2 and `constant` C, in closed form."""

    radii: np.ndarray
    volumes: np.ndarray
    exponent: float
    constant: float


def tube_volume(model: FlatConeModel, flat_annulus: tuple[float, float],
                r_list) -> TubeVolumeReport:
    """Volume of the tube around the singular axis inside a compact slab.

    The compact set is {a <= |z'| <= b} in the flat factor; the tube of
    radius r adds the cone disc of area pi bb r^2, so the volume is C r^2 with
    C the slab volume times pi bb: exponent 2.0 and C, not a fit.
    """
    if model.n < 2:
        raise ValueError("tube volumes need n >= 2")
    a, b = flat_annulus
    if not 0.0 <= a < b:
        raise ValueError("bad annulus")
    r = check_radii(r_list)
    dim = 2 * model.n - 2
    flat_vol = unit_ball_volume(dim) * (b ** dim - a ** dim)
    vols = flat_vol * (np.pi * model.beta_bar * r * r)
    return TubeVolumeReport(r, vols, 2.0, flat_vol * (np.pi * model.beta_bar))
