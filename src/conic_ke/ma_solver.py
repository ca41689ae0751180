"""Radial Monge-Ampere solver and continuation machinery.

The twisted equation solved here, written for the relative potential
phi = Phi - Phi0 against the round reference metric, is

    phi''(t) = Phi0''(t) * ( W(t) exp(-tau * phi) - 1 ),

where W = exp(h) is the twist density: either the genuinely conic weight
||S||_0^(-2(1-beta)) e^(a_beta) or its delta-smoothing
(delta + ||S||_0^2)^(-(1-beta)) e^(c_delta), both normalized so the twisted
volume of the whole sphere equals the reference volume.

Discretization: Numerov compact fourth-order stencil in the interior with
tail-matched Robin closures at the truncation boundary.  Each closure sets
phi'(t_min) to the tail's twisted mass less its reference mass; that mass
(`TwistData.tail_mass`) is the first integral of Liouville's tail equation
phi'' = A e^(r s - tau phi), with the decay rate r read off the twist, and
with the node rule the rows induce it closes every whole-sphere integral of
a solve.  With u = sigma(t) the tail masses are integrals over
[0, sigma(-T)]: for delta = 0 incomplete beta functions summed as series,
for delta > 0 smooth integrals taken by a tanh-sinh rule, both to rounding.
On the football at tau = mu, T = 16, N = 2049, the error over |t| <= 8 is
1.4e-7 at beta = 0.1, 3.0e-8 at beta = 0.2 and below 1e-8 from beta = 0.3
up.  In the smoothing knee (delta near 4 e^(-T)) r is not exact: at
beta = 0.2, delta = 1e-10 the core moves by 1.7e-3 from T = 16 to T = 32.
Where the first integral has no real root the closure row is not finite:
a Newton trial step there is damped, and at the initial guess the solve
raises NewtonDiverged (conic beta = 0.02 from the flat start).
The damped Newton iteration keeps the system tridiagonal throughout.

Spectral gap: each angular mode of the metric Laplacian is one SPD Jacobi
matrix whose lowest eigenvalue is the mode's gap (for m = 0 the Neumann
pencil is replaced by its (n-1)-sized transform, which drops the constant
null mode).  That eigenvalue is taken by shifted inverse iteration; the shift
only rises when a positive definite factorization proves it below the
spectrum, and the iteration stops when the Rayleigh quotient stops falling.

Both kernels are LAPACK routines (dgtsv for the Newton steps, dpttrf and
dpttrs for the gap) called through scipy's compiled wrapper module
`scipy.linalg._flapack`, which the first solve loads on its own in ~4 ms; the
`scipy.linalg` package, whose import pulls in scipy's array-API layer for
~0.25 s, is never imported.  A process that never solves loads numpy alone.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import NewtonDiverged, PathStalled, PositivityLost, SolverError
from .functionals import j_functional
from .geometry import (
    ConeConfiguration,
    Grid,
    RadialKahlerPotential,
    _sigmoid,
    defining_section_norm,
    liouville_tail,
    log_defining_section_norm,
)
from .numerics import cumulative_integral, d2, second_difference_floor, weighted_sum


# ---------------------------------------------------------------------------
# twist densities


def _tanh_sinh_rule(step: float = 1.0 / 16.0, reach: float = 3.5):
    """Double-exponential (tanh-sinh) rule on [0, 1]: nodes and weights.

    Nodes sit at sigma(pi sinh(k step)), so the distance to the left
    endpoint keeps full relative accuracy; truncating at |k step| <= reach
    drops weights below 1e-22.  Integrands analytic on the closed interval
    converge geometrically in 1/step (Takahasi & Mori, 1974).
    """
    k = np.arange(-reach, reach + 0.5 * step, step)
    y = 0.5 * np.pi * np.sinh(k)
    nodes = _sigmoid(2.0 * y)
    weights = 0.25 * np.pi * step * np.cosh(k) / np.cosh(y) ** 2
    return nodes, weights


_TS_NODES, _TS_WEIGHTS = _tanh_sinh_rule()
_SERIES_K = np.arange(60.0)  # edge x = sigma(edge) < 1/2, so x^60 < 1e-18


def _incomplete_beta_series(a: float, b: float, x: float) -> float:
    """x^-a times the incomplete beta integral of u^(a-1) (1-u)^(b-1) over [0, x]."""
    k = _SERIES_K
    coeff = np.cumprod(np.concatenate(([1.0], (k[1:] - b) / k[1:])))  # (1-b)_k / k!
    return float(np.sum(coeff * x ** k / (k + a)))


def _twist_tail(edge: float, beta: float, delta: float) -> float:
    """Integral of Phi0'' (delta + ||S||_0^2)^(beta-1), the unnormalized
    twist, over (-inf, edge].  By the reflection t -> -t the right tail above
    t_max is this routine at edge = -t_max.

    In u = sigma(s) the measure Phi0'' ds is 2 du and ||S||_0^2 = 4u(1-u),
    so the tail is an integral over [0, x] with x = sigma(edge) < 1/2.  For
    delta = 0 it is an incomplete beta function summed as a series; for
    delta > 0 the integrand is smooth and tanh-sinh runs in u on
    [0, min(x, delta/4)] and in log u on [delta/4, x], where the integrand
    turns from constant to the conic power u^(beta-1).
    """
    x = float(_sigmoid(np.array([edge]))[0])
    if delta == 0.0:
        return 2.0 * 4.0 ** (beta - 1.0) * x ** beta * _incomplete_beta_series(beta, beta, x)

    def integral(u, du):
        return float(np.sum(2.0 * (delta + 4.0 * u * (1.0 - u)) ** (beta - 1.0) * du))

    knee = min(x, 0.25 * delta)
    total = integral(knee * _TS_NODES, knee * _TS_WEIGHTS)
    if knee < x:
        span = math.log(x) - math.log(knee)
        u = knee * np.exp(span * _TS_NODES)
        total += integral(u, span * _TS_WEIGHTS * u)
    return total


def _raw_log_weight(grid: Grid, beta: float, delta: float) -> np.ndarray:
    """log (delta + ||S||_0^2)^(beta-1) per node, without its normalization."""
    log_norm = log_defining_section_norm(grid)
    if delta == 0.0:
        return -(1.0 - beta) * log_norm
    return -(1.0 - beta) * np.log(delta + np.exp(log_norm))


@dataclass(frozen=True)
class TwistData:
    """Twist density W = e^h on the grid plus its exact tail integrals.

    The twist is the one source of a solve's grid, cone (beta, mu) and
    delta, and of every whole-sphere integral of the twisted problem: one
    node rule (`reference_weights`) plus one mass per tail (`tail_mass`).
    Each tail is stored once.  The twist and the reference are even in t,
    and `Grid` requires |t_min + t_max| <= 1e-12 T, so the tail beyond t_max
    is taken equal to the one below t_min (the CLI grids are exactly
    symmetric, where the two are identical).
    """

    grid: Grid
    cone: ConeConfiguration
    delta: float
    constant: float           # a_beta (delta = 0) or c_delta (delta > 0)
    log_weight: np.ndarray    # h(t) per node, constant included
    tail_weighted: float      # integral of Phi0'' e^h over (-inf, t_min]
    tail_plain: float         # integral of Phi0'' over (-inf, t_min]

    @property
    def reference_weights(self) -> np.ndarray:
        """Node rule of the reference measure Phi0'' dt, tails excluded: the
        end-corrected trapezoid rule that summing the Numerov and closure
        rows induces.  So at a solution the rows telescope, and the twisted
        volume is the reference volume to the Newton residual.  Its end error
        is h^3/24 (f''(t_min) + f''(t_max)), third order for a general f; a
        solve's integrands carry Phi0'' and vanish at the ends."""
        w = np.full(self.grid.n_nodes, self.grid.h)
        w[0] = w[-1] = self.grid.h * 5.0 / 12.0
        w[1] = w[-2] = self.grid.h * 13.0 / 12.0
        return w * self.grid.reference.phi_doubleprime

    @property
    def reference_volume(self) -> float:
        """Reference volume of the whole sphere over 2 pi: node rule plus tails."""
        return self.reference_weights.sum() + self.tail_plain + self.tail_plain

    def reference_mean(self, f: np.ndarray) -> float:
        """Mean of f against the reference metric over the whole sphere; each
        tail carries f at its edge node."""
        tp = self.tail_plain
        return float((weighted_sum(self.reference_weights, f) + f[0] * tp + f[-1] * tp)
                     / self.reference_volume)

    def density(self, phi: np.ndarray, tau: float) -> np.ndarray:
        """Phi0'' e^(h - tau phi): the twisted metric density at phi."""
        return self.grid.reference.phi_doubleprime * np.exp(self.log_weight - tau * phi)

    def tail_mass(self, tau: float, edge_phi: float) -> tuple[float, float]:
        """Twisted mass of the tail below t_min and its derivative in the edge
        value phi_0 = `edge_phi` (the tail beyond t_max is this at phi[-1]).

        Below t_min the equation is taken as Liouville's phi'' = A e^(r s -
        tau phi), with r the edge density over `tail_weighted`: beta for a
        conic tail, 1 once delta >> 4 e^(-T), and off by up to 1.7e-3 in the
        knee between (T = 16, beta = 0.2, delta = 1e-10).  With phi' -> 0 at
        the pole its first integral gives the mass 2E / (r + S), E the twisted
        density at t_min and S = sqrt(r^2 - 2 tau E) (`liouville_tail` with
        slope -2 tau), and the derivative -tau E / S: `tail_weighted` at
        tau = 0, NaN for S^2 < 0."""
        edge = self.grid.reference.phi_doubleprime[0] * np.exp(self.log_weight[0])
        rate = edge / self.tail_weighted
        e = edge * np.exp(-tau * edge_phi)
        mass, s = liouville_tail(e, rate, -2.0 * tau)
        return mass, -tau * e / s

    def twisted_mean(self, phi: np.ndarray, tau: float, f) -> float:
        """Integral of f against the twisted density e^(h - tau phi) omega0
        over the whole sphere, over the reference volume; each tail carries
        f at its edge node and the mass `tail_mass`, so the mean is NaN where
        that mass is.  `f` is an array or a number.  The exponent is shifted
        by its maximum before the node sum."""
        f = np.broadcast_to(f, phi.shape)
        expo = self.log_weight - tau * phi
        m = expo.max()
        total = math.exp(m) * weighted_sum(self.reference_weights, np.exp(expo - m) * f) \
            + self.tail_mass(tau, phi[0])[0] * f[0] + self.tail_mass(tau, phi[-1])[0] * f[-1]
        return float(total / self.reference_volume)


def build_twist(grid: Grid, beta: float, delta: float) -> TwistData:
    """Assemble the twist density and its semi-infinite tail integrals.

    The normalizing constant (a_beta for delta = 0, c_delta for delta > 0)
    makes the twisted volume of the whole sphere at phi = 0, node rule plus
    exact tails, equal the reference volume.  A beta outside (0, 1] or a
    delta that is negative or not finite raises ValueError.
    """
    cone = ConeConfiguration(beta)
    if not (math.isfinite(delta) and delta >= 0.0):
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    raw = _raw_log_weight(grid, beta, delta)
    tail = _twist_tail(grid.t_min, beta, delta)
    plain_tail = float(grid.reference.phi_prime[0])   # Phi0'' over (-inf, t_min]
    unnormalized = TwistData(grid, cone, delta, 0.0, raw, tail, plain_tail)
    const = -math.log(unnormalized.twisted_mean(np.zeros(grid.n_nodes), 0.0, 1.0))
    return TwistData(grid, cone, delta, const, raw + const, math.exp(const) * tail,
                     plain_tail)


# ---------------------------------------------------------------------------
# solution


@dataclass
class MASolution:
    """Solved twisted equation at one tau; beta, delta and the grid are
    those of its twist."""

    twist: TwistData
    tau: float
    phi: np.ndarray
    dphi: np.ndarray
    residual: float
    iterations: int

    @property
    def grid(self) -> Grid:
        return self.twist.grid

    @property
    def metric_density(self) -> np.ndarray:
        """Phi''(t), evaluated through the equation (exact at the solution)."""
        return self.twist.density(self.phi, self.tau)

    def mean(self, f: np.ndarray) -> float:
        """Mean of f against the solved metric over the whole sphere (the
        twist's `twisted_mean`).  The solved volume is the reference volume
        to the Newton residual, so the mean of 1 is 1."""
        return self.twist.twisted_mean(self.phi, self.tau, f)

    @property
    def potential(self) -> RadialKahlerPotential:
        base = self.grid.reference
        # the twist's cone for delta = 0, smooth once smoothed
        cone = self.twist.cone if self.twist.delta == 0.0 else ConeConfiguration(1.0)
        return RadialKahlerPotential(
            self.grid,
            base.phi_prime + self.dphi,
            self.metric_density,
            base.base_offset + self.phi[0],
            cone)


def _linearize(phi, tau, twist, p0, h):
    """Residual and its tridiagonal Jacobian (solve_banded layout (1,1)).

    The residual is the Numerov interior rows plus Taylor-corrected Robin
    closure rows, each matching its one-sided derivative to the tail's
    twisted mass less its reference mass (`TwistData.tail_mass`).
    The two-point closure derivative
    (phi1 - phi0)/h - h (f0/3 + f1/6) approximates phi'(t_min) to O(h^3)
    and, unlike wider one-sided stencils, telescopes exactly against the
    interior stencil, so the tau = 0 system is discretely compatible.
    """
    n = phi.size
    w = np.exp(twist.log_weight - tau * phi)
    f = p0 * (w - 1.0)
    g = tau * p0 * w
    r = np.empty_like(phi)
    r[1:-1] = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / (h * h) \
        - (f[:-2] + 10.0 * f[1:-1] + f[2:]) / 12.0
    mass_l, dmass_l = twist.tail_mass(tau, phi[0])     # phi'(t_min) = mass_l - tail_plain
    mass_r, dmass_r = twist.tail_mass(tau, phi[-1])    # phi'(t_max) = tail_plain - mass_r
    dl = (phi[1] - phi[0]) / h - h * (f[0] / 3.0 + f[1] / 6.0)
    dr = (phi[-1] - phi[-2]) / h + h * (f[-1] / 3.0 + f[-2] / 6.0)
    r[0] = dl - (mass_l - twist.tail_plain)
    r[-1] = dr + (mass_r - twist.tail_plain)

    ab = np.zeros((3, n))
    inv_h2 = 1.0 / (h * h)
    ab[0, 2:] = inv_h2 + g[2:] / 12.0          # A[i, i+1]
    ab[1, 1:-1] = -2.0 * inv_h2 + 10.0 * g[1:-1] / 12.0
    ab[2, :-2] = inv_h2 + g[:-2] / 12.0        # A[i, i-1]
    ab[1, 0] = -1.0 / h + h * g[0] / 3.0 - dmass_l
    ab[0, 1] = 1.0 / h + h * g[1] / 6.0
    ab[1, -1] = 1.0 / h - h * g[-1] / 3.0 + dmass_r
    ab[2, -2] = -1.0 / h - h * g[-2] / 6.0
    return r, ab


def _lapack():
    """scipy's compiled LAPACK wrapper module `scipy.linalg._flapack`.

    The first call loads it straight from its file and registers it in
    `sys.modules`, so the `scipy` and `scipy.linalg` packages are never
    imported; later calls, and an `import scipy.linalg` made earlier, leave
    the one loaded module to be reused.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")     # imports nothing for a top-level name
    if scipy is None:
        raise ImportError("scipy is not installed; its LAPACK wrappers are needed to solve")
    directory = f"{scipy.submodule_search_locations[0]}/linalg"
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader,
                    importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"no compiled module _flapack in {directory}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _solve_tridiagonal(ab, rhs):
    """Solve the (1,1)-banded system `ab` by LAPACK dgtsv.

    The arguments and checks are those of `scipy.linalg.solve_banded((1, 1),
    ab, rhs)`, so the solution is bit for bit the same.
    """
    if not (np.isfinite(ab).all() and np.isfinite(rhs).all()):
        raise ValueError("array must not contain infs or NaNs")
    *_, x, info = _lapack().dgtsv(ab[2, :-1], ab[1], ab[0, 1:], rhs)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgtsv")
    return x


def _implied_density_positive(phi, p0, h) -> bool:
    """Whether Phi'' of an iterate, read through the plain difference
    stencil, lies above minus the stencil's rounding floor at every node
    (above 0 at phi = 0).  Near the ends of a wide grid p0 is below that
    floor, so there the sign of p0 + d2(phi) is noise."""
    return bool(np.all(p0 + d2(phi, h) > -second_difference_floor(phi, h)))


def _newton_system(phi, tau, twist, p0, h):
    """`_linearize` and the residual's max norm, which is inf when the
    residual or the Jacobian is not finite: e^(-tau phi) overflows on an
    iterate that is negative enough, and a closure row has no real root
    when its tail is too heavy (`TwistData.tail_mass`)."""
    with np.errstate(all="ignore"):
        r, ab = _linearize(phi, tau, twist, p0, h)
    res = float(np.max(np.abs(r)))
    if not (math.isfinite(res) and np.isfinite(ab).all()):
        return r, ab, math.inf
    return r, ab, res


def _solve_linear_mean_zero(twist, p0):
    """Calabi-Yau step tau = 0: one banded solve with the mean-zero gauge.

    The Numerov system is singular along constants; the middle row is
    replaced by a pin and the solution shifted to mean zero against the
    reference metric over the whole sphere (`TwistData.reference_mean`).
    """
    n = twist.grid.n_nodes
    r, ab = _linearize(np.zeros(n), 0.0, twist, p0, twist.grid.h)
    mid = n // 2
    # pin row `mid`: A[mid, mid] = 1, neighbors zero
    ab[1, mid] = 1.0
    ab[0, mid + 1] = 0.0
    ab[2, mid - 1] = 0.0
    rhs = -r
    rhs[mid] = 0.0
    phi = _solve_tridiagonal(ab, rhs)
    return phi - twist.reference_mean(phi)


def check_tau(tau: float, mu: float) -> None:
    """Raise ValueError unless 0 <= tau <= mu, up to a 1e-15 slack above mu."""
    if not 0.0 <= tau <= mu + 1e-15:
        raise ValueError(f"tau must lie in [0, mu={mu}], got {tau}")


def solve_ma(twist: TwistData, tau: float,
             guess: np.ndarray | None = None) -> MASolution:
    """Damped-Newton solve of the radial twisted equation at tau in [0, mu].

    The twist carries the grid, beta, mu and delta; a tau outside [0, mu]
    raises ValueError.  `guess` is a relative-potential array on the twist's
    grid, or None for the flat start phi = 0; either is projected onto even
    profiles first.  The iteration stops once the residual's max norm is at
    most _NEWTON_TOL and raises NewtonDiverged after _NEWTON_MAX_ITER steps.
    tau = 0 is one constrained linear solve that ignores `guess`; where its
    residual is above _NEWTON_TOL or not finite it raises SolverError.
    """
    check_tau(tau, twist.cone.mu)
    grid = twist.grid
    p0 = grid.reference.phi_doubleprime
    h = grid.h

    def project(v):
        # The symmetric two-pole configuration keeps a residual dilation
        # freedom at the conic endpoint tau = mu (the rotation field is
        # tangent to the divisor), so iterates are projected onto even
        # profiles to select the centered representative.
        return 0.5 * (v + v[::-1])

    if tau == 0.0:
        phi = project(_solve_linear_mean_zero(twist, p0))
        res = _newton_system(phi, 0.0, twist, p0, h)[2]
        iters = 0
    else:
        phi = project(np.zeros(grid.n_nodes) if guess is None
                      else np.asarray(guess, dtype=float))
        if not _implied_density_positive(phi, p0, h):
            raise PositivityLost("initial guess is not a positive metric")

        r, ab, res = _newton_system(phi, tau, twist, p0, h)
        if res == math.inf:
            raise NewtonDiverged("Newton system is not finite at the initial guess")
        iters = 0
        while res > _NEWTON_TOL:
            if iters >= _NEWTON_MAX_ITER:
                raise NewtonDiverged(
                    f"no convergence in {_NEWTON_MAX_ITER} iterations "
                    f"(residual {res:.3e})")
            try:
                step = _solve_tridiagonal(ab, -r)
            except np.linalg.LinAlgError:
                raise NewtonDiverged(
                    f"singular Newton system at residual {res:.3e}") from None
            alpha = 1.0
            accepted = False
            positivity_blocked = False
            for _ in range(_MAX_HALVINGS + 1):
                trial = project(phi + alpha * step)
                if not _implied_density_positive(trial, p0, h):
                    positivity_blocked = True
                    alpha *= _DAMPING
                    continue
                trial_r, trial_ab, trial_res = _newton_system(trial, tau, twist, p0, h)
                if trial_res < res:
                    phi, r, ab, res = trial, trial_r, trial_ab, trial_res
                    accepted = True
                    break
                alpha *= _DAMPING
            if not accepted:
                if positivity_blocked:
                    raise PositivityLost(
                        "metric positivity lost and damping budget exhausted")
                raise NewtonDiverged(
                    f"damping budget exhausted at residual {res:.3e}")
            iters += 1
    if not res <= _NEWTON_TOL:
        raise SolverError(f"residual {res:.3e} at tau = {tau:g} is above the Newton "
                          f"tolerance {_NEWTON_TOL:g}")

    dphi = cumulative_integral(twist.density(phi, tau) - p0, h,
                               twist.tail_mass(tau, phi[0])[0] - twist.tail_plain)
    return MASolution(twist, tau, phi, dphi, res, iters)


# ---------------------------------------------------------------------------
# eigenvalue gap


# Inverse iteration stops once the Rayleigh quotient falls by no more than
# this relative amount, or rises: in exact arithmetic it never rises, so a
# rise means it has reached the rounding floor.
_RAYLEIGH_STALL = 1e-13
# Iteration budget per mode.  Footballs with beta in [0.01, 1], T <= 40 and
# N <= 32769 take at most 8 iterations, continuation steps 3-7.
_EIGEN_MAX_ITER = 20
# Newton: the residual's max norm to reach and the step budget; the line
# search shrinks each step by _DAMPING up to _MAX_HALVINGS times.
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 50
_DAMPING = 0.5
_MAX_HALVINGS = 8
# Smallest adaptive continuation step before the path counts as stalled.
_MIN_STEP = 1e-5


def _mode_matrix(pot: RadialKahlerPotential, m: int) -> tuple[np.ndarray, np.ndarray]:
    """SPD Jacobi matrix (diagonal, off-diagonal) whose lowest eigenvalue is
    the gap of angular mode m.

    Mode m solves the pencil -(f'' - (m^2/4) f) = lam Phi'' f.  For m >= 1
    its Dirichlet closure, symmetrized by Phi''^(-1/2), is the matrix.  For
    m = 0 the Neumann closure D^T D / h^2 against the half-weighted mass M
    (D the forward difference) has the constant null mode; its nonzero
    spectrum is that of the (n-1)-sized D M^-1 D^T / h^2, which is returned
    instead.
    """
    h2 = pot.grid.h ** 2
    if m == 0:
        w = 1.0 / pot.phi_doubleprime
        w[0] *= 2.0
        w[-1] *= 2.0
        return (w[:-1] + w[1:]) / h2, -w[1:-1] / h2
    scale = 1.0 / np.sqrt(pot.phi_doubleprime[1:-1])
    return ((2.0 / h2 + m * m / 4.0) * scale * scale,
            (-1.0 / h2) * scale[:-1] * scale[1:])


def _lowest_eigenvalue(diag: np.ndarray, off: np.ndarray) -> float:
    """Lowest eigenvalue of an SPD Jacobi matrix T with negative off-diagonal.

    Shifted inverse iteration through the LDL^T factorization of T - sigma I.
    The start vector is positive, like the ground state of such a matrix, so
    the iteration cannot miss it.  After each solve the shift rises to
    theta - ||T x - theta x|| (theta the Rayleigh quotient), but only when
    T - sigma I still factors as positive definite, which proves sigma below
    the lowest eigenvalue.  The Rayleigh quotient then falls monotonically;
    the iteration stops when it falls by at most _RAYLEIGH_STALL relative or
    rises, and returns the smallest quotient seen.
    """
    dpttrf, dpttrs = _lapack().dpttrf, _lapack().dpttrs
    ld, le, info = dpttrf(diag, off)
    if info != 0:
        raise SolverError("eigen-solve: mode matrix is not positive definite")
    sigma = 0.0
    x = 1.0 / diag                       # positive, decays into the tails
    x /= math.sqrt(weighted_sum(x, x))
    last = math.inf
    for _ in range(_EIGEN_MAX_ITER):
        y = dpttrs(ld, le, x)[0]
        norm_y = math.sqrt(weighted_sum(y, y))
        # Rayleigh quotient of (T - sigma I) at y and the residual norm of
        # x_new = y / |y|, both from y alone: (T - sigma I) y = x.
        shifted = weighted_sum(y, x) / (norm_y * norm_y)
        z = x - shifted * y
        resid = math.sqrt(weighted_sum(z, z)) / norm_y
        theta = sigma + shifted
        if last - theta <= _RAYLEIGH_STALL * theta:
            return min(theta, last)
        last = theta
        x = y / norm_y
        shift = theta - resid
        if shift > sigma:
            fd, fe, info = dpttrf(diag - shift, off)
            if info == 0:
                sigma, ld, le = shift, fd, fe
    raise SolverError(f"eigen-solve: no convergence in {_EIGEN_MAX_ITER} iterations")


def first_eigenvalue(pot: RadialKahlerPotential) -> tuple[float, dict]:
    """Smallest nonzero eigenvalue of the metric Laplacian.

    Per angular mode m = 0, 1 the lowest eigenvalue of `_mode_matrix` is
    taken by certified inverse iteration (`_lowest_eigenvalue`); on the
    default grid it agrees with a tight bisection to ~1e-11 relative.  Modes
    m >= 2 are not taken: each matrix is mode 1's plus a positive diagonal,
    so its lowest eigenvalue lies above mode 1's (Weyl).  Raises SolverError
    when the iteration does not settle within its budget.
    """
    pot.require_positive()
    per_mode = {m: _lowest_eigenvalue(*_mode_matrix(pot, m)) for m in (0, 1)}
    return min(per_mode.values()), per_mode


# ---------------------------------------------------------------------------
# continuation


@dataclass
class TraceStep:
    solution: MASolution        # its `iterations` and `residual` are the Newton work
    j_value: float
    f_value: float              # on-path value J - mean(phi)
    lambda1: float

    @property
    def tau(self) -> float:
        return self.solution.tau


@dataclass
class ContinuationTrace:
    steps: list[TraceStep] = field(default_factory=list)


def _trace_step(sol) -> TraceStep:
    jv = j_functional(sol.phi, sol.grid, dphi=sol.dphi)
    return TraceStep(sol, jv, jv - sol.twist.reference_mean(sol.phi),
                     first_eigenvalue(sol.potential)[0])


def continuity_path(cone: ConeConfiguration, delta: float,
                    steps: int | None = None,
                    grid: Grid | None = None) -> ContinuationTrace:
    """Continuation in tau from the volume-normalized start to tau = mu.

    With `steps` the taus are np.linspace(0, mu, steps + 1) and a failed
    solve raises its own SolverError, as the tau = 0 row's does in both
    schedules.  With None the steps are adaptive: the first is mu/20, three
    accepted steps of at most 5 Newton iterations in a row double it (up to
    mu/8), and a failed solve halves it; below _MIN_STEP the path raises
    PathStalled.  Each solve starts from the linear extrapolation through
    the last two accepted solutions; when that guess or a step from it loses
    positivity, the solve is tried once more from the last accepted solution
    before the step counts as failed.  Each accepted step records J, F and
    the spectral gap.
    """
    if delta <= 0.0 and cone.beta < 0.3:
        raise ValueError("delta = 0 requires beta >= 0.3 for a well-conditioned path")
    if steps is not None and steps < 1:
        raise ValueError(f"a uniform schedule needs at least 1 step, got {steps}")
    mu = cone.mu
    uniform = None if steps is None else np.linspace(0.0, mu, int(steps) + 1)[1:]
    twist = build_twist(grid or Grid(), cone.beta, delta)
    trace = ContinuationTrace()
    trace.steps.append(_trace_step(solve_ma(twist, 0.0)))
    dtau = mu / 20.0
    easy_streak = 0
    # the linspace ends exactly at mu; adaptive steps may stop short by rounding
    end = mu if uniform is not None else mu - 1e-14
    while trace.steps[-1].tau < end:
        cur = trace.steps[-1]
        tau_next = min(cur.tau + dtau, mu) if uniform is None \
            else float(uniform[len(trace.steps) - 1])
        guess = cur.solution.phi
        if len(trace.steps) > 1:
            prev = trace.steps[-2]
            slope = (cur.solution.phi - prev.solution.phi) / (cur.tau - prev.tau)
            guess = guess + slope * (tau_next - cur.tau)
        try:
            try:
                sol = solve_ma(twist, tau_next, guess)
            except PositivityLost:
                if guess is cur.solution.phi:
                    raise
                # the extrapolation can leave the cone where the last
                # solution does not: start the step once from that
                sol = solve_ma(twist, tau_next, cur.solution.phi)
        except SolverError:
            if uniform is not None:
                raise
            dtau *= 0.5
            if dtau < _MIN_STEP:
                raise PathStalled(f"minimum step reached at tau={cur.tau:.6g}",
                                  cur.tau, trace)
            continue
        trace.steps.append(_trace_step(sol))
        easy_streak = easy_streak + 1 if sol.iterations <= 5 else 0
        if easy_streak >= 3:
            dtau = min(2.0 * dtau, mu / 8.0)
            easy_streak = 0
    return trace


# ---------------------------------------------------------------------------
# smoothing family and its diagnostics


@dataclass
class SmoothingReport:
    solutions: list            # MASolution per delta, in the order given
    conic_solution: MASolution
    sup_distances: np.ndarray
    core_distances: np.ndarray

    def distances_monotone(self) -> bool:
        return bool(np.all(np.diff(self.sup_distances) < 0.0))


def smoothing_family(cone: ConeConfiguration, delta_list,
                     grid: Grid | None = None) -> SmoothingReport:
    """Solve at tau = mu for each delta and compare against the conic limit.

    Distances are sup |phi_delta - phi_0| on the full grid and on the core
    |t| <= T/2; the deltas must be finite, positive and decreasing.
    """
    deltas = list(delta_list)
    if not (all(math.isfinite(d) and d > 0 for d in deltas)
            and all(a > b for a, b in zip(deltas, deltas[1:]))):
        raise ValueError(f"deltas must be finite, positive and strictly decreasing, "
                         f"got {deltas}")
    grid = grid or Grid()
    conic = solve_ma(build_twist(grid, cone.beta, 0.0), cone.mu)
    core = np.abs(grid.t) <= grid.t_max / 2.0
    sols, sup_d, core_d = [], [], []
    guess = None
    for d in deltas:
        sol = solve_ma(build_twist(grid, cone.beta, d), cone.mu, guess)
        sols.append(sol)
        diff = np.abs(sol.phi - conic.phi)
        sup_d.append(float(diff.max()))
        core_d.append(float(diff[core].max()))
        guess = sol.phi
    return SmoothingReport(sols, conic, np.array(sup_d), np.array(core_d))


@dataclass
class RicciMarginReport:
    margin_formula: np.ndarray   # three-term expression, manifestly >= 0
    min_margin: float
    discrepancy: float           # sup |formula - curvature| over the interior


def ricci_lower_bound_margin(solution: MASolution) -> RicciMarginReport:
    """Pointwise excess of Ric(omega_delta) over mu omega_delta, two routes.

    Route (a) differentiates the solved profile; route (b) evaluates the
    closed three-term expression in the smoothing parameter.  The reported
    minimum uses route (b); route (a), -(log Phi'')'' - mu Phi'', carries the
    O(h^2) stencil error and enters only the discrepancy between the two.
    """
    tw, grid = solution.twist, solution.grid
    beta, delta, mu = tw.cone.beta, tw.delta, tw.cone.mu
    if abs(solution.tau - mu) > 1e-12:
        raise ValueError("margin is defined for solutions at tau = mu")
    p0 = grid.reference.phi_doubleprime
    u = defining_section_norm(grid)
    t = grid.t
    w_prime = -np.tanh(0.5 * t)  # d/dt log ||S||_0^2
    formula = delta * (1.0 - beta) * p0 / (delta + u) \
        + delta * (1.0 - beta) * u * w_prime**2 / (delta + u) ** 2
    density = solution.metric_density
    curv = -d2(np.log(density), grid.h) - mu * density
    inner = slice(2, grid.n_nodes - 2)
    return RicciMarginReport(
        formula,
        float(formula.min()),
        float(np.max(np.abs(formula[inner] - curv[inner]))))


@dataclass
class TwoSidedBounds:
    lower_constant: float    # C  with  C^{-1} omega0 <= omega_delta
    upper_constant: float    # C' with  omega_delta <= C' (delta+||S||^2)^{-(1-beta)} omega0
    argmin_t: float          # where omega_delta/omega0 is smallest


def two_sided_bound_check(report: SmoothingReport) -> TwoSidedBounds:
    """Smallest constants realizing the two-sided metric comparison."""
    grid = report.conic_solution.grid
    p0 = grid.reference.phi_doubleprime
    u = defining_section_norm(grid)
    lower = -np.inf
    upper = -np.inf
    argmin_t = 0.0
    best_ratio = np.inf
    for sol in report.solutions:
        beta, d = sol.twist.cone.beta, sol.twist.delta
        ratio = sol.metric_density / p0
        lower = max(lower, float((1.0 / ratio).max()))
        i = int(np.argmin(ratio))
        if ratio[i] < best_ratio:
            best_ratio = float(ratio[i])
            argmin_t = float(grid.t[i])
        upper = max(upper, float((ratio * (d + u) ** (1.0 - beta)).max()))
    return TwoSidedBounds(lower, upper, argmin_t)
