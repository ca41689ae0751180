"""Energy functionals of the twisted Monge-Ampere family.

J is the Aubin-type gradient energy, F its Lagrangian

    F_tau(phi) = J(phi) - (1/V) int phi omega0
                 - (1/tau) log( (1/V) int e^(h - tau phi) omega0 ),

with h the twist exponent used by the solver.  Every integral but J's is
taken over the whole sphere by the solver's `TwistData`: the node rule its
discrete rows induce, against the round reference density, plus one mass
per tail, the same mass the closure rows use.  Its `reference_mean` and
`twisted_mean` are the one source of those sums (the log term above and
`MASolution.mean` both call `twisted_mean`).  So the algebraic identities
(vanishing on constants, the on-path reduction) hold to rounding, and at a
solution the log term vanishes to the Newton residual, so F equals
J - (1/V) int phi omega0 there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Grid
from .numerics import d1

TAU_FLOOR = 0.05    # the log term of F is ill-conditioned below this tau


def j_functional(phi: np.ndarray, grid: Grid,
                 dphi: np.ndarray | None = None) -> float:
    """Gradient energy J = (1/(2V)) int i d(phi) wedge dbar(phi).

    Radially this is (pi/V) int phi'(t)^2 dt, with V the grid area of the
    round reference; `dphi` may supply an accurate derivative profile,
    otherwise centered differences of `phi` are used.
    """
    dp = d1(np.asarray(phi, dtype=float), grid.h) if dphi is None else dphi
    v_ref = grid.integrate(grid.reference.phi_doubleprime)  # V / (2 pi)
    return float(grid.integrate(dp * dp) / (2.0 * v_ref))


@dataclass
class FunctionalReport:
    j_value: float
    f_value: float
    linear_term: float      # (1/V) int phi omega0
    log_term: float         # log of the normalized twisted volume


def f_functional(phi: np.ndarray, tau: float, twist,
                 dphi: np.ndarray | None = None) -> FunctionalReport:
    """Full Lagrangian report at parameter tau > 0.

    `twist` is the solver's TwistData: it supplies the twist exponent h, the
    grid with its round reference and the exact tail masses beyond the
    truncation, so that the algebraic identities (zero on constants, the
    on-path reduction) hold at rounding level.  J and the linear term are
    the ones the continuation records, so on a trace step
    J - linear equals the step's F exactly.  tau = 0 is rejected since the
    log term is undefined as written.
    """
    if tau <= 0.0:
        raise ValueError("f_functional requires tau > 0")
    phi = np.asarray(phi, dtype=float)
    jv = j_functional(phi, twist.grid, dphi=dphi)
    linear = twist.reference_mean(phi)
    log_term = float(np.log(twist.twisted_mean(phi, tau, 1.0)))
    fv = jv - linear - log_term / tau
    return FunctionalReport(jv, fv, linear, log_term)


@dataclass
class PathDerivativeReport:
    onpath_residuals: np.ndarray     # |F_full - (J - linear)| where tau >= TAU_FLOOR
    onpath_taus: np.ndarray
    fd_vs_formula: np.ndarray        # relative residual at interior steps
    orthogonality: np.ndarray        # |mean_omega(phi + tau dphi/dtau)| forward FD

    def max_onpath(self) -> float:
        return float(self.onpath_residuals.max()) if self.onpath_residuals.size else 0.0

    def max_fd(self) -> float:
        return float(self.fd_vs_formula.max()) if self.fd_vs_formula.size else 0.0


def path_derivative_residual(trace) -> PathDerivativeReport:
    """Check the variational identities along a continuation trace.

    (a) on-path reduction F = J - (1/V) int phi omega0 at every step with
        tau >= TAU_FLOOR (the log term is ill-conditioned below it);
    (b) centered differences of F along tau against the closed derivative
        (1/(tau V)) int phi omega_phi, as a relative residual;
    (c) the differentiated-equation orthogonality
        int (phi + tau dphi/dtau) omega_phi = 0 with a forward difference
        for dphi/dtau, so the residual is first order in the step.
    """
    steps = trace.steps
    if len(steps) < 5:
        raise ValueError("trace too short: need at least 5 steps")
    taus = np.array([s.tau for s in steps])
    f_onpath = np.array([s.f_value for s in steps])

    onpath_res, onpath_taus = [], []
    for s in steps:
        if s.tau >= TAU_FLOOR:
            rep = f_functional(s.solution.phi, s.tau, s.solution.twist,
                               dphi=s.solution.dphi)
            onpath_res.append(abs(rep.f_value - s.f_value))
            onpath_taus.append(s.tau)

    fd_res = []
    for k in range(1, len(steps) - 1):
        if taus[k] < TAU_FLOOR:
            continue
        dm = taus[k] - taus[k - 1]
        dp = taus[k + 1] - taus[k]
        # three-point derivative on a possibly nonuniform schedule
        fd = (f_onpath[k + 1] * dm / dp - f_onpath[k - 1] * dp / dm
              + f_onpath[k] * (dp / dm - dm / dp)) / (dm + dp)
        sol = steps[k].solution
        formula = sol.mean(sol.phi) / taus[k]
        fd_res.append(abs(fd - formula) / max(abs(formula), 1e-14))

    orth = []
    # k = 0 is excluded: the identity expresses the equation's own constant
    # fixing, which only applies for tau > 0 (the tau = 0 gauge is mean zero
    # against the reference volume instead).
    for k in range(1, len(steps) - 1):
        dtau = taus[k + 1] - taus[k]
        phidot = (steps[k + 1].solution.phi - steps[k].solution.phi) / dtau
        sol = steps[k].solution
        orth.append(abs(sol.mean(sol.phi + taus[k] * phidot)))

    return PathDerivativeReport(np.array(onpath_res), np.array(onpath_taus),
                                np.array(fd_res), np.array(orth))
