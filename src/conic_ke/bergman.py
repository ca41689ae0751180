"""Section norms, Gram matrices and density-of-states diagnostics.

Degree-2l sections are spanned by the monomials z^k (k = 0..2l) and a
rotation-invariant Hermitian weight makes their Gram matrix diagonal.  All
norms are carried as logarithms: the squared norm of z^k at parameter t is
exp(k t + l w(t)) with w the log frame weight, so powers up to l = 64 stay
inside double range.  The inner product always pairs the weight with the
volume form of the same metric; no auxiliary volume forms enter.

Gram diagonals and densities are log-sum-exp reductions of the (2l+1) x n
array of log-norms.  Each call builds and reduces it in blocks of about
1 MB in one reused buffer: the Gram in blocks of rows, the density in
blocks of columns.  At l = 64 and n = 32769 the whole array is 34 MB,
which would stream through the cache several times and cost more than
the exponentials.  The blocking changes no bit: every row sum runs over
the same contiguous row and every column sum adds k = 0..2l in order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, RadialKahlerPotential, football_potential, ricci_potential
from .numerics import d1, d2, logsumexp_rows, weighted_sum

# doubles in the reused buffer of a Gram or density block (1 MB)
_BLOCK = 1 << 17


@dataclass
class HermitianWeight:
    """Log frame weight w(t) of the metric-adapted norm on the line bundle.

    Built as e^(h/mu) (section factor)^((1-beta)/mu) (density factor) and
    rescaled so the twisted mass of the defining section is one; its
    curvature -(log weight)'' is the metric Phi'' itself.
    """

    pot: RadialKahlerPotential
    log_weight: np.ndarray
    log_section_scale: float


def associated_hermitian_weight(pot: RadialKahlerPotential) -> HermitianWeight:
    """Metric-adapted Hermitian weight on the anticanonical bundle.

    The twisted Ricci potential h, the defining-section factor and the
    determinant factor combine so the curvature of the resulting norm is
    the metric; the residual scale of the defining section is fixed by a
    unit twisted mass integral.  beta and mu are those of `pot.cone`.
    """
    grid = pot.grid
    mu, beta = pot.cone.mu, pot.cone.beta
    h, _ = ricci_potential(pot)
    log_pp = np.log(pot.phi_doubleprime)
    # unit twisted mass: integral of e^(h/mu) (c Phi'')^(1/mu) omega = 1
    expo = h / mu + log_pp / mu + log_pp
    w = grid.weights * 2.0 * np.pi
    m = expo.max()
    log_q = m + math.log(weighted_sum(w, np.exp(expo - m)))
    log_scale = -mu * log_q   # log |c_S|^2
    log_weight = h / mu + ((1.0 - beta) / mu) * (log_scale + log_pp) \
        + log_pp - grid.t
    return HermitianWeight(pot, log_weight, log_scale)


@dataclass
class SectionBasisGram:
    """Diagonal Gram data of the monomial basis under a radial weight."""

    ell: int
    weight: HermitianWeight
    log_diag: np.ndarray          # log <z^k, z^k>, k = 0..2l


def _log_section_norms(ell: int, ell_log_weight: np.ndarray, t: np.ndarray,
                       k: slice = slice(None), cols: slice = slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
    # k t + l w(t), summed in place in that order, for the rows k of 0..2l
    # and the nodes cols, from l w computed once per call; written into out
    # when it is given.  Float k gives the products numpy's int-to-double
    # cast gives, without a buffered cast in the loop.
    ks = np.arange(2 * ell + 1, dtype=float)[k]
    norms = np.multiply(ks[:, None], t[None, cols], out=out)
    norms += ell_log_weight[None, cols]
    return norms


def _blocks(count: int, size: int) -> list[slice]:
    """Slices of about `size` (at least 2) items covering range(count).

    A lone last item joins the block before it: numpy sums a one-column
    block pairwise, not in row order, which could change the last bit.
    """
    edges = list(range(0, count, max(size, 2))) + [count]
    if len(edges) > 2 and count - edges[-2] == 1:
        del edges[-2]
    return [slice(a, b) for a, b in zip(edges, edges[1:])]


def _widest(blocks: list[slice]) -> int:
    return max(b.stop - b.start for b in blocks)


def gram_matrix(ell: int, weight: HermitianWeight,
                pot: RadialKahlerPotential) -> SectionBasisGram:
    """Gram diagonal by radial quadrature in log space.

    Angular integration kills every off-diagonal pairing of distinct
    monomials, so only the 2l+1 diagonal entries are computed.  `pot` must
    be the potential the weight was built from.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if pot is not weight.pot:
        raise ValueError("the weight belongs to another potential")
    grid = pot.grid
    log_meas = np.log(grid.weights) + np.log(pot.phi_doubleprime) + math.log(2.0 * np.pi)
    log_diag = np.empty(2 * ell + 1)
    blocks = _blocks(2 * ell + 1, _BLOCK // grid.n_nodes)
    buf = np.empty((_widest(blocks), grid.n_nodes))
    ell_log_weight = ell * weight.log_weight
    for k in blocks:
        expo = _log_section_norms(ell, ell_log_weight, grid.t, k,
                                  out=buf[:k.stop - k.start])
        expo += log_meas[None, :]
        log_diag[k] = logsumexp_rows(expo)
    return SectionBasisGram(ell, weight, log_diag)


@dataclass
class DensityReport:
    rho: np.ndarray
    inf_rho: float
    sup_rho: float
    trace_integral: float     # integral of rho against the metric volume (2l+1)


def bergman_density(gram: SectionBasisGram) -> DensityReport:
    """Density of states rho(t) = sum_k ||z^k||^2 / <z^k, z^k>, against
    the metric of the Gram's weight."""
    pot = gram.weight.pot
    grid = pot.grid
    t = grid.t
    dim = 2 * gram.ell + 1
    log_rho = np.empty(t.size)
    blocks = _blocks(t.size, _BLOCK // dim)
    buf = np.empty(dim * _widest(blocks))
    ell_log_weight = gram.ell * gram.weight.log_weight
    for cols in blocks:
        width = cols.stop - cols.start
        log_norms = _log_section_norms(gram.ell, ell_log_weight, t, cols=cols,
                                       out=buf[:dim * width].reshape(dim, width))
        log_norms -= gram.log_diag[:, None]
        log_rho[cols] = logsumexp_rows(log_norms, axis=0)
    rho = np.exp(log_rho)
    trace = float(grid.integrate(rho * pot.phi_doubleprime) * 2.0 * np.pi)
    return DensityReport(rho, float(rho.min()), float(rho.max()), trace)


@dataclass
class ScanRow:
    beta: float
    ell: int
    inf_rho: float
    sup_rho: float
    trace_check: float


def partial_c0_scan(beta_list, ell_list, grid: Grid | None = None) -> list[ScanRow]:
    """inf/sup of the density over a (beta, ell) grid of football metrics."""
    grid = grid or Grid()
    rows = []
    for beta in beta_list:
        pot = football_potential(grid, beta)
        weight = associated_hermitian_weight(pot)
        for ell in ell_list:
            rep = bergman_density(gram_matrix(ell, weight, pot))
            rows.append(ScanRow(float(beta), int(ell), rep.inf_rho,
                                rep.sup_rho, rep.trace_integral))
    return rows


# ---------------------------------------------------------------------------
# pointwise identities for holomorphic sections


def section_profiles(gram: SectionBasisGram, k: int):
    """log ||sigma||^2, ||grad sigma||^2 and ||hess sigma||^2 profiles for
    sigma = z^k / sqrt(<z^k,z^k>).

    With u = log ||sigma||^2 the first covariant derivative has squared norm
    e^u u'^2 / Phi'' and the pure (2,0) part of the second has squared norm
    e^u (u'' + u'^2 - u' (log Phi'')')^2 / Phi''^2; the mixed part
    contributes n l^2 ||sigma||^2 exactly (curvature contraction).
    """
    pot = gram.weight.pot
    grid = pot.grid
    u = _log_section_norms(gram.ell, gram.ell * gram.weight.log_weight, grid.t,
                           slice(k, k + 1))[0] - gram.log_diag[k]
    up = d1(u, grid.h)
    upp = d2(u, grid.h)
    lg = np.log(pot.phi_doubleprime)
    lgp = d1(lg, grid.h)
    pp = pot.phi_doubleprime
    norm2 = np.exp(u)
    grad2 = norm2 * up * up / pp
    hess_pure = norm2 * (upp + up * up - up * lgp) ** 2 / (pp * pp)
    hess2 = hess_pure + gram.ell ** 2 * norm2
    return u, norm2, grad2, hess2


@dataclass
class BochnerReport:
    k: int
    ell: int
    residual_first: float
    residual_second: float


def bochner_residual(k: int, pot: RadialKahlerPotential, ell: int,
                     window: float | None = None) -> BochnerReport:
    """Defects of the two curvature identities for sigma = z^k.

    First:   Lap ||sigma||^2 = ||grad sigma||^2 - l ||sigma||^2.
    Second:  Lap ||grad sigma||^2
             = ||hess sigma||^2 - (3 l - mu) ||grad sigma||^2,
    the second holding when the metric is Einstein with constant mu, that
    of `pot.cone`.  Both sides are assembled by centered differences of the
    log-space norms, so the sups vanish at O(h^2).
    """
    if not 0 <= k <= 2 * ell:
        raise ValueError("monomial index out of range")
    grid = pot.grid
    gram = gram_matrix(ell, associated_hermitian_weight(pot), pot)
    u, norm2, grad2, hess2 = section_profiles(gram, k)
    pp = pot.phi_doubleprime
    lap_norm2 = d2(norm2, grid.h) / pp
    lap_grad2 = d2(grad2, grid.h) / pp
    r1 = lap_norm2 - (grad2 - ell * norm2)
    r2 = lap_grad2 - (hess2 - (3.0 * ell - pot.cone.mu) * grad2)
    half = grid.t_max / 2.0 if window is None else window
    inner = np.abs(grid.t) <= half
    inner[:2] = inner[-2:] = False
    return BochnerReport(k, ell, float(np.max(np.abs(r1[inner]))),
                         float(np.max(np.abs(r2[inner]))))


def gradient_estimate_ratio(ells, pot: RadialKahlerPotential) -> dict:
    """sup (||sigma|| + l^(-1/2) ||grad sigma||) / l^(1/2) over the basis.

    Sections are L2-normalized, so a bounded return across l certifies the
    dimension-free sup bound with an l-uniform constant.
    """
    weight = associated_hermitian_weight(pot)
    out = {}
    for ell in ells:
        gram = gram_matrix(ell, weight, pot)
        worst = 0.0
        for k in range(2 * ell + 1):
            _, norm2, grad2, _ = section_profiles(gram, k)
            val = float(np.max(np.sqrt(norm2) + np.sqrt(grad2 / ell)))
            worst = max(worst, val)
        out[int(ell)] = worst / math.sqrt(ell)
    return out
