"""Section norms, Gram matrices and density-of-states diagnostics.

Degree-2l sections are spanned by the monomials z^k (k = 0..2l) and a
rotation-invariant Hermitian weight makes their Gram matrix diagonal.  The
weight is e^(-Phi), read off the potential alone, so a football's Gram
entries are Beta functions.  All norms are carried as logarithms: the
squared norm of z^k at parameter t is exp(k t + l w(t)) with w = -Phi the
log frame weight, so powers up to l = 64 stay inside double range.  The
inner product always pairs the weight with the volume form of the same
metric; no auxiliary volume forms enter.

Gram diagonals and densities are sums of the terms e^(k t_j + l w_j),
one per row k and node j, weighted by the measure (a Gram row sums over
j) or by 1/<z^k, z^k> (a density node sums over k).  Both kernels split
the nodes into blocks of b, about sqrt(N): node j = B b + i lies at
t_B + i h, up to a rounding offset.  Each term then factors into a part
of its block and e^(k i h), the same for every block, so each kernel is
one (2l+1) x b by b x N/b matrix product plus N + (2l+1)(b + N/b)
exponentials, where the plain formula takes (2l+1) N:
  - gram_matrix scales each block's node weights by their largest, so
    each product entry is at least 1, and reduces e^(k t_B + s_B) times
    the product over the blocks by one log-sum-exp per row.
  - bergman_density scales each block's e^(k t_B - log <z^k, z^k>) by
    its largest over k, at k*_B, and multiplies it with e^(k i h).
b is small enough that e^(k i h) <= e^16, so no term of a product is
more than e^16 above its block's scaled largest.  The offsets, all 0
where h is dyadic, enter the Gram to first order, as a second product,
and the density through k*_B alone.  Against a long-double evaluation of
the same sums the results err no more than twice what the plain double
formula does, plus 8 eps (tested), and the density less than it where h
is not dyadic.  OpenBLAS splits a product by rows and columns, never
inside one entry's sum, so the results are the same at any thread count.
Each kernel holds arrays of (2l+1) x N/b or N doubles, under 2 MB at
l = 64, N = 32769.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, RadialKahlerPotential, football_potential
from .numerics import d1, d2, logsumexp_rows


def associated_hermitian_weight(pot: RadialKahlerPotential) -> np.ndarray:
    """Log frame weight w = -Phi of the metric-adapted Hermitian weight
    e^(-Phi) on the anticanonical bundle; its curvature -w'' is the metric
    Phi'' itself.  It depends on the potential alone."""
    return -pot.values


@dataclass
class SectionBasisGram:
    """Diagonal Gram data of the monomial basis under the weight of `pot`."""

    ell: int
    pot: RadialKahlerPotential
    log_diag: np.ndarray          # log <z^k, z^k>, k = 0..2l


def check_ell(ell: int) -> None:
    """Raise ValueError unless the power `ell` of the line bundle is positive."""
    if ell < 1:
        raise ValueError("ell must be a positive integer")


def _log_section_norms(ell: int, ell_log_weight: np.ndarray, t: np.ndarray,
                       k=slice(None)) -> np.ndarray:
    # k t + l w(t) for the rows k of 0..2l
    ks = np.arange(2 * ell + 1, dtype=float)[k]
    return ks[:, None] * t[None, :] + ell_log_weight[None, :]


def _floored(log_terms: np.ndarray, top) -> np.ndarray:
    """`log_terms`, in place, raised to at least `top` - 700, as numpy's exp
    leaves its SIMD path below -708.  Each sum they enter is at least e^top,
    so what this adds to it, at most N/b or (2l+1) e^16 times e^(top - 700),
    is far below its rounding."""
    return np.maximum(log_terms, top - 700.0, out=log_terms)


@dataclass
class _NodeBlocks:
    """The nodes in blocks of `size`: node j = B size + i lies at
    t_B + i h + offsets[B, i], and every block shares the factor e^(k i h).

    t_B is starts + starts_lo, with starts of 26 bits (Veltkamp's split):
    k starts is exact, and k starts_lo rounds far below k t_B, so a sum
    with k t_B in it rounds at its own size, not at that of k t_B.
    """

    size: int
    starts: np.ndarray      # (blocks, 1)
    starts_lo: np.ndarray   # (blocks, 1)
    offsets: np.ndarray     # (blocks, size): rounding, all 0 where h and T are dyadic
    shared: np.ndarray      # e^(k i h), (size, 2l+1)


def _rows(values: np.ndarray, size: int, fill: float) -> np.ndarray:
    """Per-node `values` as (blocks, size), the last block padded with `fill`."""
    out = np.full(-(-values.size // size) * size, fill)
    out[:values.size] = values
    return out.reshape(-1, size)


def _node_blocks(ell: int, grid: Grid) -> _NodeBlocks:
    # about sqrt(N) nodes, but few enough that k i h <= 16: no term of a
    # block's product is more than e^16 above its scaled largest
    size = max(1, min(math.isqrt(grid.n_nodes - 1) + 1, int(16.0 / (2 * ell * grid.h))))
    steps = np.arange(size) * grid.h
    starts = grid.t[::size, None]
    split = starts * 134217729.0        # 2^27 + 1 leaves a 26-bit head
    high = split - (split - starts)
    # t_j - t_B is exact (Sterbenz) but next to t = 0, and so is the second
    # difference, as t_j - t_B and i h agree to rounding
    offsets = _rows(grid.t, size, 0.0) - starts - steps
    return _NodeBlocks(size, high, starts - high, offsets,
                       np.exp(np.outer(steps, np.arange(2 * ell + 1))))


def gram_matrix(ell: int, *, pot: RadialKahlerPotential) -> SectionBasisGram:
    """Gram diagonal by radial quadrature in log space, under the weight
    of `pot` (`associated_hermitian_weight`).

    Angular integration kills every off-diagonal pairing of distinct
    monomials, so only the 2l+1 diagonal entries are computed.  Row k sums
    e^(k t + l w + log meas) over the nodes, block by block: e^(k t_B + s_B)
    times the matrix product of the block's e^(l w + log meas - s_B), at
    most 1, with the shared e^(k i h).
    """
    check_ell(ell)
    grid = pot.grid
    blocks = _node_blocks(ell, grid)
    ks = np.arange(2 * ell + 1, dtype=float)
    # s_B, l w + log meas at the block's largest node, is kept as its two
    # parts: l w less its value there is exact wherever l w is large
    ell_log_weight = _rows(ell * associated_hermitian_weight(pot), blocks.size, -np.inf)
    log_meas = _rows(np.log(grid.weights) + np.log(pot.phi_doubleprime)
                     + math.log(2.0 * np.pi), blocks.size, -np.inf)
    top = np.argmax(ell_log_weight + log_meas, axis=1)[:, None]
    ell_log_weight_top = np.take_along_axis(ell_log_weight, top, axis=1)
    log_meas_top = np.take_along_axis(log_meas, top, axis=1)
    scaled = np.exp((ell_log_weight - ell_log_weight_top) + (log_meas - log_meas_top))
    # e^(k offset) to first order, in a second product
    sums = scaled @ blocks.shared + (scaled * blocks.offsets) @ blocks.shared * ks
    log_terms = (blocks.starts * ks + ell_log_weight_top + log_meas_top
                 + blocks.starts_lo * ks + np.log(sums))
    log_diag = logsumexp_rows(_floored(log_terms, np.max(log_terms, axis=0)), axis=0)
    return SectionBasisGram(ell, pot, log_diag)


@dataclass
class DensityReport:
    rho: np.ndarray
    inf_rho: float
    sup_rho: float
    trace_integral: float     # integral of rho against the metric volume (2l+1)


def bergman_density(gram: SectionBasisGram) -> DensityReport:
    """Density of states rho(t) = sum_k ||z^k||^2 / <z^k, z^k>, against
    the Gram's metric.

    At node j = B b + i the terms are e^(k t_B - log <z^k, z^k>), scaled
    by their largest over k, at k*_B, times the shared e^(k i h): one matrix
    product.  The node's offset enters as e^(k*_B offset), with e^(l w).
    """
    pot = gram.pot
    grid = pot.grid
    blocks = _node_blocks(gram.ell, grid)
    ks = np.arange(2 * gram.ell + 1, dtype=float)
    log_diag = gram.log_diag
    # k*_B up to near ties, all the scaling needs
    top_k = np.argmax(blocks.starts * ks - log_diag, axis=1)[:, None]
    scaled = np.exp(_floored(((ks - top_k) * blocks.starts - (log_diag - log_diag[top_k]))
                             + (ks - top_k) * blocks.starts_lo, 0.0))
    ell_log_weight = _rows(gram.ell * associated_hermitian_weight(pot), blocks.size, 0.0)
    log_rho = ((top_k * blocks.starts + ell_log_weight) - log_diag[top_k]
               + top_k * (blocks.starts_lo + blocks.offsets) + np.log(scaled @ blocks.shared.T))
    rho = np.exp(log_rho.ravel()[:grid.n_nodes])
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
        for ell in ell_list:
            rep = bergman_density(gram_matrix(ell, pot=pot))
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
    pot = gram.pot
    grid = pot.grid
    u = _log_section_norms(gram.ell, gram.ell * associated_hermitian_weight(pot), grid.t,
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
    residual_first: float
    residual_second: float


def bochner_residual(k: int, pot: RadialKahlerPotential, ell: int, mu: float,
                     window: float | None = None) -> BochnerReport:
    """Defects of the two curvature identities for sigma = z^k.

    First:   Lap ||sigma||^2 = ||grad sigma||^2 - l ||sigma||^2.
    Second:  Lap ||grad sigma||^2
             = ||hess sigma||^2 - (3 l - mu) ||grad sigma||^2,
    the second holding where the metric is Einstein, Ric = `mu` omega.  Both
    sides are assembled by centered differences of the log-space norms, so
    the sups vanish at O(h^2).
    """
    if not 0 <= k <= 2 * ell:
        raise ValueError("monomial index out of range")
    grid = pot.grid
    gram = gram_matrix(ell, pot=pot)
    u, norm2, grad2, hess2 = section_profiles(gram, k)
    pp = pot.phi_doubleprime
    lap_norm2 = d2(norm2, grid.h) / pp
    lap_grad2 = d2(grad2, grid.h) / pp
    r1 = lap_norm2 - (grad2 - ell * norm2)
    r2 = lap_grad2 - (hess2 - (3.0 * ell - mu) * grad2)
    half = grid.t_max / 2.0 if window is None else window
    inner = np.abs(grid.t) <= half
    inner[:2] = inner[-2:] = False
    return BochnerReport(float(np.max(np.abs(r1[inner]))), float(np.max(np.abs(r2[inner]))))


def gradient_estimate_ratio(ells, pot: RadialKahlerPotential) -> dict:
    """sup (||sigma|| + l^(-1/2) ||grad sigma||) / l^(1/2) over the basis.

    Sections are L2-normalized, so a bounded return across l certifies the
    dimension-free sup bound with an l-uniform constant.
    """
    out = {}
    for ell in ells:
        gram = gram_matrix(ell, pot=pot)
        worst = 0.0
        for k in range(2 * ell + 1):
            _, norm2, grad2, _ = section_profiles(gram, k)
            val = float(np.max(np.sqrt(norm2) + np.sqrt(grad2 / ell)))
            worst = max(worst, val)
        out[int(ell)] = worst / math.sqrt(ell)
    return out
