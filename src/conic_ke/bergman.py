"""Section norms, Gram matrices and density-of-states diagnostics.

Degree-2l sections are spanned by the monomials z^k (k = 0..2l) and a
rotation-invariant Hermitian weight makes their Gram matrix diagonal.  All
norms are carried as logarithms: the squared norm of z^k at parameter t is
exp(k t + l w(t)) with w the log frame weight, so powers up to l = 64 stay
inside double range.  The inner product always pairs the weight with the
volume form of the same metric; no auxiliary volume forms enter.

Gram diagonals and densities are log-sum-exp reductions of the (2l+1) x n
array of log-norms, and most of its terms cannot change them.  Each sum
skips the terms that lie more than _cut(count) = log(2^53 count) + 1
below one of its terms, so that all it drops, count terms at most, adds
less than 2^-53 of what it keeps.  The kept terms form a window:
  - Gram row k sums e^(f_k + log meas) with f_k = k t + l w concave in t,
    as -w'' = Phi'' > 0; the row keeps the nodes where f_k + max log meas
    is above the cut, one interval.
  - The density at node t sums e^(k t + l w - log <z^k, z^k>), concave in
    k because any Gram diagonal, continuous or a node sum, is log-convex in
    k (Cauchy-Schwarz); the node keeps one run of rows, and both of its
    ends move up with t.
The windows are placed from 129 sampled nodes.  Concavity holds only to
rounding, and for a solved metric only to the discretization error, in
far tails where Phi'' is tiny, so each block checks the terms at its two
window ends; a row or node whose end term is not below the cut is summed
whole.  The results then match the plain formula to a few ulps (4e-15
relative is tested), not bit for bit.

Each call builds and reduces its windows in blocks of at most 1 MB in one
reused buffer (a lone row or node run longer than that is one block): the
Gram in blocks of rows, the density in blocks of columns, each over the
union of its windows.  At l = 64 and n = 32769 the whole array is 34 MB,
and the windows hold about a quarter of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, RadialKahlerPotential, football_potential, ricci_potential
from .numerics import d1, d2, logsumexp_rows, weighted_sum

# doubles in the reused buffer of a Gram or density block (1 MB)
_BLOCK = 1 << 17
# nodes at which each kernel samples its terms to place its windows
_SAMPLES = 129


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
                       k=slice(None), cols=slice(None),
                       out: np.ndarray | None = None) -> np.ndarray:
    # k t + l w(t), summed in place in that order, for the rows k of 0..2l
    # and the nodes cols (slices or index arrays), from l w computed once
    # per call; written into out when it is given.  Float k gives the
    # products numpy's int-to-double cast gives, without a buffered cast in
    # the loop.
    ks = np.arange(2 * ell + 1, dtype=float)[k]
    norms = np.multiply(ks[:, None], t[None, cols], out=out)
    norms += ell_log_weight[None, cols]
    return norms


def _cut(count: int) -> float:
    """How far below one term of a sum each of `count` dropped terms must
    lie for all of them to add less than 2^-53 of the sum: log(2^53
    count), plus one for rounding."""
    return 53.0 * math.log(2.0) + math.log(count) + 1.0


def _samples(n: int) -> np.ndarray:
    """Up to _SAMPLES increasing node indices, both ends among them."""
    return np.rint(np.linspace(0, n - 1, min(n, _SAMPLES))).astype(np.intp)


def _group(lo: np.ndarray, hi: np.ndarray, sizes: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Consecutive items in blocks of at most _BLOCK doubles (or one item).

    Item i is sizes[i] lines long and needs the span [lo[i], hi[i]) across
    them, with lo and hi nondecreasing, so a block's span runs from its
    first item's lo to its last item's hi.  A block ends before half its
    span would lie outside its items' own spans.  Returns (first item, end
    item, span start, span end) for each block.
    """
    lines = np.cumsum(sizes)
    own = np.cumsum(sizes * (hi - lo))
    blocks, i0 = [], 0
    while i0 < lo.size:
        before = (lines[i0 - 1], own[i0 - 1]) if i0 else (0, 0)
        cost = (lines[i0:] - before[0]) * (hi[i0:] - lo[i0])
        misfits = np.flatnonzero((cost > _BLOCK) | (2 * (cost - (own[i0:] - before[1])) > cost))
        i1 = i0 + max(1, int(misfits[0]) if misfits.size else cost.size)
        blocks.append((i0, i1, int(lo[i0]), int(hi[i1 - 1])))
        i0 = i1
    return blocks


def _parts(indices: list, line: int) -> list[np.ndarray]:
    """`indices`, sorted and unique, in chunks of about _BLOCK doubles of
    `line` each."""
    if not indices:
        return []
    unique = np.unique(np.array(indices, np.intp))
    return np.array_split(unique, -(-unique.size * line // _BLOCK))


def _cut_ends(span: slice, count: int) -> list[int]:
    """The ends of `span` that have indices of range(count) beyond them."""
    return [i for i, inner in ((span.start, span.start > 0), (span.stop - 1, span.stop < count))
            if inner]


def _view(buf: np.ndarray, rows: slice, cols: slice) -> np.ndarray:
    shape = (rows.stop - rows.start, cols.stop - cols.start)
    return buf[:shape[0] * shape[1]].reshape(shape)


def _gram_blocks(ell: int, ell_log_weight: np.ndarray, t: np.ndarray,
                 log_meas: np.ndarray, top: float) -> list[tuple[slice, slice]]:
    """(rows, nodes) of the Gram blocks over the rows' windows.

    Row k's window runs from the last sample below its cut before the
    first sample above it to the first sample below it after the last one
    above: f_k + top, with f_k = k t + l w and top = max log meas, is
    compared with _cut(n) below the row's largest sampled term.  Both ends
    are then made nondecreasing in k.
    """
    n = t.size
    idx = _samples(n)
    f = _log_section_norms(ell, ell_log_weight, t, cols=idx)
    lead = np.max(f + log_meas[idx], axis=1)
    above = f >= (lead - _cut(n) - top)[:, None]
    first = np.argmax(above, axis=1)
    last = idx.size - 1 - np.argmax(above[:, ::-1], axis=1)
    lo = np.where(first > 0, idx[first - 1], 0)
    hi = np.where(last < idx.size - 1, idx[np.minimum(last + 1, idx.size - 1)] + 1, n)
    lo = np.minimum.accumulate(lo[::-1])[::-1]
    hi = np.maximum.accumulate(hi)
    return [(slice(r0, r1), slice(a, b))
            for r0, r1, a, b in _group(lo, hi, np.ones(lo.size, np.intp))]


def gram_matrix(ell: int, weight: HermitianWeight,
                pot: RadialKahlerPotential) -> SectionBasisGram:
    """Gram diagonal by radial quadrature in log space.

    Angular integration kills every off-diagonal pairing of distinct
    monomials, so only the 2l+1 diagonal entries are computed.  `pot` must
    be the potential the weight was built from.

    Row k sums e^(f_k + log meas) with f_k = k t + l w concave in t, as
    -w'' = Phi'' > 0.  Nodes where f_k + max log meas lies _cut(n) below
    the row's sum are skipped; a row whose two window ends are not below
    that cut is summed whole.
    """
    if ell < 1:
        raise ValueError("ell must be a positive integer")
    if pot is not weight.pot:
        raise ValueError("the weight belongs to another potential")
    grid = pot.grid
    t, n, dim = grid.t, grid.n_nodes, 2 * ell + 1
    log_meas = np.log(grid.weights) + np.log(pot.phi_doubleprime) + math.log(2.0 * np.pi)
    ell_log_weight = ell * weight.log_weight
    top = float(np.max(log_meas))
    blocks = _gram_blocks(ell, ell_log_weight, t, log_meas, top)
    buf = np.empty(max((r.stop - r.start) * (c.stop - c.start) for r, c in blocks))
    log_diag = np.empty(dim)
    whole = []
    for rows, cols in blocks:
        expo = _log_section_norms(ell, ell_log_weight, t, rows, cols, out=_view(buf, rows, cols))
        expo += log_meas[None, cols]
        log_diag[rows] = logsumexp_rows(expo)
        ends = _cut_ends(cols, n)
        if ends:
            f = _log_section_norms(ell, ell_log_weight, t, rows, ends)
            over = f + top > (log_diag[rows] - _cut(n))[:, None]
            whole.extend(rows.start + np.flatnonzero(over.any(axis=1)))
    for part in _parts(whole, n):
        expo = _log_section_norms(ell, ell_log_weight, t, part)
        expo += log_meas[None, :]
        log_diag[part] = logsumexp_rows(expo)
    return SectionBasisGram(ell, weight, log_diag)


@dataclass
class DensityReport:
    rho: np.ndarray
    inf_rho: float
    sup_rho: float
    trace_integral: float     # integral of rho against the metric volume (2l+1)


def _density_blocks(ell: int, ell_log_weight: np.ndarray, t: np.ndarray,
                    log_diag: np.ndarray) -> list[tuple[slice, slice]]:
    """(rows, nodes) of the density blocks over the nodes' windows.

    A sample needs the rows from one below the first term within
    _cut(2l+1) of its largest to one above the last; made nondecreasing in
    t, the window ends of two samples bound those of the nodes between.
    """
    n, dim = t.size, log_diag.size
    idx = _samples(n)
    terms = _log_section_norms(ell, ell_log_weight, t, cols=idx)
    terms -= log_diag[:, None]
    above = terms >= np.max(terms, axis=0) - _cut(dim)
    klo = np.maximum(np.argmax(above, axis=0) - 1, 0)
    khi = np.minimum(dim - np.argmax(above[::-1], axis=0), dim - 1)
    klo = np.minimum.accumulate(klo[::-1])[::-1]
    khi = np.maximum.accumulate(khi)
    starts, ends = idx[:-1], np.append(idx[1:-1], n)
    return [(slice(ka, kb), slice(int(starts[i0]), int(ends[i1 - 1])))
            for i0, i1, ka, kb in _group(klo[:-1], khi[1:] + 1, ends - starts)]


def bergman_density(gram: SectionBasisGram) -> DensityReport:
    """Density of states rho(t) = sum_k ||z^k||^2 / <z^k, z^k>, against
    the metric of the Gram's weight.

    At a node the terms k t + l w - log <z^k, z^k> are concave in k, as
    any Gram diagonal is log-convex in k; rows _cut(2l+1) below the
    node's sum are skipped.  A node whose two window ends are not below
    that cut is summed whole.
    """
    pot = gram.weight.pot
    grid = pot.grid
    t, n = grid.t, grid.n_nodes
    ell, log_diag = gram.ell, gram.log_diag
    dim = 2 * ell + 1
    ell_log_weight = ell * gram.weight.log_weight
    blocks = _density_blocks(ell, ell_log_weight, t, log_diag)
    buf = np.empty(max((r.stop - r.start) * (c.stop - c.start) for r, c in blocks))
    log_rho = np.empty(n)
    whole = []
    for rows, cols in blocks:
        log_norms = _log_section_norms(ell, ell_log_weight, t, rows, cols,
                                       out=_view(buf, rows, cols))
        log_norms -= log_diag[rows, None]
        log_rho[cols] = logsumexp_rows(log_norms, axis=0)
        ends = _cut_ends(rows, dim)
        if ends:
            terms = _log_section_norms(ell, ell_log_weight, t, ends, cols)
            terms -= log_diag[ends, None]
            over = terms > log_rho[cols] - _cut(dim)
            whole.extend(cols.start + np.flatnonzero(over.any(axis=0)))
    for part in _parts(whole, dim):
        log_norms = _log_section_norms(ell, ell_log_weight, t, cols=part)
        log_norms -= log_diag[:, None]
        log_rho[part] = logsumexp_rows(log_norms, axis=0)
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
