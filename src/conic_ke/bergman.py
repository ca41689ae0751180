"""Section norms, Gram matrices and density-of-states diagnostics.

Degree-2l sections are spanned by the monomials z^k (k = 0..2l) and a
rotation-invariant Hermitian weight makes their Gram matrix diagonal.  The
weight is e^(-Phi), read off the potential alone, so a football's Gram
entries are Beta functions.  All norms are carried as logarithms: the
squared norm of z^k at parameter t is exp(k t + l w(t)) with w = -Phi the
log frame weight, so powers up to l = 64 stay inside double range.  The
inner product always pairs the weight with the volume form of the same
metric; no auxiliary volume forms enter.

Gram diagonals and densities are log-sum-exp reductions of one
(2l+1) x n array, k t + l w, by one routine, _windowed_logsumexp:
  - gram_matrix adds log meas(t) and sums each row k over the nodes;
    k t + l w + max log meas is concave in t, as -w'' = Phi'' > 0.
  - bergman_density subtracts log <z^k, z^k> and sums each node over the
    rows; the terms are concave in k, because any Gram diagonal,
    continuous or a node sum, is log-convex in k (Cauchy-Schwarz).
Most terms cannot change a sum.  Each sum skips the terms that lie more
than _cut(count) = log(2^53 count) + 1 below one of its terms, so that all
it drops, count terms at most, adds less than 2^-53 of what it keeps; by
concavity the kept terms form one window, and both its ends move up along
the kept axis.  The windows are placed from the terms at 129 sampled
nodes.  Concavity holds only to rounding, and for a solved metric only to
the discretization error, in far tails where Phi'' is tiny, so each block
checks the terms at its two window ends; a sum whose end term is not below
the cut is summed whole.  The results then match the plain formula to a
few ulps (4e-15 relative is tested), not bit for bit.

Each call builds its windows in blocks of at most 1 MB in one reused
buffer (a lone row or node run longer than that is one block), always as
(rows, nodes), and reduces each block along the summed axis: the Gram in
blocks of rows, the density in blocks of columns, each over the union of
its windows.  At l = 64 and n = 32769 the whole array is 34 MB, and the
windows hold about a quarter of it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Grid, RadialKahlerPotential, football_potential
from .numerics import d1, d2, logsumexp_rows, weighted_sum

# doubles in the reused buffer of a Gram or density block (1 MB)
_BLOCK = 1 << 17
# nodes at which each kernel samples its terms to place its windows
_SAMPLES = 129


@dataclass
class HermitianWeight:
    """Log frame weight w = -Phi of the metric-adapted norm on the line bundle.

    Its curvature -w'' is the metric Phi'' itself.  `log_section_scale` is
    log |c_S|^2, the scale that gives the defining section unit twisted
    mass: 2 pi times the integral of e^(t + w) Phi'' |c_S|^2 is one.
    """

    pot: RadialKahlerPotential
    log_weight: np.ndarray
    log_section_scale: float


def associated_hermitian_weight(pot: RadialKahlerPotential) -> HermitianWeight:
    """Metric-adapted Hermitian weight e^(-Phi) on the anticanonical bundle.

    It depends on the potential alone, not on the cone of `pot`.  Raises
    ValueError unless Phi'' > 0.
    """
    pot.require_positive()
    grid = pot.grid
    log_weight = -pot.values()
    expo = grid.t + log_weight + np.log(pot.phi_doubleprime)
    m = expo.max()
    log_mass = m + math.log(weighted_sum(grid.weights * 2.0 * np.pi, np.exp(expo - m)))
    return HermitianWeight(pot, log_weight, -log_mass)


@dataclass
class SectionBasisGram:
    """Diagonal Gram data of the monomial basis under a radial weight."""

    ell: int
    weight: HermitianWeight
    log_diag: np.ndarray          # log <z^k, z^k>, k = 0..2l


def check_ell(ell: int) -> None:
    """Raise ValueError unless the power `ell` of the line bundle is positive."""
    if ell < 1:
        raise ValueError("ell must be a positive integer")


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


def _windowed_logsumexp(ell: int, ell_log_weight: np.ndarray, t: np.ndarray, axis: int,
                        add: np.ndarray, bound: float | np.ndarray) -> np.ndarray:
    """log of each sum over `axis` (0: the rows k, 1: the nodes) of
    e^(k t + l w + add), with `add` and `bound` >= add (or a scalar bound)
    along `axis`, where k t + l w + bound is concave.

    Each sum at the _samples nodes, viewed as (kept, reduced), keeps from
    one sample below its first term, taken with `bound`, within _cut(count)
    of its largest to one sample above its last; both ends are made
    nondecreasing.  A run of kept sums from one sample up to the next takes
    the first sample's lower end and the next one's upper end, and a lone
    sample its own window.
    """
    dim, n = 2 * ell + 1, t.size
    count, kept = (dim, n) if axis == 0 else (n, dim)
    bound = np.full(count, bound)

    def norms(keep, red, out=None):
        # k t + l w as (rows, nodes), at the kept indices keep and reduced red
        rows, cols = (red, keep) if axis == 0 else (keep, red)
        return _log_section_norms(ell, ell_log_weight, t, rows, cols, out=out)

    def view(a):
        # the (kept, reduced) view of a (rows, nodes) array
        return a.T if axis == 0 else a

    def log_sums(keep, red, out=None):
        block = norms(keep, red, out)
        block += add[red, None] if axis == 0 else add[red]
        return logsumexp_rows(block, axis=axis)

    samples, every = _samples(n), np.arange(dim)
    keep_at, red_at = (samples, every) if axis == 0 else (every, samples)
    terms = view(norms(keep_at, red_at))
    lead = np.max(terms + add[red_at], axis=1)
    above = terms + bound[red_at] >= (lead - _cut(count))[:, None]
    first = np.argmax(above, axis=1)
    last = red_at.size - 1 - np.argmax(above[:, ::-1], axis=1)
    lo = np.minimum.accumulate(red_at[np.maximum(first - 1, 0)][::-1])[::-1]
    hi = np.maximum.accumulate(red_at[np.minimum(last + 1, red_at.size - 1)] + 1)
    stops = np.concatenate((keep_at[1:], [kept]))
    sizes = stops - keep_at
    hi = hi[np.arange(hi.size) + (sizes > 1)]
    spans = [(slice(keep_at[i0], stops[i1 - 1]), slice(a, b))
             for i0, i1, a, b in _group(lo, hi, sizes)]
    buf = np.empty(max((k.stop - k.start) * (r.stop - r.start) for k, r in spans))
    out = np.empty(kept)
    whole = []
    for keep, red in spans:
        shape = (keep.stop - keep.start, red.stop - red.start)
        block = buf[:shape[0] * shape[1]].reshape(shape[::-1] if axis == 0 else shape)
        out[keep] = log_sums(keep, red, block)
        ends = [red.start] * (red.start > 0) + [red.stop - 1] * (red.stop < count)
        if ends:
            over = view(norms(keep, ends)) + bound[ends] > (out[keep] - _cut(count))[:, None]
            whole.extend(keep.start + np.flatnonzero(over.any(axis=1)))
    for part in _parts(whole, count):
        out[part] = log_sums(part, slice(None))
    return out


def gram_matrix(ell: int, weight: HermitianWeight,
                pot: RadialKahlerPotential) -> SectionBasisGram:
    """Gram diagonal by radial quadrature in log space.

    Angular integration kills every off-diagonal pairing of distinct
    monomials, so only the 2l+1 diagonal entries are computed.  `pot` must
    be the potential the weight was built from.  Row k sums
    e^(k t + l w + log meas) over the nodes; k t + l w + max log meas is
    concave in t, as -w'' = Phi'' > 0.
    """
    check_ell(ell)
    if pot is not weight.pot:
        raise ValueError("the weight belongs to another potential")
    grid = pot.grid
    log_meas = np.log(grid.weights) + np.log(pot.phi_doubleprime) + math.log(2.0 * np.pi)
    log_diag = _windowed_logsumexp(ell, ell * weight.log_weight, grid.t, 1,
                                   log_meas, np.max(log_meas))
    return SectionBasisGram(ell, weight, log_diag)


@dataclass
class DensityReport:
    rho: np.ndarray
    inf_rho: float
    sup_rho: float
    trace_integral: float     # integral of rho against the metric volume (2l+1)


def bergman_density(gram: SectionBasisGram) -> DensityReport:
    """Density of states rho(t) = sum_k ||z^k||^2 / <z^k, z^k>, against
    the metric of the Gram's weight.

    At a node the terms k t + l w - log <z^k, z^k> are concave in k, as
    any Gram diagonal is log-convex in k.
    """
    pot = gram.weight.pot
    grid = pot.grid
    neg_log_diag = -gram.log_diag
    log_rho = _windowed_logsumexp(gram.ell, gram.ell * gram.weight.log_weight, grid.t, 0,
                                  neg_log_diag, neg_log_diag)
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
