import math
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from conic_ke import bergman
from conic_ke.bergman import (
    _log_section_norms,
    associated_hermitian_weight,
    bergman_density,
    bochner_residual,
    gradient_estimate_ratio,
    gram_matrix,
    partial_c0_scan,
    section_profiles,
)
from conic_ke.geometry import (
    ConeConfiguration,
    Grid,
    RadialKahlerPotential,
    football_potential,
    fubini_study_potential,
)
from conic_ke.ma_solver import build_twist, solve_ma
from conic_ke.numerics import d2, logsumexp_rows

FOUR_PI = 4.0 * np.pi


@pytest.fixture(scope="module")
def fs_weight(fs):
    return associated_hermitian_weight(fs)


# ---------------------------------------------------------------------------
# the weight


def test_weight_curvature_second_order():
    # the weight's curvature -(log weight)'' is the metric Phi''
    res = []
    for n in (1025, 2049):
        g = Grid(-16, 16, n)
        w = associated_hermitian_weight(fubini_study_potential(g))
        resid = -d2(w.log_weight, g.h) - w.pot.phi_doubleprime
        res.append(np.max(np.abs(resid[2:-2])))
    assert res[0] / res[1] >= 3.5
    assert res[1] < 1e-4


def test_weight_collapses_to_potential(grid, fs, solved_07):
    # the weight is -Phi up to a constant, on smooth, conic and solved metrics
    for pot in (fs, football_potential(grid, 0.6), football_potential(grid, 0.75), solved_07):
        diff = associated_hermitian_weight(pot).log_weight + pot.values()
        assert diff.max() - diff.min() < 1e-11


def test_weight_requires_positive_density(grid):
    fb = football_potential(grid, 0.75)
    pp = fb.phi_doubleprime.copy()
    pp[grid.n_nodes // 2] = 0.0
    bad = RadialKahlerPotential(grid, fb.phi_prime, pp, fb.base_offset, fb.cone)
    with pytest.raises(ValueError, match="positivity"):
        associated_hermitian_weight(bad)


def test_conic_weight_bounded_section(grid):
    beta = 0.75
    fb = football_potential(grid, beta)
    w = associated_hermitian_weight(fb)
    # the section factor cancels the conic blow-up: the twisted section norm
    # stays bounded and vanishes toward the divisor
    log_section = w.log_weight + grid.t
    assert np.isfinite(log_section).all()
    assert log_section.argmax() not in (0, grid.n_nodes - 1)


def test_weight_requires_positive_mu(grid, fs):
    with pytest.raises(ValueError):
        ConeConfiguration(1e-17)  # mu = 1 - (1 - beta) rounds to 0


# ---------------------------------------------------------------------------
# gram matrices


def test_gram_round_degree_one_ratios():
    # oracle: <z^k, z^k> proportional to Beta(k+1, 3-k) for the round weight
    g = Grid(-40, 40, 4097)
    fs0 = fubini_study_potential(g)
    w = associated_hermitian_weight(fs0)
    gram = gram_matrix(1, w, fs0)
    diag = np.exp(gram.log_diag - gram.log_diag[0])

    def oracle(k):
        val, _ = quad(lambda t: np.exp((k + 1) * t) / (1 + np.exp(t)) ** 4, -50, 50)
        return val

    expect = np.array([oracle(k) for k in range(3)])
    expect /= expect[0]
    assert np.max(np.abs(diag - expect)) < 1e-9


def test_gram_reflection_symmetry(grid):
    fb = football_potential(grid, 0.7)
    w = associated_hermitian_weight(fb)
    gram = gram_matrix(8, w, fb)
    assert np.max(np.abs(gram.log_diag - gram.log_diag[::-1])) < 1e-10


def test_gram_off_diagonal_vanishes(grid, fs, fs_weight):
    # 2-D oracle: angular trapezoid of e^(i (j-k) theta) kills the pairing
    gram = gram_matrix(2, fs_weight, fs)
    n_theta = 32
    theta = np.linspace(0.0, 2.0 * np.pi, n_theta, endpoint=False)
    log_norms = _log_section_norms(gram.ell, gram.ell * fs_weight.log_weight, grid.t)
    scale = np.exp(gram.log_diag.max())
    for j, k in ((0, 1), (1, 3), (0, 4)):
        integrand = np.exp(0.5 * (log_norms[j] + log_norms[k]))
        radial = grid.integrate(integrand * fs.phi_doubleprime)
        angular = np.mean(np.cos((j - k) * theta)) * 2.0 * np.pi
        assert abs(radial * angular) < 1e-12 * scale


def test_gram_rejects_weight_of_another_potential(grid, fs_weight):
    # the weight fixes the metric: a Gram against a second potential, even
    # one with equal profiles, would pair two sources of beta and mu
    with pytest.raises(ValueError, match="another potential"):
        gram_matrix(2, fs_weight, football_potential(grid, 0.7))
    with pytest.raises(ValueError, match="another potential"):
        gram_matrix(2, fs_weight, fubini_study_potential(grid))


def test_gram_positive_definite(grid):
    fb = football_potential(grid, 0.5)
    w = associated_hermitian_weight(fb)
    gram = gram_matrix(64, w, fb)
    assert np.isfinite(gram.log_diag).all()
    with pytest.raises(ValueError, match="positive integer"):
        gram_matrix(0, w, fb)


# ---------------------------------------------------------------------------
# density of states


def test_density_trace_identity(grid, fs, fs_weight):
    for ell in (1, 8, 64):
        rep = bergman_density(gram_matrix(ell, fs_weight, fs))
        assert abs(rep.trace_integral - (2 * ell + 1)) < 1e-8


def test_density_round_constant():
    # wide grid: the endpoint plateau of the density feels the truncated
    # tail mass of the extreme monomials at rate e^(-T)
    g = Grid(-24, 24, 3073)
    fs0 = fubini_study_potential(g)
    w = associated_hermitian_weight(fs0)
    for ell in (1, 4, 16):
        rep = bergman_density(gram_matrix(ell, w, fs0))
        expect = (2 * ell + 1) / FOUR_PI
        assert rep.inf_rho == pytest.approx(expect, abs=1e-6)
        assert rep.sup_rho == pytest.approx(expect, abs=1e-6)


def test_density_conic_positive(grid):
    fb = football_potential(grid, 0.6)
    w = associated_hermitian_weight(fb)
    rep = bergman_density(gram_matrix(8, w, fb))
    assert rep.inf_rho > 0.0
    assert abs(rep.trace_integral - (2 * 8 + 1)) < 1e-8
    # the cone points carry the density peak (about 1/beta times the bulk)
    assert rep.rho[0] == pytest.approx(rep.sup_rho, rel=1e-6)


def test_density_invariant_under_weight_rescale(grid, fs, fs_weight):
    import dataclasses
    shifted = dataclasses.replace(fs_weight,
                                  log_weight=fs_weight.log_weight + 2.5 / 8.0)
    a = bergman_density(gram_matrix(8, fs_weight, fs))
    b = bergman_density(gram_matrix(8, shifted, fs))
    assert np.max(np.abs(a.rho - b.rho)) < 1e-12 * a.sup_rho


def test_partial_c0_scan_floor(grid):
    betas = np.linspace(0.6, 1.0, 9)
    ells = (2, 4, 8, 16)
    rows = partial_c0_scan(betas, ells, grid)
    assert all(r.inf_rho > 0 for r in rows)
    for ell in ells:
        floor = 0.1 * (2 * ell + 1) / FOUR_PI
        col = [r.inf_rho for r in rows if r.ell == ell]
        assert min(col) >= floor
        # continuity in beta: adjacent steps within ten percent
        jumps = np.abs(np.diff(col)) / np.array(col[:-1])
        assert jumps.max() <= 0.10
    # beta = 1 column reproduces the round constant
    for r in rows:
        if r.beta == pytest.approx(1.0):
            assert r.inf_rho == pytest.approx((2 * r.ell + 1) / FOUR_PI, rel=1e-6)


def _football_closed_form(beta, ell, t):
    """Exact log <z^k,z^k> - log <z^l,z^l> and rho(t) of the football.

    With x = e^(beta t) each Gram entry is a Beta integral, so
    <z^k,z^k> is proportional to B(k/beta + 1, (2l-k)/beta + 1) and
    rho = sum_k x^(k/beta) (1+x)^(-2l/beta) / (4 pi B_k).
    """
    ks = np.arange(2 * ell + 1)
    log_beta = np.array([math.lgamma(k / beta + 1) + math.lgamma((2 * ell - k) / beta + 1)
                         - math.lgamma(2 * ell / beta + 2) for k in ks])
    terms = ks[:, None] * t[None, :] \
        - (2 * ell / beta) * np.logaddexp(0.0, beta * t)[None, :] \
        - math.log(4.0 * math.pi) - log_beta[:, None]
    m = terms.max(axis=0)
    return log_beta - log_beta[ell], np.exp(m) * np.exp(terms - m).sum(axis=0)


@pytest.mark.parametrize("beta", [0.6, 0.8, 1.0])
@pytest.mark.parametrize("ell", [8, 64])
def test_football_gram_and_density_closed_form(wide_grid, beta, ell):
    # measured: 8.1e-9 at beta = 0.6 (tail-limited), 7.8e-12 for beta >= 0.8,
    # and 3.2e-13 for inf rho
    tol = 5e-8 if beta < 0.8 else 5e-11
    fb = football_potential(wide_grid, beta)
    gram = gram_matrix(ell, associated_hermitian_weight(fb), fb)
    rep = bergman_density(gram)
    log_ratio, rho = _football_closed_form(beta, ell, wide_grid.t)
    assert np.max(np.abs(gram.log_diag - gram.log_diag[ell] - log_ratio)) < tol
    assert np.max(np.abs(rep.rho / rho - 1.0)) < tol
    assert rep.inf_rho == pytest.approx(rho.min(), rel=2e-12)
    assert rep.sup_rho == pytest.approx(rho.max(), rel=tol)


def _plain_kernels(ell, weight, pot, dtype=float):
    """Gram diagonal and density by the plain formulas, every term of every
    sum, from the doubles the kernels read, evaluated in `dtype`."""
    grid = pot.grid
    log_meas = np.log(grid.weights) + np.log(pot.phi_doubleprime) + math.log(2.0 * np.pi)
    log_norms = (np.arange(2 * ell + 1, dtype=dtype)[:, None] * grid.t.astype(dtype)
                 + (ell * weight.log_weight).astype(dtype))
    log_diag = _plain_logsumexp(log_norms + log_meas.astype(dtype), -1)
    return log_diag, np.exp(_plain_logsumexp(log_norms - log_diag[:, None], 0))


def _errors(log_diag, rho, exact):
    """Error of a Gram diagonal, against max(1, |log_diag|), and of a density."""
    exact_log_diag, exact_rho = exact
    return (float(np.max(np.abs(log_diag - exact_log_diag)
                         / np.maximum(1.0, np.abs(exact_log_diag)))),
            float(np.max(np.abs(rho / exact_rho - 1.0))))


@pytest.fixture(scope="module")
def sampled_grid():
    """65 nodes: with l = 64 each node block is a single node."""
    return Grid(-4.0, 4.0, 65)


@pytest.fixture(scope="module")
def odd_step_grid():
    """h = 0.016 is not dyadic: the nodes lie off t_B + i h by rounding."""
    return Grid(-16.0, 16.0, 2001)


@pytest.fixture(scope="module")
def odd_end_grid():
    return Grid(-12.3, 12.3, 1501)


@pytest.mark.skipif(np.finfo(np.longdouble).eps == np.finfo(float).eps,
                    reason="long double is no wider than double: no reference to measure against")
@pytest.mark.parametrize("grid_name, beta, ell", [
    pytest.param("grid", 0.6, 8, id="0.6-8"),
    pytest.param("grid", 0.85, 64, id="0.85-64"),
    pytest.param("grid", 1.0, 16, id="1.0-16"),
    pytest.param("fine_grid", 0.6, 64, id="fine_grid-0.6-64"),
    # T = 40: the terms of a sum span more than e^700
    pytest.param("wide_grid", 0.6, 64, id="wide_grid-0.6-64"),
    pytest.param("sampled_grid", 0.6, 64, id="sampled_grid-0.6-64"),
    pytest.param("odd_step_grid", 0.6, 64, id="odd_step_grid-0.6-64"),
    pytest.param("odd_end_grid", 0.6, 64, id="odd_end_grid-0.6-64"),
    # without the Gram's first-order offset term the density here erred
    # 2.5 times the plain formula's error
    pytest.param("odd_step_grid", 0.6, 16, id="odd_step_grid-0.6-16"),
    # with k t_B rounded as one product (no split) the density erred 2.4 times
    pytest.param("odd_end_grid", 1.0, 64, id="odd_end_grid-1.0-64"),
])
def test_kernels_match_plain_formula(request, grid_name, beta, ell):
    # against a long-double evaluation of the same node sums, the kernels
    # err at most twice what the plain double formula does, plus 8 eps.
    # Measured, in eps: Gram 0.5-1.5 (plain 0.5-1.7), density 12-102
    # (plain 10-219; the grids of non-dyadic h have the most)
    grid = request.getfixturevalue(grid_name)
    fb = football_potential(grid, beta)
    weight = associated_hermitian_weight(fb)
    gram = gram_matrix(ell, weight, fb)
    rep = bergman_density(gram)
    exact = _plain_kernels(ell, weight, fb, np.longdouble)
    gram_error, rho_error = _errors(gram.log_diag, rep.rho, exact)
    plain_gram_error, plain_rho_error = _errors(*_plain_kernels(ell, weight, fb), exact)
    eps = np.finfo(float).eps
    assert gram_error <= 2.0 * plain_gram_error + 8.0 * eps
    assert rho_error <= 2.0 * plain_rho_error + 8.0 * eps


@pytest.fixture(scope="module")
def solved_07(grid):
    """The solved beta = 0.7, delta = 1e-3 metric at tau = mu."""
    return solve_ma(build_twist(grid, 0.7, 1e-3), 0.7).potential


@pytest.mark.parametrize("metric", ["football", "solved"])
def test_log_diag_convex_in_k(grid, solved_07, metric):
    # <z^k, z^k> = sum_j c_j e^(k t_j) with c_j > 0 is log-convex in k
    # (Cauchy-Schwarz), to rounding
    pot = football_potential(grid, 0.7) if metric == "football" else solved_07
    log_diag = gram_matrix(64, associated_hermitian_weight(pot), pot).log_diag
    ulp = np.finfo(float).eps * np.abs(log_diag[1:-1])
    assert np.all(np.diff(log_diag, 2) >= -4.0 * ulp)


def _traced_peak(func):
    """func() and the peak bytes it held allocated at once."""
    tracemalloc.start()
    try:
        result = func()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_blocks_not_arrays(fine_grid):
    # each Gram build and density holds arrays of (2l+1) x n/b or n doubles,
    # never a whole (2l+1) x n array (8.5 MB here); measured 1.18 / 0.92 MiB
    fb = football_potential(fine_grid, 0.7)
    weight = associated_hermitian_weight(fb)
    ell = 64
    gram, gram_peak = _traced_peak(lambda: gram_matrix(ell, weight, fb))
    _, density_peak = _traced_peak(lambda: bergman_density(gram))
    assert gram_peak < 2 * 2**20, gram_peak
    assert density_peak < 2 * 2**20, density_peak


def _plain_logsumexp(a, axis):
    m = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(m, axis=axis) + np.log(np.sum(np.exp(a - m), axis=axis))


def test_logsumexp_rows_matches_plain_formula():
    rng = np.random.default_rng(11)
    rows = rng.uniform(-4000.0, 0.0, (9, 300)) + rng.uniform(-50.0, 50.0, (9, 1))
    top = rows.max(axis=1, keepdims=True)
    # after the shift: normal (exp = 2.239e-308), subnormal (2.217e-308, below
    # the smallest normal double 2.225e-308), subnormal, zero, zero
    rows[:, :5] = top + np.array([-708.39, -708.40, -745.1, -745.2, -746.0])
    assert np.mean(rows - top <= -746.0) > 0.5
    all_normal = np.maximum(rows, top - 708.39)    # no lane subnormal or zero
    for a, axis in ((rows, -1), (rows.T.copy(), 0), (all_normal, -1)):
        expected = _plain_logsumexp(a, axis)
        shifted = np.exp(a - np.max(a, axis=axis, keepdims=True))
        work = a.copy()
        assert np.array_equal(logsumexp_rows(work, axis=axis), expected)
        assert np.array_equal(work, shifted)      # the argument is overwritten
    rows[3, 100] = np.nan
    out = logsumexp_rows(rows.copy())
    assert np.isnan(out[3])
    assert np.array_equal(np.delete(out, 3), np.delete(_plain_logsumexp(rows, -1), 3))


# ---------------------------------------------------------------------------
# pointwise identities


def test_bochner_round_small():
    g = Grid(-16, 16, 8193)
    fs0 = fubini_study_potential(g)
    rep = bochner_residual(0, fs0, 1, window=3.0)
    assert rep.residual_first <= 1e-6
    assert rep.residual_second <= 1e-6


def test_bochner_second_order():
    r_coarse = bochner_residual(0, fubini_study_potential(Grid(-16, 16, 2049)), 1,
                                window=4.0)
    r_fine = bochner_residual(0, fubini_study_potential(Grid(-16, 16, 4097)), 1,
                              window=4.0)
    assert r_coarse.residual_first / r_fine.residual_first >= 3.5
    assert r_coarse.residual_second / r_fine.residual_second >= 3.5


def test_bochner_football_interior():
    r_coarse = bochner_residual(2, football_potential(Grid(-16, 16, 4097), 0.75), 4, window=8.0)
    r_fine = bochner_residual(2, football_potential(Grid(-16, 16, 8193), 0.75), 4, window=8.0)
    assert r_fine.residual_first <= 1e-5
    assert r_coarse.residual_first / r_fine.residual_first >= 3.5
    assert r_coarse.residual_second / r_fine.residual_second >= 3.5


def test_bochner_maximum_principle(grid, fs, fs_weight):
    # at the norm's discrete maximum the gradient term is dominated
    gram = gram_matrix(4, fs_weight, fs)
    for k in (0, 2, 4):
        _, norm2, grad2, _ = section_profiles(gram, k)
        i = int(np.argmax(norm2))
        if 2 <= i <= grid.n_nodes - 3:
            assert grad2[i] <= 4 * norm2[i] + 1e-8


def test_bochner_index_validation(grid, fs):
    with pytest.raises(ValueError):
        bochner_residual(5, fs, 2)


# ---------------------------------------------------------------------------
# sup-norm estimate and peak sections


def test_gradient_ratio_round_uniform(grid, fs):
    ratios = gradient_estimate_ratio((2, 4, 8, 16, 32), fs)
    vals = np.array(list(ratios.values()))
    mid = 0.5 * (vals.max() + vals.min())
    assert vals.max() <= 1.15 * mid
    assert vals.min() >= 0.85 * mid


def test_gradient_ratio_conic_comparable(grid):
    fb = football_potential(grid, 0.7)
    fs0 = fubini_study_potential(grid)
    conic = gradient_estimate_ratio((2, 4, 8, 16, 32), fb)
    smooth = gradient_estimate_ratio((2, 4, 8, 16, 32), fs0)
    for ell in conic:
        assert conic[ell] <= 2.0 * smooth[ell]


def test_gradient_ratio_scale_invariance(grid, fs, fs_weight):
    # rescaling the weight leaves the normalized ratio unchanged
    import dataclasses
    from conic_ke.bergman import section_profiles as sp
    gram_a = gram_matrix(4, fs_weight, fs)
    shifted = dataclasses.replace(fs_weight, log_weight=fs_weight.log_weight + 0.7 / 4.0)
    gram_b = gram_matrix(4, shifted, fs)
    for k in (0, 2):
        _, n_a, g_a, _ = sp(gram_a, k)
        _, n_b, g_b, _ = sp(gram_b, k)
        assert np.max(np.abs(n_a - n_b)) < 1e-10 * n_a.max()
        assert np.max(np.abs(g_a - g_b)) < 1e-10 * max(g_a.max(), 1.0)
