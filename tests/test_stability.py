import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_ke.geometry import (
    Grid,
    RadialKahlerPotential,
    football_potential,
    fubini_study_potential,
)
from conic_ke.ma_solver import build_twist, solve_ma
from conic_ke.numerics import cumulative_integral, d1
from conic_ke.stability import (
    futaki,
    futaki_theta_route,
    hamiltonian_theta,
    linearity_check,
    log_futaki,
    obstruction_scan,
)


@pytest.fixture(scope="module")
def stab_grid():
    """Wide fine grid: the obstruction integrals want small stencil error."""
    return Grid(24, 32769)


def random_smooth_metric(rng, grid):
    """Log-bump perturbation of the round density, class-renormalized."""
    q = np.log(fubini_study_potential(grid).phi_doubleprime)
    for _ in range(3):
        q = q + rng.uniform(-0.3, 0.3) / np.cosh(grid.t - rng.uniform(-2, 2))
    pp = np.exp(q)
    pp *= 2.0 / grid.integrate(pp)
    prime = cumulative_integral(pp, grid.h, 0.0)
    return RadialKahlerPotential(grid, prime, pp, 0.0)


# ---------------------------------------------------------------------------
# the Hamiltonian


def test_theta_round(grid, fs):
    th = hamiltonian_theta(fs)
    assert th.mean_removed == pytest.approx(1.0, abs=1e-12)
    assert th.theta.min() > -1.0 and th.theta.max() < 1.0
    assert th.limit_at("infinity") == pytest.approx(1.0, abs=1e-8)
    assert th.limit_at("zero") == pytest.approx(-1.0, abs=1e-8)


def test_theta_football_antisymmetric(grid):
    th = hamiltonian_theta(football_potential(grid, 0.7))
    assert th.limit_at("zero") == pytest.approx(-1.0, abs=1e-8)
    assert th.limit_at("infinity") == pytest.approx(1.0, abs=1e-8)
    mid = grid.n_nodes // 2
    assert np.max(np.abs(th.theta + th.theta[::-1])) < 1e-12


@pytest.mark.parametrize("beta, tol", [(0.3, 1e-8), (0.1, 1e-6)])
def test_theta_limits_carry_the_pole_tail(grid, beta, tol):
    # Phi' at the poles is 0 and 2: the end node plus the mass beyond it
    fb = football_potential(grid, beta)
    th = hamiltonian_theta(fb)
    assert abs(th.limit_at("zero") + th.mean_removed) <= tol
    assert abs(th.limit_at("infinity") + th.mean_removed - 2.0) <= tol


def test_theta_mean_zero_everywhere(stab_grid):
    rng = np.random.default_rng(11)
    for _ in range(3):
        pot = random_smooth_metric(rng, stab_grid)
        th = hamiltonian_theta(pot)
        w = stab_grid.weights * pot.phi_doubleprime
        assert abs(np.dot(w, th.theta) / w.sum()) < 1e-10


def test_theta_relation_second_order():
    res = []
    for n in (1025, 2049):
        g = Grid(16, n)
        th = hamiltonian_theta(football_potential(g, 0.8))
        # theta' = Phi'' over the interior nodes
        res.append(np.max(np.abs(d1(th.theta, g.h) - th.pot.phi_doubleprime)[2:-2]))
    assert res[0] / res[1] >= 3.5


# ---------------------------------------------------------------------------
# the invariant


def test_futaki_round(stab_grid):
    rep = futaki(fubini_study_potential(stab_grid))
    assert abs(rep.via_gradient) < 1e-10
    assert abs(rep.via_theta) < 1e-8


def test_futaki_metric_independence(stab_grid):
    rng = np.random.default_rng(42)
    for _ in range(5):
        rep = futaki(random_smooth_metric(rng, stab_grid))
        assert abs(rep.via_gradient) < 1e-6
        assert abs(rep.via_theta) < 1e-6
        assert rep.discrepancy < 1e-6


def test_futaki_conic_theta_route_only(grid):
    rep = futaki(football_potential(grid, 0.6))
    assert math.isnan(rep.via_gradient) and math.isnan(rep.discrepancy)
    assert abs(rep.via_theta) < 1e-8  # symmetric smooth-part pairing


def test_log_futaki_symmetric_football(grid):
    fb = football_potential(grid, 0.7)
    for beta in (0.5, 0.7, 0.95):
        assert abs(log_futaki(fb, beta, [("zero", 1.0), ("infinity", 1.0)])) < 1e-8


def test_log_futaki_teardrop(grid, fs):
    val = log_futaki(fs, 0.7, [("infinity", 1.0)])
    assert val == pytest.approx(0.3, abs=1e-6)
    assert abs(val) > 1e-4  # genuinely obstructed


def test_log_futaki_smooth_limit(grid, fs):
    assert abs(log_futaki(fs, 1.0, [("infinity", 2.0)])) < 1e-10


def test_log_futaki_interior_location(grid, fs):
    # theta interpolated at a finite location: value (1-beta) theta(t0)
    th = hamiltonian_theta(fs)
    val = log_futaki(fs, 0.8, [(1.5, 1.0)])
    assert val == pytest.approx(0.2 * th.at(1.5), abs=1e-8)


def test_log_futaki_validation(grid, fs):
    with pytest.raises(ValueError):
        log_futaki(fs, 0.7, [])
    with pytest.raises(ValueError):
        log_futaki(fs, 0.7, [("infinity", -1.0)])
    with pytest.raises(ValueError):
        log_futaki(fs, 1.2, [("infinity", 1.0)])


def test_theta_at_refuses_t_off_the_grid(grid, fs):
    # np.interp held the end node's value beyond the grid, and NaN passed
    th = hamiltonian_theta(fs)
    for t in (float("nan"), float("inf"), -float("inf"), 40.0, grid.t_min - 1e-9):
        with pytest.raises(ValueError, match="outside the grid"):
            th.at(t)
        with pytest.raises(ValueError, match="outside the grid"):
            log_futaki(fs, 0.7, [(t, 1.0)])
    assert th.at(grid.t_max) == th.theta[-1] and th.at(grid.t_min) == th.theta[0]


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.35, 0.99), beta1=st.floats(0.05, 0.3),
       w0=st.floats(0.1, 3.0), w1=st.floats(0.1, 3.0))
def test_linearity_identity(beta, beta1, w0, w1):
    g = Grid(16, 513)
    fs0 = fubini_study_potential(g)
    pts = [("zero", w0), ("infinity", w1)]
    assert linearity_check(fs0, beta, beta1, pts) < 1e-12


def test_linearity_teardrop(grid, fs):
    assert linearity_check(fs, 0.8, 0.5, [("infinity", 1.0)]) < 1e-12


def test_normalization_independence(grid, fs):
    # adding a constant to the moment profile before normalization changes
    # nothing: the mean-zero step absorbs it exactly
    shifted = RadialKahlerPotential(grid, fs.phi_prime + 0.37, fs.phi_doubleprime,
                                    fs.base_offset)
    a = futaki_theta_route(fs)
    b = futaki_theta_route(shifted)
    assert a == pytest.approx(b, abs=1e-14)
    assert log_futaki(shifted, 0.7, [("infinity", 1.0)]) \
        == pytest.approx(log_futaki(fs, 0.7, [("infinity", 1.0)]), abs=1e-9)


# ---------------------------------------------------------------------------
# the obstruction table


def test_obstruction_scan(grid, fs):
    configs = {
        "symmetric_football": [("zero", 1.0), ("infinity", 1.0)],
        "teardrop": [("infinity", 2.0)],
        "lopsided": [("zero", 0.5), ("infinity", 1.5)],
    }
    betas = (0.5, 0.7, 0.9)
    rows = obstruction_scan(configs, betas, fs)
    assert len(rows) == 9
    for r in rows:
        if r.config_id == "symmetric_football":
            assert r.flag == "UNOBSTRUCTED"
        else:
            assert r.flag == "OBSTRUCTED"
        if r.config_id == "teardrop":
            assert r.log_futaki == pytest.approx(2.0 * (1.0 - r.beta), abs=1e-6)
        if r.config_id == "lopsided":
            assert r.log_futaki == pytest.approx(1.0 * (1.0 - r.beta), abs=1e-6)
    # cross-check: the unobstructed configuration is realized by the solver
    for beta in betas:
        sol = solve_ma(build_twist(grid, beta, 0.0), beta)
        assert sol.residual < 1e-10
