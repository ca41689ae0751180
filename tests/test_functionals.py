import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_ke.functionals import (
    f_functional,
    j_functional,
    path_derivative_residual,
)
from conic_ke.geometry import Grid
from conic_ke.ma_solver import build_twist, continuity_path, solve_ma
from conic_ke.numerics import d2


@pytest.fixture(scope="module")
def twist(grid):
    return build_twist(grid, 0.75, 1e-3)


@pytest.fixture(scope="module")
def conic_twist(grid):
    return build_twist(grid, 0.75, 0.0)


# ---------------------------------------------------------------------------
# J


def test_j_constant_vanishes(grid):
    assert j_functional(np.full(grid.n_nodes, 2.3), grid) == pytest.approx(0.0, abs=1e-20)


def test_j_tanh_closed_form(grid, fs):
    # (pi/V) integral of sech^4 = (pi/V)(4/3); V here is the grid area
    phi = np.tanh(grid.t)
    v_ref = grid.integrate(fs.phi_doubleprime)
    expect = (4.0 / 3.0) / (2.0 * v_ref)
    assert j_functional(phi, grid) == pytest.approx(expect, rel=1e-4)


def test_j_matches_two_dimensional_quadrature(grid, fs):
    # angular oracle: quadrature over (t, theta) with a uniform theta grid
    phi = np.tanh(grid.t) + 0.2 / np.cosh(grid.t - 1.0)
    from conic_ke.numerics import d1
    dphi = d1(phi, grid.h)
    n_theta = 64
    v_ref = grid.integrate(fs.phi_doubleprime) * 2.0 * np.pi
    two_d = 0.0
    for _ in range(n_theta):
        two_d += grid.integrate(dphi * dphi) * (2.0 * np.pi / n_theta)
    assert j_functional(phi, grid) == pytest.approx(two_d / (2.0 * v_ref), abs=1e-10)


def test_j_nonnegative_random(grid):
    rng = np.random.default_rng(3)
    for _ in range(10):
        phi = rng.normal(size=3) @ np.array(
            [np.tanh(grid.t), 1.0 / np.cosh(grid.t), np.exp(-grid.t ** 2)])
        assert j_functional(phi, grid) >= 0.0


# ---------------------------------------------------------------------------
# F


def test_f_constant_vanishes(grid, twist):
    for c in (-2.0, 1.0, 5.0):
        rep = f_functional(np.full(grid.n_nodes, c), 0.4, twist)
        assert abs(rep.f_value) < 1e-10
        assert abs(rep.f_value - (rep.j_value - rep.linear_term - rep.log_term / 0.4)) < 1e-13


def test_f_offset_invariance(grid, twist):
    rng = np.random.default_rng(5)
    phi = 0.3 * np.tanh(grid.t) + 0.1 / np.cosh(grid.t)
    base = f_functional(phi, 0.6, twist)
    for c in rng.uniform(-4, 4, 3):
        shifted = f_functional(phi + c, 0.6, twist)
        assert shifted.f_value == pytest.approx(base.f_value, abs=1e-10)
        assert shifted.j_value == pytest.approx(base.j_value, abs=1e-14)


def test_f_rejects_tau_zero(grid, twist):
    with pytest.raises(ValueError):
        f_functional(np.zeros(grid.n_nodes), 0.0, twist)


def test_conic_solution_minimizes_f(grid, fs, conic_twist):
    beta = 0.75
    sol = solve_ma(build_twist(grid, beta, 0.0), beta)
    f_ke = f_functional(sol.phi, beta, conic_twist, dphi=sol.dphi).f_value
    tested = 0
    for a in (-0.3, -0.2, -0.1, -0.05, 0.05, 0.1, 0.2, 0.3, 0.4, -0.4):
        for b in (-1.5, 0.0, 1.0, 2.5):
            phi = sol.phi + a / np.cosh(grid.t - b)
            if not np.all(fs.phi_doubleprime + d2(phi, grid.h) > 0):
                continue
            tested += 1
            assert f_functional(phi, beta, conic_twist).f_value >= f_ke
    assert tested >= 20


def test_f_flat_along_solution_orbit(grid, conic_twist):
    # pullbacks of the conic solution by dilations keep the same energy;
    # the vanishing symmetric obstruction in action
    beta = 0.75
    sol = solve_ma(build_twist(grid, beta, 0.0), beta)
    f_ke = f_functional(sol.phi, beta, conic_twist, dphi=sol.dphi).f_value
    for a in (0.5, 1.0, 2.0):
        phi_a = (2.0 / beta) * np.logaddexp(0.0, beta * (grid.t + a)) \
            - 2.0 * np.logaddexp(0.0, grid.t)
        fv = f_functional(phi_a, beta, conic_twist).f_value
        assert fv == pytest.approx(f_ke, abs=1e-4)


def test_f_bounded_along_path(trace_08):
    values = [s.f_value for s in trace_08.steps]
    assert max(values) < 10.0  # recorded uniform bound


# ---------------------------------------------------------------------------
# path derivative identities


def test_onpath_reduction(trace_08):
    rep = path_derivative_residual(trace_08)
    assert rep.max_onpath() <= 1e-8


def test_onpath_reduction_heavy_tails(grid):
    # trace.csv's F (J - mean phi) and functionals.csv's F (with the log term)
    # agree where the tails carry visible mass: the twisted mean gives each
    # tail the solve's own mass
    trace = continuity_path(0.35, 0.0, steps=20, grid=grid)
    rep = path_derivative_residual(trace)
    assert rep.onpath_taus.size == 18
    assert rep.max_onpath() <= 1e-9


def test_onpath_value_is_f_without_log_term(trace_08):
    # the trace's F and the Lagrangian's J and linear term share one source
    checked = 0
    for s in trace_08.steps:
        if s.tau >= 0.05:
            rep = f_functional(s.solution.phi, s.tau, s.solution.twist,
                               dphi=s.solution.dphi)
            assert rep.j_value - rep.linear_term == s.f_value
            checked += 1
    assert checked >= 90


def test_fd_vs_formula(trace_08):
    rep = path_derivative_residual(trace_08)
    assert rep.max_fd() <= 1e-3


def test_fd_residual_second_order(trace_08, trace_08_halved):
    coarse = path_derivative_residual(trace_08).max_fd()
    fine = path_derivative_residual(trace_08_halved).max_fd()
    assert coarse / fine > 3.0


def test_orthogonality_first_order(trace_08, trace_08_halved):
    coarse = path_derivative_residual(trace_08).orthogonality.max()
    fine = path_derivative_residual(trace_08_halved).orthogonality.max()
    assert coarse / fine == pytest.approx(2.0, rel=0.3)


def test_trace_too_short(grid):
    from conic_ke.ma_solver import continuity_path
    tr = continuity_path(0.8, 1e-3, steps=3, grid=grid)
    with pytest.raises(ValueError):
        path_derivative_residual(tr)


def test_trivial_trace_residuals(grid):
    from conic_ke.ma_solver import continuity_path
    tr = continuity_path(1.0, 1.0, steps=10, grid=grid)
    rep = path_derivative_residual(tr)
    assert rep.max_onpath() < 1e-9
    assert np.all(rep.orthogonality < 1e-9)


@settings(max_examples=15, deadline=None)
@given(c=st.floats(-3.0, 3.0))
def test_f_offset_property(c):
    g = Grid(16, 257)
    tw = build_twist(g, 0.8, 1e-2)
    phi = 0.2 * np.tanh(g.t)
    a = f_functional(phi, 0.5, tw).f_value
    b = f_functional(phi + c, 0.5, tw).f_value
    assert a == pytest.approx(b, abs=1e-9)
