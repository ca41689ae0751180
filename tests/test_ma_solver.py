import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from conic_ke import geometry
from conic_ke.geometry import (
    Grid,
    RadialKahlerPotential,
    cone_mu,
    football_potential,
    fubini_study_potential,
    read_pole,
)
from conic_ke.ma_solver import (
    _lowest_eigenvalue,
    _newton_system,
    _twist_tail,
    PathStalled,
    SolverError,
    build_twist,
    continuity_path,
    first_eigenvalue,
    ricci_lower_bound_margin,
    smoothing_family,
    solve_ma,
    two_sided_bound_check,
)
from conic_ke.numerics import cumulative_integral


# ---------------------------------------------------------------------------
# normalizing constants


def test_a_beta_smooth_case(grid):
    assert build_twist(grid, 1.0, 0.0).constant == pytest.approx(0.0, abs=1e-13)


def test_a_beta_closed_quadrature_oracle(grid):
    # independent oracle: a = log(V) - log(int ||S||^-1 omega0) for beta = 1/2
    def integrand(t):
        s = np.exp(t) / (1.0 + np.exp(t)) ** 2
        return (4.0 * s) ** (-0.5) * 2.0 * s

    val, _ = quad(integrand, -60, 60, epsabs=1e-14, epsrel=1e-13)
    oracle = np.log(2.0) - np.log(val)  # the 2 pi angular factors cancel
    assert build_twist(grid, 0.5, 0.0).constant == pytest.approx(oracle, abs=1e-9)


def test_a_beta_monotone_in_weight_strength(grid):
    betas = np.linspace(0.4, 1.0, 13)
    vals = [build_twist(grid, b, 0.0).constant for b in betas]
    assert np.all(np.diff(vals) > 0)  # decreasing in (1 - beta)
    assert all(v <= 1e-13 for v in vals)


def test_c_delta_large_delta_limit(grid):
    beta = 0.7
    c = build_twist(grid, beta, 1e6).constant
    assert c == pytest.approx((1.0 - beta) * np.log(1e6), abs=1e-5)


def test_c_delta_smooth_case(grid):
    for d in (1e-4, 1e-1, 1e2):
        assert build_twist(grid, 1.0, d).constant == pytest.approx(0.0, abs=1e-13)


def test_c_delta_approaches_a_beta(grid):
    gap = abs(build_twist(grid, 0.7, 1e-3).constant - build_twist(grid, 0.7, 0.0).constant)
    assert gap <= 0.05


def test_c_delta_rejects_nonpositive(grid):
    # delta = 0 is the conic twist, so a negative delta is the one rejected
    with pytest.raises(ValueError, match="delta"):
        build_twist(grid, 0.7, -1e-3)


@pytest.mark.parametrize("beta, delta, name", [
    (0.7, float("nan"), "delta"), (0.0, 1e-3, "beta"), (1.5, 0.0, "beta"),
    (float("nan"), 0.0, "beta")])
def test_build_twist_rejects_bad_inputs(grid, beta, delta, name):
    with pytest.raises(ValueError, match=name):
        build_twist(grid, beta, delta)


# ---------------------------------------------------------------------------
# single solves


@pytest.mark.parametrize("beta", [0.1, 0.2, 0.3, 0.5, 0.75, 0.9])
def test_football_recovery(grid, beta, football_oracle):
    sol = solve_ma(build_twist(grid, beta, 0.0), beta)
    oracle = football_oracle(sol)
    core = np.abs(grid.t) <= 8.0
    assert sol.iterations <= 25
    assert np.max(np.abs(sol.phi - oracle)[core]) < 1e-6
    # metric profile matches the closed form as well
    fb = football_potential(grid, beta)
    assert np.max(np.abs(sol.metric_density - fb.phi_doubleprime)) < 1e-8
    # the closure rows telescope against the twist's node rule and tail mass,
    # so the solved volume is the reference volume
    assert sol.mean(1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [1025, 2049])
@pytest.mark.parametrize("beta", [0.02, 0.05])
def test_heavy_tail_football_is_right_or_refused(beta, n, football_oracle):
    # a tail mass of 0.45 and more: either criterion 1's accuracy or an error
    g = Grid(16, n)
    try:
        sol = solve_ma(build_twist(g, beta, 0.0), beta)
    except SolverError:
        return
    core = np.abs(g.t) <= 8.0
    oracle = football_oracle(sol)
    assert np.max(np.abs(sol.phi - oracle)[core]) < 1e-6


@pytest.mark.parametrize("tau", [0.1, 0.3])
def test_truncation_stability(tau):
    # T = 16 against T = 24 at the same h: only the closure rows can differ
    beta = 0.3
    narrow = solve_ma(build_twist(Grid(16, 2049), beta, 0.0), tau)
    wide = solve_ma(build_twist(Grid(24, 3073), beta, 0.0), tau)
    core = np.abs(narrow.grid.t) <= 4.0
    assert np.max(np.abs(narrow.phi - wide.phi[512:-512])[core]) < 1e-7


@pytest.mark.parametrize("delta", [0.0, 1e-3])
@pytest.mark.parametrize("tau_share", [0.0, 0.4, 1.0])
def test_jacobian_matches_central_differences(tau_share, delta):
    g = Grid(16, 257)
    twist = build_twist(g, 0.5, delta)
    tau = tau_share * twist.mu
    n = g.n_nodes
    phi = 0.3 * np.tanh(g.t) ** 2 - 0.1
    _, ab, _ = _newton_system(phi, tau, twist)
    jac = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    eps = 1e-6
    fd = np.empty((n, n))
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        fd[:, j] = (_newton_system(phi + step, tau, twist)[0]
                    - _newton_system(phi - step, tau, twist)[0]) / (2.0 * eps)
    row_scale = np.abs(jac).max(axis=1, keepdims=True)
    assert np.max(np.abs(fd - jac) / row_scale) <= 1e-8
    # the tail mass's own derivative, which the rows above dilute by 1/h
    edge = phi[0]
    dmass = twist.tail_mass(tau, edge)[1]
    fd_mass = (twist.tail_mass(tau, edge + eps)[0]
               - twist.tail_mass(tau, edge - eps)[0]) / (2.0 * eps)
    assert dmass == pytest.approx(fd_mass, rel=1e-8, abs=1e-15)


def test_smooth_fixed_point(grid):
    for delta in (0.0, 1e-3, 1.0):
        sol = solve_ma(build_twist(grid, 1.0, delta), 1.0)
        assert np.max(np.abs(sol.phi)) < 1e-9


def test_tau_zero_double_quadrature_oracle(grid):
    sol = solve_ma(build_twist(grid, 0.75, 1e-2), 0.0)
    # independent route: integrate the source twice and remove the mean
    tw = sol.twist
    p0 = fubini_study_potential(grid).phi_doubleprime
    source = p0 * (np.exp(tw.log_weight) - 1.0)
    dphi = cumulative_integral(source, grid.h,
                               tw.tail_weighted - tw.tail_plain)
    phi = cumulative_integral(dphi, grid.h, 0.0)
    # mean zero over the whole sphere: the grid rule plus each tail carrying
    # its edge value
    w, tp = grid.weights * p0, tw.tail_plain
    phi -= (np.dot(w, phi) + (phi[0] + phi[-1]) * tp) / (w.sum() + tp + tp)
    assert np.max(np.abs(sol.phi - phi)) < 1e-9
    assert sol.residual < 1e-11


def test_solution_residuals_below_invariant(grid):
    for beta, delta, tau in ((0.75, 0.0, 0.75), (0.8, 1e-3, 0.4), (0.9, 1e-2, 0.0)):
        sol = solve_ma(build_twist(grid, beta, delta), tau)
        assert sol.residual <= 1e-10


def test_uniqueness_from_random_guesses(grid):
    rng = np.random.default_rng(7)
    twist = build_twist(grid, 0.75, 1e-3)
    base = None
    for _ in range(5):
        amps = rng.uniform(-0.05, 0.05, 3)
        locs = rng.uniform(-1.0, 1.0, 3)
        guess = sum(a / np.cosh(grid.t - b) for a, b in zip(amps, locs))
        sol = solve_ma(twist, 0.45, guess)
        if base is None:
            base = sol.phi
        else:
            assert np.max(np.abs(sol.phi - base)) < 1e-8


def test_positivity_guard(grid):
    # Phi'' = Phi0'' W e^(-tau phi) is positive for any guess, even one whose
    # stencil density Phi0'' + d2(phi) is negative at t = 0: from 10/cosh(t)
    # Newton reaches the flat-start answer, and from 30/cosh(t) the line
    # search runs out of damping
    twist = build_twist(grid, 0.75, 1e-3)
    flat = solve_ma(twist, 0.45).phi
    sol = solve_ma(twist, 0.45, 10.0 / np.cosh(grid.t))
    assert np.max(np.abs(sol.phi - flat)) < 1e-10
    with pytest.raises(SolverError, match="damping budget exhausted"):
        solve_ma(twist, 0.45, 30.0 / np.cosh(grid.t))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(beta=st.floats(0.3, 1.0),
       delta=st.sampled_from([0.0, 1e-3, 1e-1]),
       tau_fraction=st.floats(0.05, 1.0),
       a=st.floats(-20.0, 20.0), b=st.floats(-8.0, 8.0), w=st.floats(0.5, 4.0))
def test_solve_does_not_depend_on_the_guess(beta, delta, tau_fraction, a, b, w):
    # a bump guess (made even by the solve) either raises or reaches the
    # flat-start answer: no solve reports convergence on a wrong answer
    g = Grid(16, 257)
    twist = build_twist(g, beta, delta)
    tau = tau_fraction * twist.mu
    flat = solve_ma(twist, tau).phi
    try:
        sol = solve_ma(twist, tau, a / np.cosh((g.t - b) / w))
    except SolverError:
        return
    assert np.max(np.abs(sol.phi - flat)) < 1e-8


@pytest.mark.parametrize("beta, T", [(0.8, 40), (0.95, 40), (0.9, 38), (0.95, 36)])
def test_wide_grid_football_solves_converge(beta, T, football_oracle):
    # at the grid ends Phi0'' is below the rounding of d2(phi)
    g = Grid(T, 2049)
    sol = solve_ma(build_twist(g, beta, 0.0), beta)
    core = np.abs(g.t) <= T / 2
    oracle = football_oracle(sol)
    assert np.max(np.abs(sol.phi - oracle)[core]) < 1e-6


def test_grid_whose_round_density_underflows_is_refused():
    # Phi0'' = 2 e^t / (1 + e^t)^2 is 0 in double from |t| ~ 745, where the
    # Newton rows would divide 0 by 0; such a grid's reference profile is
    # refused, so the grid is, before solving
    assert Grid(745, 2049).reference.phi_doubleprime[0] > 0.0
    with pytest.raises(ValueError, match="^metric positivity violated: Phi'' <= 0 at t = -800$"):
        solve_ma(build_twist(Grid(800, 2049), 0.8, 0.0), 0.4)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(32, 512).map(lambda k: 2 * k + 1),
       beta=st.floats(0.0, 1.0, exclude_min=True),
       delta=st.one_of(st.just(0.0), st.floats(1e-8, 1.0)),
       tau_fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
def test_solve_meets_its_tolerance_or_raises(n, beta, delta, tau_fraction):
    # the contract: a finite answer within the Newton tolerance, or an error
    # (tau = 0 included, whose one linear solve does not iterate)
    import conic_ke.ma_solver as ma_solver
    try:
        twist = build_twist(Grid(16, n), beta, delta)
        sol = solve_ma(twist, tau_fraction * twist.mu)
    except (SolverError, ValueError):
        return
    assert np.isfinite(sol.phi).all() and sol.residual <= ma_solver._NEWTON_TOL


def test_wide_grid_smoothed_solve_converges():
    g = Grid(32, 4097)
    sol = solve_ma(build_twist(g, 0.8, 1e-3), 0.8)
    assert sol.residual <= 1e-11 and sol.iterations <= 5


def test_line_search_refuses_a_step_that_is_not_positive(grid, monkeypatch):
    # no damped trial of a bump of height 1e4 / 2^k, k <= 8, lowers the
    # residual, so the step is refused and the solve diverges
    import conic_ke.ma_solver as ma_solver
    monkeypatch.setattr(ma_solver, "_solve_tridiagonal",
                        lambda ab, rhs: 1e4 / np.cosh(grid.t))
    with pytest.raises(SolverError, match="damping budget exhausted"):
        solve_ma(build_twist(grid, 0.75, 1e-3), 0.45)


def test_newton_budget_exhaustion(grid, monkeypatch):
    import conic_ke.ma_solver as ma_solver
    monkeypatch.setattr(ma_solver, "_NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(ma_solver, "_NEWTON_TOL", 1e-13)
    twist = build_twist(grid, 0.5, 0.0)
    with pytest.raises(SolverError, match="no convergence in 1 iterations"):
        solve_ma(twist, 0.5)


@pytest.mark.parametrize("guess", [
    lambda t: -1500.0 * (1.0 - (t / t[-1]) ** 2),  # residual overflows to inf
    lambda t: np.full(t.size, -2000.0),            # e^(-tau phi) overflows at the closures
])
def test_overflowing_newton_system_diverges(grid, guess):
    twist = build_twist(grid, 0.8, 0.01)
    with pytest.raises(SolverError, match="not finite"):
        solve_ma(twist, 0.5, guess(grid.t))


def test_singular_newton_system_diverges(grid, monkeypatch):
    import conic_ke.ma_solver as ma_solver

    def singular(ab, rhs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(ma_solver, "_solve_tridiagonal", singular)
    with pytest.raises(SolverError, match="singular"):
        solve_ma(build_twist(grid, 0.8, 0.01), 0.5)


def test_path_stall_reports_last_tau(monkeypatch):
    # every solve above tau = 0 fails, so the step halves to the minimum
    import conic_ke.ma_solver as ma_solver
    solve = ma_solver.solve_ma

    def failing(twist, tau, guess=None):
        if tau > 0.0:
            raise SolverError("synthetic failure")
        return solve(twist, tau, guess)

    monkeypatch.setattr(ma_solver, "solve_ma", failing)
    g = Grid(16, 513)
    with pytest.raises(PathStalled, match="^minimum step reached at tau=0$"):
        continuity_path(0.8, 1e-3, grid=g)


def test_config_validation(grid):
    with pytest.raises(ValueError):
        solve_ma(build_twist(grid, 0.5, 0.0), 0.7)   # tau above mu
    with pytest.raises(ValueError):
        build_twist(grid, 0.5, -1.0)  # negative delta
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_twist(grid, 0.5, bad)


@pytest.mark.parametrize("beta, delta, angle", [
    (0.6, 0.0, 0.6), (0.6, 1e-2, 1.0), (1.0, 0.0, 1.0)])
def test_potential_angles_come_from_the_twist(beta, delta, angle):
    g = Grid(16, 257)
    sol = solve_ma(build_twist(g, beta, delta), 0.0)
    assert sol.twist.beta == beta and sol.twist.delta == delta
    # Phi'' of the solved profile shows the angle that the manifest states
    for pole in ("zero", "infinity"):
        assert read_pole(sol.potential, pole)[0] == pytest.approx(angle, abs=1e-6)


def test_smoothed_pole_angle_between(grid):
    # smoothing removes the cone: both poles read as smooth
    for beta, delta in ((0.6, 1e-2), (0.8, 1e-3)):
        sol = solve_ma(build_twist(grid, beta, delta), beta)
        for pole in ("zero", "infinity"):
            assert read_pole(sol.potential, pole)[0] == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("beta", [0.97, 0.75, 0.3])
def test_solved_conic_pole_angle(grid, beta):
    sol = solve_ma(build_twist(grid, beta, 0.0), beta)
    for pole in ("zero", "infinity"):
        assert read_pole(sol.potential, pole)[0] == pytest.approx(beta, abs=1e-7)


def test_knee_pole_is_refused(grid):
    # at delta = 1e-6 the smoothing has not taken over by T = 16 (the knee
    # of ROADMAP item 2(c)): the pole is neither a cone nor smooth
    sol = solve_ma(build_twist(grid, 0.8, 1e-6), 0.8)
    for pole in ("zero", "infinity"):
        with pytest.raises(ValueError, match=f"non-conic asymptotics at {pole}"):
            read_pole(sol.potential, pole)


# ---------------------------------------------------------------------------
# continuation


def test_adaptive_path_budget(grid):
    trace = continuity_path(0.8, 1e-4, grid=grid)
    assert len(trace.steps) <= 200
    taus = np.array([s.tau for s in trace.steps])
    assert taus[0] == 0.0 and np.all(np.diff(taus) > 0.0)
    assert taus[-1] == pytest.approx(0.8, abs=1e-14)
    assert all(s.solution.residual <= 1e-11 for s in trace.steps)


@pytest.mark.parametrize("beta, delta", [(0.8, 1e-3), (0.75, 0.0)])
def test_tau_zero_row_is_mean_zero(grid, beta, delta):
    # F = J - mean(phi) over the whole sphere, and tau = 0 is gauged to it
    first = continuity_path(beta, delta, steps=4, grid=grid).steps[0]
    assert abs(first.f_value - first.j_value) <= 1e-14


def test_eigenvalue_gap_along_path(trace_08):
    margins = [s.lambda1 - s.tau for s in trace_08.steps]
    assert min(margins) > 0.0


def test_trivial_path(grid):
    trace = continuity_path(1.0, 1.0, grid=grid)
    for s in trace.steps:
        assert abs(s.j_value) < 1e-12
        assert np.max(np.abs(s.solution.phi)) < 1e-9


def test_path_preconditions(grid):
    with pytest.raises(ValueError):
        continuity_path(0.25, 0.0, grid=grid)


@pytest.mark.parametrize("steps", [0, -1, -2], ids=["zero", "minus-one", "minus-two"])
def test_path_schedule_without_steps_rejected(steps):
    with pytest.raises(ValueError, match="schedule"):
        continuity_path(0.8, 1e-3, steps=steps, grid=Grid(16, 257))


def test_path_builds_reference_once_per_grid(monkeypatch):
    original = geometry.fubini_study_potential
    built = []

    def counting(grid):
        built.append(grid)
        return original(grid)

    # every module that imported the function holds its own binding
    for name, mod in list(sys.modules.items()):
        if name.startswith("conic_ke") and getattr(mod, "fubini_study_potential", None) is original:
            monkeypatch.setattr(mod, "fubini_study_potential", counting)
    g = Grid(16, 257)
    trace = continuity_path(0.8, 1e-3, steps=10, grid=g)
    assert len(trace.steps) == 11
    assert len(built) <= 1


def test_uniform_path_failure_is_the_solves_own(monkeypatch):
    import conic_ke.ma_solver as ma_solver
    g = Grid(16, 257)
    targets = np.linspace(0.0, cone_mu(0.8), 5)
    steps = continuity_path(0.8, 1e-3, steps=4, grid=g).steps
    assert np.array_equal([s.tau for s in steps], targets)
    tried = []
    solve = ma_solver.solve_ma

    def recording(twist, tau, guess=None):
        tried.append(tau)
        return solve(twist, tau, guess)

    monkeypatch.setattr(ma_solver, "solve_ma", recording)
    monkeypatch.setattr(ma_solver, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(SolverError, match="no convergence"):    # not PathStalled
        continuity_path(0.8, 1e-3, steps=4, grid=g)
    assert tried == list(targets[:2])      # no retry at a shorter step


@pytest.mark.parametrize("delta", [0.0, 1e-3])
def test_build_twist_evaluates_each_tail_once(grid, monkeypatch, delta):
    import conic_ke.ma_solver as ma_solver
    calls = []
    for name in ("_twist_tail", "_raw_log_weight"):
        def counting(*args, _name=name, _f=getattr(ma_solver, name)):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(ma_solver, name, counting)
    build_twist(grid, 0.7, delta)
    assert sorted(calls) == ["_raw_log_weight", "_twist_tail"]


# ---------------------------------------------------------------------------
# smoothing family


def test_smoothing_family_convergence(smoothing_075):
    rep = smoothing_075
    assert rep.distances_monotone()
    assert rep.sup_distances[-1] <= 5e-3
    assert np.all(rep.core_distances <= rep.sup_distances)
    # measured core distance at delta = 1e-5 is ~7e-4 (see decisions notes)
    assert rep.core_distances[-1] <= 1e-3


def test_smoothing_family_trivial(grid):
    rep = smoothing_family(1.0, [1e-1, 1e-3, 1e-5], grid)
    assert np.all(rep.sup_distances < 1e-9)


def test_smoothing_family_validation(grid):
    with pytest.raises(ValueError):
        smoothing_family(0.75, [1e-3, 1e-2], grid)


def test_ricci_margin_nonnegative(smoothing_075):
    for sol in smoothing_075.solutions:
        rep = ricci_lower_bound_margin(sol)
        assert rep.min_margin >= -1e-8


def test_ricci_margin_trivial(grid):
    sol = solve_ma(build_twist(grid, 1.0, 1e-2), 1.0)
    rep = ricci_lower_bound_margin(sol)
    assert np.max(np.abs(rep.margin_formula)) < 1e-8


def test_ricci_margin_discrepancy_second_order():
    vals = []
    for n in (1025, 2049):
        g = Grid(16, n)
        sol = solve_ma(build_twist(g, 0.7, 1e-2), 0.7)
        vals.append(ricci_lower_bound_margin(sol).discrepancy)
    assert vals[0] / vals[1] >= 3.5


# ---------------------------------------------------------------------------
# spectral gap


def test_first_eigenvalue_round(fs):
    lam, _ = first_eigenvalue(fs)
    assert lam == pytest.approx(1.0, abs=1e-4)


def test_first_eigenvalue_midpath(grid):
    sol = solve_ma(build_twist(grid, 0.8, 1e-3), 0.4)
    lam, _ = first_eigenvalue(sol.potential)
    assert lam > 0.4


def test_eigenvalue_scaling(fs):
    lam, _ = first_eigenvalue(fs)
    doubled = RadialKahlerPotential(fs.grid, 2.0 * fs.phi_prime, 2.0 * fs.phi_doubleprime)
    lam_scaled, _ = first_eigenvalue(doubled)
    assert lam_scaled == pytest.approx(lam / 2.0, rel=1e-12)


def test_football_endpoint_gap(grid):
    # the rotation Hamiltonian saturates the bound at the conic endpoint
    lam, per = first_eigenvalue(football_potential(grid, 0.75))
    assert lam == pytest.approx(0.75, abs=1e-4)


def _bisection_gap(pot, m):
    """Oracle for mode m: the original generalized pencils, symmetrized, and a
    tol=1e-14 bisection.  For m = 0 the Neumann pencil keeps its constant
    zero mode, so the gap is its second-lowest eigenvalue; for m >= 1 it is
    the Dirichlet pencil's lowest."""
    h = pot.grid.h
    n = pot.grid.n_nodes
    if m == 0:
        diag = np.full(n, 2.0 / h**2)
        diag[0] = diag[-1] = 1.0 / h**2
        off = np.full(n - 1, -1.0 / h**2)
        mass = pot.phi_doubleprime.copy()
        mass[0] *= 0.5
        mass[-1] *= 0.5
        k = 1
    else:
        diag = np.full(n - 2, 2.0 / h**2 + m * m / 4.0)
        off = np.full(n - 3, -1.0 / h**2)
        mass = pot.phi_doubleprime[1:-1]
        k = 0
    scale = 1.0 / np.sqrt(mass)
    return eigh_tridiagonal(diag * scale * scale, off * scale[:-1] * scale[1:],
                            eigvals_only=True, select="i", select_range=(k, k),
                            tol=1e-14)[0]


def _assert_matches_bisection(potentials):
    for pot in potentials:
        _, per_mode = first_eigenvalue(pot)
        for m, lam in per_mode.items():
            assert lam == pytest.approx(_bisection_gap(pot, m), abs=1e-10)


def test_first_eigenvalue_bisection_width(grid):
    # the LAPACK default width eps * ||T||_1 is ~1e-6 here, since the 1/Phi''
    # tail entries reach ~4e9; every mode must match a tight bisection
    trace = continuity_path(0.8, 1e-3, steps=10, grid=grid)
    potentials = [football_potential(grid, b) for b in (0.1, 0.3, 0.8, 1.0)] \
        + [s.solution.potential for s in trace.steps]
    _assert_matches_bisection(potentials)
    # mode 2, which first_eigenvalue does not take, lies above mode 1
    for pot in potentials:
        assert _bisection_gap(pot, 2) > _bisection_gap(pot, 1)


def test_first_eigenvalue_rounding_floor(grid):
    # here the Rayleigh quotient flips by ~1e-13 at the rounding floor; a stop
    # on |relative change| <= 1e-13 alone never terminated on this path
    trace = continuity_path(0.7979, 1e-3, steps=100, grid=grid)
    _assert_matches_bisection([s.solution.potential for s in trace.steps])


def test_first_eigenvalue_refinement():
    # second-order convergence to the round metric's closed forms past the
    # default grid: the error falls 16-fold per 4x refinement
    exact = {0: 1.0, 1: 1.0}
    errors = []
    for n in (2049, 8193, 32769):
        _, per_mode = first_eigenvalue(fubini_study_potential(Grid(24, n)))
        errors.append({m: abs(per_mode[m] - exact[m]) for m in exact})
    for coarse, fine in zip(errors, errors[1:]):
        for m in exact:
            assert coarse[m] / fine[m] == pytest.approx(16.0, abs=1.0)


def test_eigen_solve_failures(fs, monkeypatch):
    import conic_ke.ma_solver as ma_solver

    with pytest.raises(SolverError):
        _lowest_eigenvalue(np.ones(2), np.array([-2.0]))    # indefinite
    monkeypatch.setattr(ma_solver, "_EIGEN_MAX_ITER", 1)   # a stop needs two quotients
    with pytest.raises(SolverError):
        first_eigenvalue(fs)


def test_lapack_kernels_match_scipy_linalg(grid, monkeypatch):
    # the Newton Jacobians and gap matrices of a real solve, through both routes
    import conic_ke.ma_solver as ma_solver
    from scipy.linalg import lapack, solve_banded

    solve = ma_solver._solve_tridiagonal
    systems = []

    def record(ab, rhs):
        systems.append((ab.copy(), rhs.copy()))
        return solve(ab, rhs)

    monkeypatch.setattr(ma_solver, "_solve_tridiagonal", record)
    twist = build_twist(grid, 0.8, 1e-3)
    solve_ma(twist, 0.0)
    sol = solve_ma(twist, twist.mu)
    assert len(systems) == 1 + sol.iterations >= 3
    for ab, rhs in systems:
        assert np.array_equal(solve(ab, rhs), solve_banded((1, 1), ab, rhs))

    flapack = ma_solver._lapack()
    assert flapack is sys.modules["scipy.linalg._flapack"]
    for m in (0, 1):
        diag, off = ma_solver._mode_matrix(sol.potential, m)
        ours, theirs = flapack.dpttrf(diag, off), lapack.dpttrf(diag, off)
        assert ours[2] == theirs[2] == 0
        assert np.array_equal(ours[0], theirs[0]) and np.array_equal(ours[1], theirs[1])
        x = 1.0 / diag
        assert np.array_equal(flapack.dpttrs(*ours[:2], x)[0],
                              lapack.dpttrs(*theirs[:2], x)[0])


@pytest.mark.parametrize("bad", ["ab_nan", "rhs_inf"])
def test_tridiagonal_rejects_non_finite(bad):
    from conic_ke.ma_solver import _solve_tridiagonal

    ab, rhs = np.array([[0.0, 1.0, 1.0], [4.0, 4.0, 4.0], [1.0, 1.0, 0.0]]), np.ones(3)
    if bad == "ab_nan":
        ab[1, 1] = np.nan
    else:
        rhs[2] = np.inf
    with pytest.raises(ValueError, match="infs or NaNs"):
        _solve_tridiagonal(ab, rhs)


def test_tridiagonal_singular():
    from conic_ke.ma_solver import _solve_tridiagonal

    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        _solve_tridiagonal(np.zeros((3, 3)), np.ones(3))


def test_lapack_missing_extension_names_its_path(tmp_path, monkeypatch):
    import importlib.machinery

    import conic_ke.ma_solver as ma_solver

    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    fake = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    fake.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(ma_solver.importlib.util, "find_spec", lambda name: fake)
    with pytest.raises(ImportError, match=str(tmp_path)):
        ma_solver._lapack()


# ---------------------------------------------------------------------------
# two-sided comparison


def test_two_sided_trivial(grid):
    rep = smoothing_family(1.0, [1e-1, 1e-2], grid)
    bounds = two_sided_bound_check(rep)
    assert bounds.lower_constant == pytest.approx(1.0, abs=1e-6)
    assert bounds.upper_constant == pytest.approx(1.0, abs=1e-6)


def test_two_sided_family(smoothing_075, grid):
    bounds = two_sided_bound_check(smoothing_075)
    assert np.isfinite(bounds.lower_constant) and np.isfinite(bounds.upper_constant)
    # the lower bound is tight where the section norm peaks
    assert abs(bounds.argmin_t) <= grid.h + 1e-12
    # stability under refinement within ten percent
    fine = Grid(16, 4097)
    rep_fine = smoothing_family(0.75, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], fine)
    bounds_fine = two_sided_bound_check(rep_fine)
    assert bounds.lower_constant == pytest.approx(bounds_fine.lower_constant, rel=0.1)
    assert bounds.upper_constant == pytest.approx(bounds_fine.upper_constant, rel=0.1)


def test_twist_tail_consistency(grid):
    # whole-sphere normalization through the one node rule: the solve's own
    # end-corrected trapezoid rule times Phi0'', plus the two tails
    tw = build_twist(grid, 0.8, 1e-3)
    p0 = fubini_study_potential(grid).phi_doubleprime
    rule = np.full(grid.n_nodes, grid.h)
    rule[[0, -1]] = grid.h * 5.0 / 12.0
    rule[[1, -2]] = grid.h * 13.0 / 12.0
    assert np.array_equal(tw.reference_weights, rule * p0)
    w = rule * p0
    lhs = np.sum(w * np.exp(tw.log_weight)) + tw.tail_weighted + tw.tail_weighted
    rhs = w.sum() + tw.tail_plain + tw.tail_plain
    assert lhs == pytest.approx(rhs, rel=1e-13)
    assert tw.twisted_mean(np.zeros(grid.n_nodes), 0.0, 1.0) == pytest.approx(1.0, rel=1e-14)
    # at tau = 0 the Liouville mass is the flat tail mass
    assert tw.tail_mass(0.0, 0.7)[0] == pytest.approx(tw.tail_weighted, rel=1e-15)


def _tail_oracle(mp, edge, beta, delta):
    """The tail integral of _twist_tail by mpmath quadrature in t itself."""
    with mp.workdps(16):
        edge, beta, delta = (mp.mpf(v) for v in (edge, beta, delta))

        def g(s):
            u = 1 / (1 + mp.exp(-s))
            return 2 * u * (1 - u) * (delta + 4 * u * (1 - u)) ** (beta - 1)

        # mpmath's tolerance is absolute, so integrate g / g(edge); split the
        # line on the scales of both decay rates of g (beta and 1) and where
        # the smoothed twist turns conic
        ref = g(edge)
        cuts = [edge] + [edge - c / r for c in (3, 30) for r in (1, beta)]
        if delta > 0:
            knee = mp.log(delta / 4)
            cuts += [knee - 8, knee, knee + 8]
        pts = [mp.ninf] + sorted({c for c in cuts if c <= edge})
        return mp.quad(lambda s: g(s) / ref, pts, method="gauss-legendre") * ref


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.2, 0.5, 0.75, 1.0])
def test_twist_tail_matches_mpmath(beta):
    mp = pytest.importorskip("mpmath")
    for delta in (0.0, 1e-14, 1e-8, 1e-3, 1.0, 1e6):
        for half_width in (0.5, 4.0, 16.0, 40.0):
            got = _twist_tail(-half_width, beta, delta)
            want = _tail_oracle(mp, -half_width, beta, delta)
            assert got == pytest.approx(float(want), rel=1e-12), (delta, half_width)
