import sys

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import eigh_tridiagonal

from conic_ke import geometry
from conic_ke.geometry import (
    ConeConfiguration,
    Grid,
    RadialKahlerPotential,
    cone_angle_at_pole,
    football_phi,
    football_potential,
    fubini_study_potential,
)
from conic_ke.ma_solver import (
    _lowest_eigenvalue,
    _twist_tail,
    NewtonDiverged,
    PathStalled,
    PositivityLost,
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


def football_oracle_phi(grid, beta, a_beta):
    """Closed-form solution of the conic equation at tau = mu, including the
    additive constant implied by the normalizing constant in use."""
    c_star = (a_beta - np.log(beta) - (1.0 - beta) * np.log(4.0)) / beta
    return football_phi(grid, beta) + c_star


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


@pytest.mark.parametrize("beta", [0.5, 0.75, 0.9])
def test_football_recovery(grid, beta):
    sol = solve_ma(build_twist(grid, beta, 0.0), beta)
    oracle = football_oracle_phi(grid, beta, sol.twist.constant)
    core = np.abs(grid.t) <= 8.0
    assert sol.iterations <= 25
    assert np.max(np.abs(sol.phi - oracle)[core]) < 1e-6
    # metric profile matches the closed form as well
    fb = football_potential(grid, beta)
    assert np.max(np.abs(sol.metric_density - fb.phi_doubleprime)) < 1e-8


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
    w = grid.weights * p0
    phi -= np.dot(w, phi) / w.sum()
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
    twist = build_twist(grid, 0.75, 1e-3)
    bad_guess = 10.0 / np.cosh(grid.t)  # density turns negative
    with pytest.raises(PositivityLost):
        solve_ma(twist, 0.45, bad_guess)


def test_newton_budget_exhaustion(grid, monkeypatch):
    import conic_ke.ma_solver as ma_solver
    monkeypatch.setattr(ma_solver, "_NEWTON_MAX_ITER", 1)
    monkeypatch.setattr(ma_solver, "_NEWTON_TOL", 1e-13)
    twist = build_twist(grid, 0.5, 0.0)
    with pytest.raises(NewtonDiverged):
        solve_ma(twist, 0.5)


@pytest.mark.parametrize("guess", [
    lambda t: -1500.0 * (1.0 - (t / t[-1]) ** 2),  # residual overflows to inf
    lambda t: np.full(t.size, -2000.0),            # e^(-tau phi) overflows at the closures
])
def test_overflowing_newton_system_diverges(grid, guess):
    twist = build_twist(grid, 0.8, 0.01)
    with pytest.raises(NewtonDiverged, match="not finite"):
        solve_ma(twist, 0.5, guess(grid.t))


def test_singular_newton_system_diverges(grid, monkeypatch):
    import conic_ke.ma_solver as ma_solver

    def singular(ab, rhs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(ma_solver, "_solve_tridiagonal", singular)
    with pytest.raises(NewtonDiverged, match="singular"):
        solve_ma(build_twist(grid, 0.8, 0.01), 0.5)


def test_path_stall_reports_last_tau(monkeypatch):
    import conic_ke.ma_solver as ma_solver
    monkeypatch.setattr(ma_solver, "_NEWTON_TOL", 1e-30)
    g = Grid(-16, 16, 513)
    with pytest.raises(PathStalled) as exc:
        continuity_path(ConeConfiguration(0.8), 1e-3, grid=g)
    assert exc.value.last_tau == 0.0
    assert len(exc.value.trace.steps) == 1


def test_config_validation(grid):
    with pytest.raises(ValueError):
        solve_ma(build_twist(grid, 0.5, 0.0), 0.7)   # tau above mu
    with pytest.raises(ValueError):
        build_twist(grid, 0.5, -1.0)  # negative delta
    with pytest.raises(ValueError):
        ConeConfiguration(1e-17)  # mu = 1 - (1 - beta) rounds to 0
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            build_twist(grid, 0.5, bad)


@pytest.mark.parametrize("beta, delta, angle", [
    (0.6, 0.0, 0.6), (0.6, 1e-2, 1.0), (1.0, 0.0, 1.0)])
def test_potential_angles_come_from_the_twist(beta, delta, angle):
    g = Grid(-16, 16, 257)
    sol = solve_ma(build_twist(g, beta, delta), 0.0)
    assert sol.twist.cone.beta == beta and sol.twist.delta == delta
    assert sol.potential.cone == ConeConfiguration(angle)


def test_smoothed_pole_angle_between(grid):
    # smoothing regularizes the cone: fitted fraction sits strictly between
    sol = solve_ma(build_twist(grid, 0.6, 1e-2), 0.6)
    ang = cone_angle_at_pole(sol.potential, "zero", residual_threshold=1.0)
    assert 0.6 < ang < 1.0


# ---------------------------------------------------------------------------
# continuation


def test_adaptive_path_budget(grid):
    trace = continuity_path(ConeConfiguration(0.8), 1e-4, grid=grid)
    assert trace.status == "complete"
    assert len(trace.steps) <= 200
    assert trace.taus[-1] == pytest.approx(0.8, abs=1e-14)
    trace.validate()


def test_eigenvalue_gap_along_path(trace_08):
    margins = [s.lambda1 - s.tau for s in trace_08.steps]
    assert min(margins) > 0.0


def test_trivial_path(grid):
    trace = continuity_path(ConeConfiguration(1.0), 1.0, grid=grid)
    for s in trace.steps:
        assert abs(s.j_value) < 1e-12
        assert np.max(np.abs(s.solution.phi)) < 1e-9


def test_path_preconditions(grid):
    with pytest.raises(ValueError):
        continuity_path(ConeConfiguration(0.25), 0.0, grid=grid)


@pytest.mark.parametrize("steps", [0, -1, -2], ids=["zero", "minus-one", "minus-two"])
def test_path_schedule_without_steps_rejected(steps):
    with pytest.raises(ValueError, match="schedule"):
        continuity_path(ConeConfiguration(0.8), 1e-3, steps=steps,
                        grid=Grid(-16, 16, 257))


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
    g = Grid(-16, 16, 257)
    trace = continuity_path(ConeConfiguration(0.8), 1e-3, steps=10, grid=g)
    assert trace.status == "complete" and len(trace.steps) == 11
    assert len(built) <= 1


def test_uniform_path_failure_is_the_solves_own(monkeypatch):
    import conic_ke.ma_solver as ma_solver
    g = Grid(-16, 16, 257)
    cone = ConeConfiguration(0.8)
    targets = np.linspace(0.0, cone.mu, 5)
    assert np.array_equal(continuity_path(cone, 1e-3, steps=4, grid=g).taus, targets)
    tried = []
    solve = ma_solver.solve_ma

    def recording(twist, tau, guess=None):
        tried.append(tau)
        return solve(twist, tau, guess)

    monkeypatch.setattr(ma_solver, "solve_ma", recording)
    monkeypatch.setattr(ma_solver, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(NewtonDiverged):         # not PathStalled, a sibling class
        continuity_path(cone, 1e-3, steps=4, grid=g)
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
    rep = smoothing_family(ConeConfiguration(1.0), [1e-1, 1e-3, 1e-5], grid)
    assert np.all(rep.sup_distances < 1e-9)


def test_smoothing_family_validation(grid):
    with pytest.raises(ValueError):
        smoothing_family(ConeConfiguration(0.75), [1e-3, 1e-2], grid)


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
        g = Grid(-16, 16, n)
        sol = solve_ma(build_twist(g, 0.7, 1e-2), 0.7)
        vals.append(ricci_lower_bound_margin(sol).discrepancy)
    assert vals[0] / vals[1] >= 3.5


# ---------------------------------------------------------------------------
# spectral gap


def test_first_eigenvalue_round(fs):
    lam, per_mode = first_eigenvalue(fs)
    assert lam == pytest.approx(1.0, abs=1e-4)
    # the second radial eigenvalue of the round metric sits at 3
    assert per_mode[2] == pytest.approx(3.0, abs=1e-3)


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
    trace = continuity_path(ConeConfiguration(0.8), 1e-3, steps=10, grid=grid)
    _assert_matches_bisection(
        [football_potential(grid, b) for b in (0.1, 0.3, 0.8, 1.0)]
        + [s.solution.potential for s in trace.steps])


def test_first_eigenvalue_rounding_floor(grid):
    # here the Rayleigh quotient flips by ~1e-13 at the rounding floor; a stop
    # on |relative change| <= 1e-13 alone never terminated on this path
    trace = continuity_path(ConeConfiguration(0.7979), 1e-3, steps=100, grid=grid)
    _assert_matches_bisection([s.solution.potential for s in trace.steps])


def test_first_eigenvalue_refinement():
    # second-order convergence to the round metric's closed forms past the
    # default grid: the error falls 16-fold per 4x refinement
    exact = {0: 1.0, 1: 1.0, 2: 3.0}
    errors = []
    for n in (2049, 8193, 32769):
        _, per_mode = first_eigenvalue(fubini_study_potential(Grid(-24, 24, n)))
        errors.append({m: abs(per_mode[m] - exact[m]) for m in exact})
    for coarse, fine in zip(errors, errors[1:]):
        for m in exact:
            assert coarse[m] / fine[m] == pytest.approx(16.0, abs=1.0)


def test_eigen_solve_failures(fs, monkeypatch):
    import conic_ke.ma_solver as ma_solver

    with pytest.raises(SolverError):
        _lowest_eigenvalue(np.ones(2), np.array([-2.0]))    # indefinite
    monkeypatch.setattr(ma_solver, "_EIGEN_MAX_ITER", 2)
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
    cone = ConeConfiguration(0.8)
    solve_ma(build_twist(grid, cone.beta, 1e-3), 0.0)
    sol = solve_ma(build_twist(grid, cone.beta, 1e-3), cone.mu)
    assert len(systems) == 1 + sol.iterations >= 3
    for ab, rhs in systems:
        assert np.array_equal(solve(ab, rhs), solve_banded((1, 1), ab, rhs))

    flapack = ma_solver._lapack()
    assert flapack is sys.modules["scipy.linalg._flapack"]
    for m in (0, 1, 2):
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
    rep = smoothing_family(ConeConfiguration(1.0), [1e-1, 1e-2], grid)
    bounds = two_sided_bound_check(rep)
    assert bounds.lower_constant == pytest.approx(1.0, abs=1e-6)
    assert bounds.upper_constant == pytest.approx(1.0, abs=1e-6)


def test_two_sided_family(smoothing_075, grid):
    bounds = two_sided_bound_check(smoothing_075)
    assert np.isfinite(bounds.lower_constant) and np.isfinite(bounds.upper_constant)
    # the lower bound is tight where the section norm peaks
    assert abs(bounds.argmin_t) <= grid.h + 1e-12
    # stability under refinement within ten percent
    fine = Grid(-16, 16, 4097)
    rep_fine = smoothing_family(ConeConfiguration(0.75),
                                [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], fine)
    bounds_fine = two_sided_bound_check(rep_fine)
    assert bounds.lower_constant == pytest.approx(bounds_fine.lower_constant, rel=0.1)
    assert bounds.upper_constant == pytest.approx(bounds_fine.upper_constant, rel=0.1)


def test_twist_tail_consistency(grid):
    # full-line normalization: grid mass plus tails match the reference
    tw = build_twist(grid, 0.8, 1e-3)
    p0 = fubini_study_potential(grid).phi_doubleprime
    w = grid.weights * p0
    lhs = np.dot(w, np.exp(tw.log_weight)) + tw.tail_weighted + tw.tail_weighted
    rhs = w.sum() + tw.tail_plain + tw.tail_plain
    assert lhs == pytest.approx(rhs, rel=1e-9)


def _tail_oracle(mp, edge, beta, delta, rate):
    """Tail integrals of _twist_tail by mpmath quadrature in t itself."""
    with mp.workdps(16):
        edge, beta, delta, rate = (mp.mpf(v) for v in (edge, beta, delta, rate))

        def g(s):
            u = 1 / (1 + mp.exp(-s))
            return 2 * u * (1 - u) * (delta + 4 * u * (1 - u)) ** (beta - 1)

        # mpmath's tolerance is absolute, so integrate g / g(edge); split the
        # line on the scales of both decay rates and where the smoothed twist
        # turns conic
        ref = g(edge)
        cuts = [edge] + [edge - c / r for c in (3, 30) for r in (1, beta)]
        if delta > 0:
            knee = mp.log(delta / 4)
            cuts += [knee - 8, knee, knee + 8]
        pts = [mp.ninf] + sorted({c for c in cuts if c <= edge})
        plain = mp.quad(lambda s: g(s) / ref, pts, method="gauss-legendre")
        corr = mp.quad(lambda s: g(s) / ref * -mp.expm1(rate * (s - edge)) / rate,
                       pts, method="gauss-legendre")
        return plain * ref, corr * ref


@pytest.mark.parametrize("beta", [0.01, 0.1, 0.2, 0.5, 0.75, 1.0])
def test_twist_tail_matches_mpmath(beta):
    mp = pytest.importorskip("mpmath")
    for delta in (0.0, 1e-14, 1e-8, 1e-3, 1.0, 1e6):
        rate = beta if delta == 0.0 else 1.0
        for half_width in (0.5, 4.0, 16.0, 40.0):
            got = _twist_tail(-half_width, beta, delta)
            want = _tail_oracle(mp, -half_width, beta, delta, rate)
            for g, w in zip(got, want):
                assert g == pytest.approx(float(w), rel=1e-12), (delta, half_width)
