"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.  Tolerances are fixed here and nowhere else.
"""

import hashlib

import numpy as np

from conic_ke.bergman import (
    bochner_residual,
    gradient_estimate_ratio,
    partial_c0_scan,
)
from conic_ke.cli import main as cli_main
from conic_ke.cone_analysis import (
    FlatConeModel,
    LogLogCutoff,
    cone_volume_ratios,
    dirichlet_energy,
    selection_log_delta,
    tube_volume,
    volume_ratio_profile,
)
from conic_ke.functionals import path_derivative_residual
from conic_ke.geometry import (
    Grid,
    RadialKahlerPotential,
    football_potential,
    fubini_study_potential,
)
from conic_ke.io import read_manifest
from conic_ke.ma_solver import (
    build_twist,
    first_eigenvalue,
    ricci_lower_bound_margin,
    solve_ma,
)
from conic_ke.numerics import cumulative_integral
from conic_ke.stability import futaki, linearity_check, log_futaki

FOUR_PI = 4.0 * np.pi


def report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_football_recovery(grid, football_oracle):
    worst_err, worst_iters = 0.0, 0
    core = np.abs(grid.t) <= 8.0
    for beta in (0.5, 0.75, 0.9):
        sol = solve_ma(build_twist(grid, beta, 0.0), beta)
        err = np.max(np.abs(sol.phi - football_oracle(sol))[core])
        worst_err = max(worst_err, err)
        worst_iters = max(worst_iters, sol.iterations)
    ok = worst_err <= 1e-6 and worst_iters <= 25
    report(1, ok, f"conic recovery sup error {worst_err:.2e} (<= 1e-6), "
                  f"Newton iterations {worst_iters} (<= 25)")


def test_criterion_2_smoothing(grid, smoothing_075):
    rep = smoothing_075
    margins = [ricci_lower_bound_margin(s).min_margin for s in rep.solutions]
    ok = (min(margins) >= -1e-8
          and rep.distances_monotone()
          and rep.sup_distances[-1] <= 5e-3)
    report(2, ok, f"Ricci margin min {min(margins):.2e} (>= -1e-8), distances "
                  f"monotone={rep.distances_monotone()}, final "
                  f"{rep.sup_distances[-1]:.2e} (<= 5e-3)")


def test_criterion_3_eigenvalue_gap(grid, fs, trace_08):
    lam_fs, _ = first_eigenvalue(fs)
    traces = [trace_08]
    from conic_ke.ma_solver import continuity_path
    traces.append(continuity_path(0.75, 1e-4, grid=grid))
    min_margin = min(s.lambda1 - s.tau for tr in traces for s in tr.steps)
    ok = min_margin > 0.0 and abs(lam_fs - 1.0) <= 1e-4
    report(3, ok, f"gap margin min {min_margin:.2e} (> 0) over "
                  f"{sum(len(t.steps) for t in traces)} steps; round metric "
                  f"lambda1 = {lam_fs:.6f} (1 +- 1e-4)")


def test_criterion_4_path_derivative(grid, trace_08):
    rep = path_derivative_residual(trace_08)
    ok = rep.max_fd() <= 1e-3 and rep.max_onpath() <= 1e-8
    report(4, ok, f"derivative FD-vs-formula residual {rep.max_fd():.2e} "
                  f"(<= 1e-3); on-path reduction {rep.max_onpath():.2e} (<= 1e-8)")


def test_criterion_5_bergman_scan(grid):
    betas = np.linspace(0.6, 1.0, 9)
    ells = (2, 4, 8, 16)
    coarse = partial_c0_scan(betas, ells, grid)
    fine = partial_c0_scan(betas, ells, Grid(16, 4097))
    trace_defect = max(abs(r.trace_check - (2 * r.ell + 1)) for r in coarse)
    inf_min = min(r.inf_rho for r in coarse)
    drift = max(abs(a.inf_rho - b.inf_rho) / b.inf_rho
                for a, b in zip(coarse, fine))
    ok = trace_defect <= 1e-8 and inf_min > 0.0 and drift <= 0.02
    report(5, ok, f"trace defect {trace_defect:.2e} (<= 1e-8); inf rho "
                  f"{inf_min:.3f} (> 0); refinement drift {drift:.2%} (<= 2%)")


def test_criterion_6_bochner():
    pairs = []
    for n in (2049, 4097):
        g = Grid(16, n)
        pairs.append((bochner_residual(0, fubini_study_potential(g), 1, mu=1.0, window=4.0),
                      bochner_residual(2, football_potential(g, 0.75), 4, mu=0.75,
                                       window=8.0)))
    (r_fs_c, r_fb_c), (r_fs_f, r_fb_f) = pairs
    ratios = (r_fs_c.residual_first / r_fs_f.residual_first,
              r_fs_c.residual_second / r_fs_f.residual_second,
              r_fb_c.residual_first / r_fb_f.residual_first,
              r_fb_c.residual_second / r_fb_f.residual_second)
    ok = min(ratios) >= 3.5
    report(6, ok, "curvature identity residuals drop by "
                  + ", ".join(f"{r:.2f}" for r in ratios) + " under halving (>= 3.5)")


def test_criterion_7_sup_norm_constant(fs):
    ratios = gradient_estimate_ratio((2, 4, 8, 16, 32), fs)
    vals = np.array(list(ratios.values()))
    mid = 0.5 * (vals.max() + vals.min())
    spread = (vals.max() - vals.min()) / (2.0 * mid)
    ok = spread <= 0.15
    report(7, ok, f"sup-norm ratio spread over l in 2..32 is +-{spread:.1%} (<= 15%)")


def test_criterion_8_obstruction_invariants(grid, fs):
    stab_grid = Grid(24, 32769)
    rng = np.random.default_rng(42)
    worst_val, worst_disc = 0.0, 0.0
    for _ in range(5):
        q = np.log(fubini_study_potential(stab_grid).phi_doubleprime)
        for _ in range(3):
            q = q + rng.uniform(-0.3, 0.3) / np.cosh(stab_grid.t - rng.uniform(-2, 2))
        pp = np.exp(q)
        pp *= 2.0 / stab_grid.integrate(pp)
        pot = RadialKahlerPotential(
            stab_grid, cumulative_integral(pp, stab_grid.h, 0.0), pp, 0.0)
        rep = futaki(pot)
        worst_val = max(worst_val, abs(rep.via_gradient), abs(rep.via_theta))
        worst_disc = max(worst_disc, rep.discrepancy)
    fb = football_potential(grid, 0.7)
    sym = abs(log_futaki(fb, 0.7, [("zero", 1.0), ("infinity", 1.0)]))
    tear = log_futaki(fs, 0.7, [("infinity", 1.0)])
    lin = max(linearity_check(fs, 0.9, 0.6, [("zero", 1.0), ("infinity", 1.0)]),
              linearity_check(fs, 0.8, 0.5, [("infinity", 1.0)]))
    ok = (worst_val <= 1e-6 and worst_disc <= 1e-6 and sym <= 1e-8
          and abs(tear - 0.3) <= 1e-6 and lin <= 1e-12)
    report(8, ok, f"invariant {worst_val:.1e} (<= 1e-6), routes agree "
                  f"{worst_disc:.1e} (<= 1e-6); symmetric {sym:.1e} (<= 1e-8); "
                  f"teardrop {tear:.6f} (0.3 +- 1e-6); linearity {lin:.1e} (<= 1e-12)")


def test_criterion_9_capacity():
    results = []
    for n, eps in ((1, 0.1), (2, 0.2)):
        cut = LogLogCutoff(eps, selection_log_delta(n, eps))
        rep = dirichlet_energy(cut, FlatConeModel(n, 0.25))
        results.append((n, eps, rep))
    ok = all(r.energy <= eps and r.energy <= r.closed_form_bound
             and r.coarea_relative_difference() <= 1e-6
             for _, eps, r in results)
    detail = "; ".join(
        f"n={n}: energy {r.energy:.4f} <= eps {eps}, "
        f"bound holds {r.energy <= r.closed_form_bound}, "
        f"co-area diff {r.coarea_relative_difference():.1e}"
        for n, eps, r in results)
    report(9, ok, detail)


def test_criterion_10_volume_comparison(grid):
    fb = football_potential(grid, 0.6)
    ratio = volume_ratio_profile(fb, "zero", np.linspace(0.1, 1.5, 24))
    density_ok = abs(ratio.angle_estimate * np.pi - np.pi * 0.6) <= 0.01 * np.pi * 0.6
    mono_ok = ratio.monotone_defect <= 1e-12
    cone_ratio = cone_volume_ratios(FlatConeModel(1, 0.5), np.linspace(0.1, 2.0, 12))
    tube = tube_volume(FlatConeModel(2, 0.7), (1.0, 2.0),
                       np.geomspace(0.01, 0.5, 12))
    ok = (density_ok and mono_ok and cone_ratio.monotone_defect <= 1e-6
          and abs(tube.exponent - 2.0) <= 0.05)
    report(10, ok, f"pole density {ratio.angle_estimate * np.pi:.4f} "
                   f"(pi*0.6 +- 1%); monotone defects {ratio.monotone_defect:.1e}, "
                   f"{cone_ratio.monotone_defect:.1e}; tube exponent "
                   f"{tube.exponent:.4f} (2 +- 0.05)")


def test_criterion_11_reproducibility(tmp_path):
    commands = [
        ("solve", "--beta", "0.75", "--delta", "0", "--tau", "0.75",
         "--grid-N", "1025"),
        ("capacity", "--n", "1", "--eps", "0.1"),
        ("bergman-scan", "--betas", "0.7,1.0", "--ells", "2,4",
         "--grid-N", "1025"),
        ("volume-scan", "--source", "football:0.6", "--center", "zero"),
        ("log-futaki", "--metric", None, "--beta", "0.7",
         "--points", "zero:1,infinity:1"),
    ]
    from conic_ke.io import potential_table, write_csv
    metric_path = tmp_path / "fs.csv"
    write_csv(metric_path, *potential_table(fubini_study_potential(Grid(16, 1025))))
    all_equal = True
    checked = 0
    for spec in commands:
        spec = [str(metric_path) if s is None else s for s in spec]
        hashes = []
        for run_idx in (0, 1):
            out = tmp_path / f"{spec[0]}-{run_idx}"
            code = cli_main([*spec, "--out", str(out)])
            assert code == 0
            manifest = read_manifest(out / "manifest.json")
            hashes.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                           for name in manifest["outputs"]})
        all_equal = all_equal and hashes[0] == hashes[1]
        checked += len(hashes[0])
    report(11, all_equal, f"{checked} data files byte-identical across reruns "
                          f"of {len(commands)} commands")
