import math

import numpy as np
import pytest

from conic_ke.cone_analysis import (
    LOG3,
    FlatConeModel,
    LogLogCutoff,
    dirichlet_energy,
    selection_log_delta,
    tube_volume,
    unit_ball_volume,
    volume_ratio_profile,
)
from conic_ke.geometry import football_potential, fubini_study_potential


# ---------------------------------------------------------------------------
# the model


def test_parameter_validation():
    with pytest.raises(ValueError):
        FlatConeModel(0, 0.5)
    with pytest.raises(ValueError):
        FlatConeModel(1, 1.5)


def test_euclidean_limit():
    m = FlatConeModel(2, 1.0)
    for r in (0.5, 1.0, 2.0):
        assert m.vertex_ball_volume(r) == pytest.approx(
            unit_ball_volume(4) * r ** 4, rel=1e-14)


def test_cone_circumference_and_sector():
    m = FlatConeModel(1, 0.5)
    assert m.vertex_ball_volume(3.0) == pytest.approx(np.pi * 0.5 * 9.0, rel=1e-14)


# ---------------------------------------------------------------------------
# the doubly logarithmic cutoff


def test_cutoff_support():
    cut = LogLogCutoff(0.1, math.log(0.01))
    assert cut(np.array([0.05]))[0] == 1.0
    assert cut(np.array([0.01 * 0.1]))[0] == pytest.approx(1.0, abs=1e-12)
    assert cut(np.array([0.01 ** 3 * 0.1 / 2.0]))[0] == 0.0
    assert cut(np.array([0.0]))[0] == 0.0


def test_cutoff_range_and_monotone():
    cut = LogLogCutoff(0.2, math.log(0.05))
    rho = np.geomspace(1e-8, 0.2, 500)
    vals = cut(rho)
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(np.diff(vals) >= 0.0)
    # the ramp's slope 1/log 3 in log(-log) puts |grad| under 1/(rho (-log))
    assert 1.0 / LOG3 < 1.0


def test_cutoff_rejects_large_delta():
    with pytest.raises(ValueError):
        LogLogCutoff(0.1, math.log(0.4))
    with pytest.raises(ValueError):
        LogLogCutoff(float("nan"), math.log(0.01))


def test_energy_bound_n1():
    model = FlatConeModel(1, 0.25)
    cut = LogLogCutoff(0.1, selection_log_delta(1, 0.1))
    rep = dirichlet_energy(cut, model)
    assert rep.energy <= rep.closed_form_bound
    assert rep.energy <= 0.1
    assert rep.coarea_relative_difference() <= 1e-6


def test_energy_bound_n2():
    # a_(n-1) is the unit-disc area for n = 2
    assert unit_ball_volume(2) == pytest.approx(np.pi, rel=1e-14)
    model = FlatConeModel(2, 0.25)
    cut = LogLogCutoff(0.2, selection_log_delta(2, 0.2))
    rep = dirichlet_energy(cut, model)
    assert rep.energy <= rep.closed_form_bound
    assert rep.energy <= 0.2
    assert rep.coarea_relative_difference() <= 1e-6


def test_energy_vanishing_rate():
    model = FlatConeModel(1, 0.4)
    sizes = np.array([8.0, 16.0, 32.0, 64.0])
    es = [dirichlet_energy(LogLogCutoff(0.1, -s), model).energy
          for s in sizes]
    slope = np.polyfit(np.log(sizes), np.log(es), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.05)


# ---------------------------------------------------------------------------
# volume comparison


def test_flat_cone_ratio_constant():
    m = FlatConeModel(1, 0.5)
    rep = volume_ratio_profile(m, "vertex", np.linspace(0.1, 2.0, 15))
    assert np.max(np.abs(rep.ratios - np.pi / 2.0)) < 1e-12
    assert rep.monotone_defect <= 1e-12
    assert rep.angle_estimate == pytest.approx(0.5, abs=1e-12)


def test_football_pole_density(grid):
    fb = football_potential(grid, 0.6)
    rep = volume_ratio_profile(fb, "zero", np.linspace(0.1, 1.5, 24))
    assert rep.angle_estimate * np.pi == pytest.approx(np.pi * 0.6, rel=0.01)
    assert rep.monotone_defect <= 1e-12
    assert np.all(np.diff(rep.ratios) < 0.0)


def test_round_sphere_ratio(grid):
    rep = volume_ratio_profile(fubini_study_potential(grid), "zero",
                               np.linspace(0.1, 3.0, 30))
    assert rep.ratios.max() <= np.pi + 1e-9
    assert rep.monotone_defect <= 1e-12


def test_volume_ratio_validation(grid):
    fb = football_potential(grid, 0.6)
    with pytest.raises(ValueError):
        volume_ratio_profile(fb, "zero", [3.0, 2.0])
    with pytest.raises(ValueError):
        volume_ratio_profile(fb, "zero", [0.5, 50.0])


def test_tube_volume_quadratic():
    m = FlatConeModel(2, 0.7)
    rep = tube_volume(m, (1.0, 2.0), np.geomspace(0.01, 0.5, 12))
    assert rep.exponent == pytest.approx(2.0, abs=0.05)
    expect = np.pi * 0.7 * (np.pi * (4.0 - 1.0))
    assert rep.constant == pytest.approx(expect, rel=1e-10)


def test_tube_volume_euclidean_constant():
    m = FlatConeModel(2, 1.0)
    rep = tube_volume(m, (0.0, 1.0), np.geomspace(0.05, 0.5, 8))
    assert rep.constant == pytest.approx(np.pi * 1.0 * np.pi, rel=1e-10)


def test_tube_volume_scales_with_slab():
    m = FlatConeModel(2, 0.6)
    r = np.geomspace(0.02, 0.3, 8)
    small = tube_volume(m, (1.0, 2.0), r)
    big = tube_volume(m, (1.0, 3.0), r)
    area_ratio = (9.0 - 1.0) / (4.0 - 1.0)
    assert big.constant / small.constant == pytest.approx(area_ratio, rel=1e-10)
