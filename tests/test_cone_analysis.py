import math

import numpy as np
import pytest

from conic_ke.cone_analysis import (
    LOG3,
    FlatConeModel,
    LogLogCutoff,
    RadiusOutOfRange,
    check_radii,
    cone_volume_ratios,
    dirichlet_energy,
    selection_log_delta,
    tube_volume,
    unit_ball_volume,
    volume_ratio_profile,
)
from conic_ke.geometry import football_potential, fubini_study_potential, read_pole


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


def test_energy_powers_inside_double_range():
    # eps^0 = 1, but the band end 3 s1 = 3e300 squares to inf: the energy
    # and the quadrature read 0 where the closed form is 5.5e-301
    with pytest.raises(ValueError, match="band end"):
        dirichlet_energy(LogLogCutoff(1e-300, selection_log_delta(1, 1e-300)),
                         FlatConeModel(1, 0.25))
    # eps^398 = 1e-796 is 0 in double: the bound divided by zero
    with pytest.raises(ValueError, match=r"eps\^398"):
        dirichlet_energy(LogLogCutoff(0.01, math.log(1e-3)), FlatConeModel(200, 0.25))
    # eps^4 is normal but the energy, near a_2 R^4, would overflow
    with pytest.raises(ValueError, match=r"eps\^4"):
        dirichlet_energy(LogLogCutoff(1.3e-77, math.log(0.33)), FlatConeModel(3, 0.25))
    # the selection rule's own power, eps^3 = 1e-900
    with pytest.raises(ValueError, match=r"eps\^3"):
        selection_log_delta(2, 1e-300)
    rep = dirichlet_energy(LogLogCutoff(1e-150, selection_log_delta(1, 1e-150)),
                           FlatConeModel(1, 0.25))
    assert 0.0 < rep.energy <= rep.closed_form_bound
    # for n = 1 the energy does not depend on eps; rho^2 = (eps e^-s)^2
    # overflowed in exp at eps = 1e245
    model = FlatConeModel(1, 0.25)
    assert dirichlet_energy(LogLogCutoff(1e245, math.log(0.1)), model).energy \
        == dirichlet_energy(LogLogCutoff(0.1, math.log(0.1)), model).energy


# ---------------------------------------------------------------------------
# volume comparison


def test_flat_cone_ratio_constant():
    m = FlatConeModel(1, 0.5)
    rep = cone_volume_ratios(m, np.linspace(0.1, 2.0, 15))
    assert np.max(np.abs(rep.ratios - np.pi / 2.0)) < 1e-12
    assert rep.monotone_defect <= 1e-12
    assert rep.angle_estimate == pytest.approx(0.5, abs=1e-12)


def test_flat_cone_ratio_is_its_closed_form_at_any_radius():
    # r^6 leaves double range at both radii; the ratio never forms it
    rep = cone_volume_ratios(FlatConeModel(3, 0.5), [1e-60, 1e60])
    assert rep.ratios.tolist() == [0.5 * unit_ball_volume(6)] * 2
    assert rep.monotone_defect == 0.0 and rep.angle_estimate == 0.5


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


@pytest.mark.parametrize("radii, end", [
    # below the grid's first node np.interp held the area there: ratio/pi
    # read 2.7e6 at r = 1e-5 instead of 0.6
    pytest.param([1e-5, 1e-2], "min", id="football-below-grid"),
    pytest.param([0.5, 50.0], "max", id="football-beyond-grid"),
])
def test_volume_ratio_radius_out_of_range_names_its_end(grid, radii, end):
    with pytest.raises(RadiusOutOfRange) as info:
        volume_ratio_profile(football_potential(grid, 0.6), "zero", radii)
    assert info.value.end == end


def test_football_first_distance_is_the_pole_arc(grid):
    # the distance from the pole to the end node, where x0 is the mass
    # beyond it, is 2/sqrt(beta) asin(sqrt(x0/2)) on a football; the
    # one-term tail sqrt(2 x0/beta) read 0.8675 for 0.8909 at beta = 0.2
    beta = 0.2
    fb = football_potential(grid, beta)
    first = 2.0 / math.sqrt(beta) * math.asin(math.sqrt(read_pole(fb, "zero")[1] / 2.0))
    with pytest.raises(RadiusOutOfRange) as info:
        volume_ratio_profile(fb, "zero", [first * (1.0 - 1e-7), 1.0])
    assert info.value.end == "min"
    r = np.array([first * (1.0 + 1e-7), 1.0])
    exact = 2.0 * np.pi * (1.0 - np.cos(math.sqrt(beta) * r)) / r ** 2
    assert np.allclose(volume_ratio_profile(fb, "zero", r).ratios, exact, rtol=1e-6)


def test_radii_squares_inside_double_range():
    for radii in ([1e-200, 1.0], [1.0, 1e200]):
        with pytest.raises(ValueError, match="squares"):
            check_radii(radii)
    assert check_radii([1e-150, 1e150]).tolist() == [1e-150, 1e150]


def test_unit_ball_volume_past_gamma_overflow():
    # Gamma(201) overflows a double; pi^200 / 200! is about 1e-274
    log_volume = 200 * math.log(math.pi) - sum(math.log(k) for k in range(1, 201))
    assert unit_ball_volume(400) == pytest.approx(math.exp(log_volume), rel=1e-12)
    assert unit_ball_volume(0) == 1.0


def test_tube_volume_quadratic():
    m = FlatConeModel(2, 0.7)
    rep = tube_volume(m, (1.0, 2.0), np.geomspace(0.01, 0.5, 12))
    assert rep.exponent == 2.0               # the closed form, not a fit
    expect = np.pi * 0.7 * (np.pi * (4.0 - 1.0))
    assert rep.constant == pytest.approx(expect, rel=1e-15)


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
