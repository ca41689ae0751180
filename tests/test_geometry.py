import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_ke.geometry import (
    Grid,
    RadialKahlerPotential,
    cone_mu,
    defining_section_norm,
    football_potential,
    fubini_study_potential,
    read_pole,
    ricci_potential_h0,
)
from conic_ke.numerics import d1, d2

FOUR_PI = 4.0 * np.pi


def area(pot):
    """2 pi (Phi'(t_max) - Phi'(t_min)), the area the grid covers."""
    return 2.0 * np.pi * (pot.phi_prime[-1] - pot.phi_prime[0])


def curvature(pot):
    """Gauss curvature -(log Phi'')''/Phi'' by centered differences."""
    return -d2(np.log(pot.phi_doubleprime), pot.grid.h) / pot.phi_doubleprime


def perturbed_smooth(grid, amp=0.01):
    """Round metric with a sech bump added to the moment profile."""
    fs = fubini_study_potential(grid)
    pp = fs.phi_prime + amp / np.cosh(grid.t)
    ppp = fs.phi_doubleprime - amp * np.tanh(grid.t) / np.cosh(grid.t)
    return RadialKahlerPotential(grid, pp, ppp, fs.base_offset)


def test_grid_invariants():
    g = Grid()
    assert g.n_nodes % 2 == 1
    assert g.h > 0
    assert g.t_min == -g.t_max
    assert np.isclose(g.weights.sum(), g.t_max - g.t_min)
    for bad in ((16, 2048), (0.0, 2049), (-16, 2049), (float("nan"), 2049)):
        with pytest.raises(ValueError):
            Grid(*bad)


def test_fubini_study_midpoint(grid):
    fs = fubini_study_potential(grid)
    assert fs.phi_prime[grid.n_nodes // 2] == pytest.approx(1.0, abs=1e-14)


def test_fubini_study_area_closed_form(wide_grid):
    # 2 pi (Phi'(inf) - Phi'(-inf)) = 4 pi; truncation is e^(-40) here
    assert area(fubini_study_potential(wide_grid)) == pytest.approx(FOUR_PI, abs=1e-10)


def test_football_area_gauss_bonnet(wide_grid):
    # two cone points of angle 2 pi beta and curvature beta force area 4 pi
    assert area(football_potential(wide_grid, 0.5)) == pytest.approx(FOUR_PI, abs=1e-6)


def test_fubini_study_curvature():
    g = Grid(16, 16385)
    assert curvature(fubini_study_potential(g))[g.n_nodes // 2] \
        == pytest.approx(1.0, abs=1e-6)


def test_football_curvature_symbolic():
    # -(log Phi'')'' = beta Phi'' for the closed form; the discrete residual
    # bottoms out near 4e-7 (stencil rounding), see the decisions notes
    g = Grid(16, 8193)
    fb = football_potential(g, 0.5)
    prof = curvature(fb)
    assert np.max(np.abs(prof[2:-2] - 0.5)) < 1e-6
    at_3 = int(round((3.0 - g.t_min) / g.h))
    assert curvature(football_potential(g, 0.75))[at_3] == pytest.approx(0.75, abs=1e-6)


def test_curvature_refinement_second_order():
    res = []
    for g in (Grid(16, 1025), Grid(16, 2049)):
        prof = curvature(football_potential(g, 0.6))
        res.append(np.max(np.abs(prof[2:-2] - 0.6)))
    assert res[0] / res[1] >= 3.5


@pytest.mark.parametrize("beta, accepted", [
    (0.2013, True), (0.75, True), (1.0, True), (1e-16, True),
    (0.0, False), (-0.1, False), (1.5, False), (float("nan"), False),
    (float("inf"), False), (1e-17, False)])
def test_cone_mu_is_the_one_beta_rule(beta, accepted):
    # beta in (0, 1] with mu = 1 - (1 - beta) > 0: 1e-17 lies in (0, 1], but
    # its mu rounds to 0.  mu keeps that form bit for bit; for 0.2013 it is
    # not beta itself, and the data files depend on the form.
    if not accepted:
        with pytest.raises(ValueError, match=r"beta must lie in \(0, 1\]"):
            cone_mu(beta)
        return
    assert cone_mu(beta) == 1.0 - (1.0 - beta)
    if beta == 0.2013:
        assert cone_mu(beta) != beta


def test_cone_angle_extraction():
    # a football is exactly Phi'' = beta x - beta x^2/2, the read's model
    for grid in (Grid(16, 2049), Grid(40, 4097)):
        for beta in (1.0, 0.6, 0.3, 0.1):
            fb = football_potential(grid, beta)
            for pole in ("zero", "infinity"):
                assert read_pole(fb, pole)[0] == pytest.approx(beta, abs=1e-7), \
                    (grid, beta, pole)


def test_cone_angle_rejects_non_conic(grid):
    fs = fubini_study_potential(grid)
    wild = RadialKahlerPotential(
        grid, fs.phi_prime,
        fs.phi_doubleprime * np.exp(0.8 * np.sin(3.0 * grid.t)))
    with pytest.raises(ValueError):
        read_pole(wild, "zero")


def test_pole_read_needs_a_unit_of_t():
    # the read's nodes span one unit of t from the pole
    with pytest.raises(ValueError, match="a pole read needs 5123 nodes"):
        read_pole(fubini_study_potential(Grid(0.2, 2049)), "zero")


def test_defining_section_norm(grid):
    s = defining_section_norm(grid)
    assert s[grid.n_nodes // 2] == pytest.approx(1.0, abs=1e-14)
    # closed form 4 e^t/(1+e^t)^2 at every node; 0.64 at t = log 4
    expect = 4.0 * np.exp(grid.t) / (1.0 + np.exp(grid.t)) ** 2
    assert np.max(np.abs(s - expect)) < 1e-13
    assert np.interp(np.log(4.0), grid.t, s) == pytest.approx(0.64, abs=1e-4)
    # vanishing at rate e^{-|t|} on both divisor points
    assert s[0] == pytest.approx(4.0 * np.exp(grid.t_min), rel=1e-3)
    assert s[-1] == pytest.approx(4.0 * np.exp(-grid.t_max), rel=1e-3)


def test_ricci_potential_vanishes_round(grid):
    h0, _ = ricci_potential_h0(fubini_study_potential(grid))
    assert np.max(np.abs(h0)) < 1e-10


def test_ricci_potential_perturbed_normalized(grid):
    pot = perturbed_smooth(grid)
    h, _ = ricci_potential_h0(pot)
    assert np.max(np.abs(h)) > 1e-4  # genuinely nonzero
    w = grid.weights * pot.phi_doubleprime
    assert abs(np.dot(w, np.exp(h) - 1.0)) < 1e-8


def test_ricci_potential_roundtrip(grid):
    # h'' + Phi'' reconstructs the curvature form at second order
    pot = perturbed_smooth(grid)
    h, _ = ricci_potential_h0(pot)
    lhs = d2(h, grid.h) + pot.phi_doubleprime
    rhs = curvature(pot) * pot.phi_doubleprime
    assert np.max(np.abs(lhs - rhs)[2:-2]) < 1e-4


def test_ricci_potential_rejects_conic(grid):
    with pytest.raises(ValueError):
        ricci_potential_h0(football_potential(grid, 0.6))


def test_ricci_potential_rejects_near_smooth_cone():
    # the pole read tells beta = 0.97 from 1; h0 assumes beta = mu = 1
    with pytest.raises(ValueError, match="smooth"):
        ricci_potential_h0(football_potential(Grid(), 0.97))


def test_football_matches_round_at_beta_one(grid):
    fb = football_potential(grid, 1.0)
    fs = fubini_study_potential(grid)
    assert np.array_equal(fb.phi_prime, fs.phi_prime)
    assert np.array_equal(fb.phi_doubleprime, fs.phi_doubleprime)


def test_consistency_residual_second_order():
    res = []
    for g in (Grid(16, 1025), Grid(16, 2049)):
        fb = football_potential(g, 0.7)
        # sup |d/dt Phi' - Phi''| over the interior nodes
        res.append(np.max(np.abs(d1(fb.phi_prime, g.h) - fb.phi_doubleprime)[1:-1]))
    assert res[0] / res[1] >= 3.5
    assert res[1] < 1e-4


@settings(max_examples=20, deadline=None)
@given(beta=st.floats(0.4, 1.0))
def test_football_positivity_and_class(beta):
    g = Grid(16, 513)
    fb = football_potential(g, beta)      # built, so Phi'' > 0 at every node
    # moment profile increasing, endpoints near 0 and 2 at the conic rate
    assert np.all(np.diff(fb.phi_prime) > 0)
    assert fb.phi_prime[0] <= 10.0 * np.exp(beta * g.t_min)
    assert 2.0 - fb.phi_prime[-1] <= 10.0 * np.exp(-beta * g.t_max)
    truncation = 2.0 * np.pi * 10.0 * (np.exp(beta * g.t_min) + np.exp(-beta * g.t_max))
    assert abs(area(fb) - FOUR_PI) <= truncation + 1e-10


def test_base_offset_invariance(grid):
    fb = football_potential(grid, 0.7)
    shifted = RadialKahlerPotential(grid, fb.phi_prime, fb.phi_doubleprime,
                                    fb.base_offset + 3.7)
    assert read_pole(shifted, "zero") == read_pole(fb, "zero")


def test_potential_values_reconstruction(grid):
    fs = fubini_study_potential(grid)
    exact = 2.0 * (np.log1p(np.exp(-np.abs(grid.t))) + np.maximum(grid.t, 0.0))
    assert np.max(np.abs(fs.values - exact)) < 1e-12


def test_positivity_validation(grid):
    # a profile is refused when it is made, naming its first bad node
    with pytest.raises(ValueError, match="^metric positivity violated: Phi'' <= 0 at t = -16$"):
        RadialKahlerPotential(grid, np.linspace(0, 2, grid.n_nodes),
                              np.full(grid.n_nodes, -1.0))
    pp = fubini_study_potential(grid).phi_doubleprime.copy()
    pp[-1] = np.nan
    with pytest.raises(ValueError, match="at t = 16$"):
        RadialKahlerPotential(grid, np.linspace(0, 2, grid.n_nodes), pp)


def test_grid_data_cached_and_read_only():
    g = Grid(12.0, 257)
    ref = g.reference
    arrays = {"t": lambda: g.t, "weights": lambda: g.weights,
              "phi_prime": lambda: g.reference.phi_prime,
              "phi_doubleprime": lambda: g.reference.phi_doubleprime,
              "values": lambda: g.reference.values}
    assert g.reference is ref
    for name, get in arrays.items():
        a = get()
        assert get() is a, name
        with pytest.raises(ValueError):
            a[0] = 1.0
    # same formula as the uncached reference; equality stays field-based
    fs = fubini_study_potential(g)
    assert np.array_equal(ref.phi_prime, fs.phi_prime)
    assert np.array_equal(ref.phi_doubleprime, fs.phi_doubleprime)
    assert ref.base_offset == fs.base_offset
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.base_offset = 1.0
    assert g == Grid(12.0, 257) and hash(g) == hash(Grid(12.0, 257))
