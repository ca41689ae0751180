"""Open defects, one strict expected failure each.

Every test asserts the correct answer at its stated accuracy and fails
today for the ROADMAP item named in its reason.  A fix turns the test into
an XPASS, which strict mode reports as a failure until the fixing change
removes the marker; `pytest -rxX` lists the entries still open.
"""

import math

import numpy as np
import pytest

from conic_ke.bergman import associated_hermitian_weight, gram_matrix
from conic_ke.cli import main
from conic_ke.geometry import Grid, football_potential
from conic_ke.ma_solver import first_eigenvalue


def run(*argv):
    return main([str(a) for a in argv])


@pytest.mark.xfail(strict=True, reason="ROADMAP item 18")
def test_football_gap_is_beta():
    # the m = 0 gap of a football is exactly beta; the t pencil misses the
    # mass beyond +-T (1.45e-2 at beta = 0.3 on the default grid)
    lam, _ = first_eigenvalue(football_potential(Grid(), 0.3))
    assert abs(lam - 0.3) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
def test_football_gram_is_a_beta_function():
    # <z^k, z^k> = 4 pi B(k/beta + 1, (2l - k)/beta + 1); the rows near k = 0
    # and 2l lose their tails beyond +-T (1.87e-3 at beta = 0.6, l = 8)
    beta, ell = 0.6, 8
    fb = football_potential(Grid(), beta)
    got = gram_matrix(ell, associated_hermitian_weight(fb), fb).log_diag
    exact = [math.log(4.0 * math.pi) + math.lgamma(k / beta + 1.0)
             + math.lgamma((2 * ell - k) / beta + 1.0) - math.lgamma(2 * ell / beta + 2.0)
             for k in range(2 * ell + 1)]
    assert np.max(np.abs(got - exact)) <= 1e-8


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2(b)")
def test_conic_path_at_beta_03_completes(tmp_path):
    # the tau = 0 row stops at residual 2.959e-11, above the 1e-11 tolerance
    assert run("continue-path", "--beta", 0.3, "--delta", 0, "--out", tmp_path / "p") == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2(a)")
def test_fine_conic_solve_converges(tmp_path):
    # the Newton tolerance sits below the rounding floor at N = 8193
    assert run("solve", "--beta", 0.75, "--delta", 0, "--tau", 0.75,
               "--grid-N", 8193, "--out", tmp_path / "s") == 0


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2(e)")
def test_solve_at_a_tiny_tau_converges(tmp_path):
    # the Newton system tends to the tau = 0 operator, singular along the
    # constants, which only the tau = 0 branch pins
    assert run("solve", "--beta", 0.5, "--delta", 0, "--tau", 1e-12,
               "--out", tmp_path / "t") == 0
