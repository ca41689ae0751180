import math

import numpy as np
import pytest

from conic_ke.geometry import Grid, football_phi, fubini_study_potential
from conic_ke.ma_solver import continuity_path, smoothing_family


@pytest.fixture(scope="session")
def football_oracle():
    """The closed-form relative potential that a conic solve at tau = mu
    should return: the football plus the additive constant c* that the
    solve's normalizing constant a_beta implies."""
    def oracle(sol):
        beta = sol.twist.beta
        c_star = (sol.twist.constant - np.log(beta) - (1.0 - beta) * np.log(4.0)) / beta
        return football_phi(sol.grid, beta) + c_star
    return oracle


@pytest.fixture(scope="session")
def football_log_gram():
    """The exact Gram diagonal of the football of fraction beta at degree
    2l: with x = e^(beta t) each entry is a Beta integral, so
    log <z^k, z^k> = log 4 pi B(k/beta + 1, (2l - k)/beta + 1), k = 0..2l."""
    def oracle(beta, ell):
        return np.array([math.log(4.0 * math.pi) + math.lgamma(k / beta + 1.0)
                         + math.lgamma((2 * ell - k) / beta + 1.0)
                         - math.lgamma(2 * ell / beta + 2.0) for k in range(2 * ell + 1)])
    return oracle


@pytest.fixture(scope="session")
def grid():
    return Grid()


@pytest.fixture(scope="session")
def wide_grid():
    """Half width 40: truncation below 1e-8 even at beta = 0.5."""
    return Grid(40.0, 4097)


@pytest.fixture(scope="session")
def fine_grid():
    return Grid(16.0, 8193)


@pytest.fixture(scope="session")
def fs(grid):
    return fubini_study_potential(grid)


@pytest.fixture(scope="session")
def trace_08(grid):
    """Uniform 100-step continuation at beta = 0.8, delta = 1e-3."""
    return continuity_path(0.8, 1e-3, steps=100, grid=grid)


@pytest.fixture(scope="session")
def trace_08_halved(grid):
    return continuity_path(0.8, 1e-3, steps=200, grid=grid)


@pytest.fixture(scope="session")
def smoothing_075(grid):
    """delta sweep 1e-1 .. 1e-5 at beta = 0.75."""
    return smoothing_family(0.75, [1e-1, 1e-2, 1e-3, 1e-4, 1e-5], grid)
