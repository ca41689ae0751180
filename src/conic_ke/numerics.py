"""Shared finite-difference and quadrature helpers on uniform grids."""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def simpson_weights(n_nodes: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniformly spaced nodes."""
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def weighted_sum(weights: np.ndarray, values) -> float:
    """Sum of weights * values, the one reduction behind every grid sum:
    numpy's pairwise sum runs in one thread, where a BLAS `np.dot` of more
    than 10^4 terms depends on the thread count."""
    return float(np.sum(weights * values))


def _interval_weights(alignment: int) -> np.ndarray:
    """Weights integrating the quintic through 6 unit-spaced nodes over
    the sub-interval [alignment, alignment + 1]."""
    powers = np.arange(6)
    vander = np.vander(np.arange(6.0), 6, increasing=True).T
    rhs = ((alignment + 1.0) ** (powers + 1) - float(alignment) ** (powers + 1)) / (powers + 1)
    return np.linalg.solve(vander, rhs)


_CUM_WEIGHTS = [_interval_weights(c) for c in range(5)]

# the fewest nodes `cumulative_integral` takes: one quintic window
CUMULATIVE_MIN_NODES = 6


def cumulative_integral(values: np.ndarray, h: float, initial: float = 0.0) -> np.ndarray:
    """Cumulative integral along a uniform grid.

    Per-interval quintic interpolation through 6 nodes, sixth-order on
    smooth data, so potential reconstructions sit at rounding level on
    the grids used here.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < CUMULATIVE_MIN_NODES:
        raise ValueError(f"cumulative integration needs at least {CUMULATIVE_MIN_NODES} nodes")
    incr = np.empty(n - 1)
    windows = sliding_window_view(v, 6)
    incr[2:n - 3] = windows[: n - 5] @ _CUM_WEIGHTS[2]
    incr[0] = v[:6] @ _CUM_WEIGHTS[0]
    incr[1] = v[:6] @ _CUM_WEIGHTS[1]
    incr[n - 3] = v[-6:] @ _CUM_WEIGHTS[3]
    incr[n - 2] = v[-6:] @ _CUM_WEIGHTS[4]
    out = np.empty(n)
    out[0] = 0.0
    # extended-precision accumulation: second differences of the running sum
    # stay at increment-rounding level, which matters when downstream
    # stencils amplify node-to-node jitter by 1/h^2
    out[1:] = np.cumsum((incr * h).astype(np.longdouble)).astype(float)
    return out + initial


def d1(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative: centered interior, one-sided second-order at the ends."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def d2(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative: centered interior, copied outward at the two end nodes."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    out[0] = out[1]
    out[-1] = out[-2]
    return out


def logsumexp_rows(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log of the exponential sum of `a` along `axis`.

    Overwrites `a`: it is shifted by its maxima m and exponentiated in
    place, so a block of log-norms costs no second array of its size.  On
    return `a` holds exp(a - m), and a NaN lane makes its sum NaN.
    """
    m = np.max(a, axis=axis, keepdims=True)
    a -= m
    np.exp(a, out=a)
    return np.squeeze(m, axis=axis) + np.log(np.sum(a, axis=axis))
