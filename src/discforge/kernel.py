"""Unit-increment Markov kernel on R^r with a prescribed Gaussian
stationary law, and the sphere-slice sampler it is built from.

Every transition moves by exactly a unit vector, and every sampler here
returns that unit increment u: the next state is x + u. Writing t = ||x||,
the next point keeps either the current radius (a uniform point of the
slice at radius t) or reflects to radius 1-t (the step -x/t when x is
nonzero). The reflection weight chi(1-t)/chi(t) is a probability exactly
when the variance parameter is at least sigma_star(r)^2.

Each transition takes the variance sigma2 and reads the dimension r from
its state, and each checks sigma2 against the floor once, on entry, before
it draws anything.
"""
from __future__ import annotations

import math

import numpy as np

from .chilaw import sigma_star
from .errors import BadVarianceError, DimMismatchError, InfeasibleSliceError

__all__ = [
    "slice_sample",
    "kernel_step",
    "kernel_step_batch",
    "advance_chain_batch",
]

# Additive slack for the feasibility interval.
FEAS_ATOL = 1e-12
# Relative slack below the variance floor sigma_star(r)^2. It admits the
# walk's sigma_star^2 / ||v||^2 at ||v|| = 1 + walk.NORM_SLACK (2e-12 below
# the floor), and at sigma2 = floor * (1 - delta) the reflection weight
# exceeds 1 by at most (4/3)(r - 1) delta^(3/2): 4e-11 at r = 10^6.
FLOOR_RTOL = 1e-11
# Retries when a Gaussian draw lands (numerically) parallel to the axis.
MAX_REDRAWS = 100


def _check_variance(r: int, sigma2: float) -> None:
    """Reject a variance below sigma_star(r)^2 (up to FLOOR_RTOL) or nan;
    an infinite one, which the walk passes for a vector below
    ||v|| ~ 1e-155, is admitted."""
    floor = sigma_star(r) ** 2  # raises RankTooSmallError for r < 2
    if not sigma2 >= floor * (1.0 - FLOOR_RTOL):  # also true for nan
        raise BadVarianceError(f"sigma2={sigma2} below the admissible floor {floor} for r={r}")


def _axis_offset(norm_x: float, s: float) -> float:
    """Signed component along x/||x|| of the unit step reaching radius s."""
    return ((s - norm_x) * (s + norm_x) - 1.0) / (2.0 * norm_x)


def _norm(x: np.ndarray) -> float:
    """||x|| of a vector; math.hypot scales internally, so no square
    overflows or underflows for any finite x."""
    return math.hypot(*x.tolist())


def _feasible(t: float, s: float) -> bool:
    """Whether a unit step from a point of norm t reaches radius s.

    Equivalent to (t - 1)^2 <= s^2 <= (t + 1)^2, checked with a small
    slack so boundary slices built in floating point (the single-point
    cases) stay feasible. Both sides are divided by c^2 = max(1, s, t)^2,
    which keeps the squares finite however large the radii are; the slack
    is FEAS_ATOL * c^2 before scaling. A radius or norm that is not finite
    admits no step.
    """
    if not (0.0 <= s < math.inf and t < math.inf):
        return False
    c = max(1.0, s, t)
    s_c, t_c, one_c = s / c, t / c, 1.0 / c
    s_sq = s_c * s_c
    return (t_c - one_c) ** 2 <= s_sq + FEAS_ATOL and s_sq <= (t_c + one_c) ** 2 + FEAS_ATOL


def _orthogonal_unit(x_hat: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Uniform unit vector orthogonal to x_hat (unit or zero), by projection."""
    for _ in range(MAX_REDRAWS):
        g = gen.standard_normal(x_hat.shape[0])
        w = g - (g @ x_hat) * x_hat
        nw = np.linalg.norm(w)
        if nw > 1e-12:
            return w / nw
    raise InfeasibleSliceError("could not draw a direction orthogonal to x")


def slice_sample(x: np.ndarray, s: float, gen: np.random.Generator) -> np.ndarray:
    """Uniform unit step u with ||x + u|| = s.

    For x = 0 the step is uniform on the unit sphere. Otherwise it
    decomposes into a fixed component along x and a uniform direction
    orthogonal to it; at the feasibility boundary the orthogonal part
    vanishes and the slice is a single point.
    """
    x = np.asarray(x, dtype=float)
    s = float(s)
    t = _norm(x)
    if not _feasible(t, s):
        raise InfeasibleSliceError(f"no unit step from ||x||={t:.6g} reaches radius {s}")
    if t == 0.0:
        return _orthogonal_unit(x, gen)
    lam = min(1.0, max(-1.0, _axis_offset(t, s)))
    x_hat = x / t
    ortho = 1.0 - lam * lam
    if ortho <= 0.0:
        return lam * x_hat
    return lam * x_hat + math.sqrt(ortho) * _orthogonal_unit(x_hat, gen)


def _reflection_weight(r: int, sigma2: float, t: float) -> float:
    """Mixture weight chi(1-t)/chi(t) for t in [1/2, 1), unclamped: at a
    variance _check_variance admits, it exceeds 1 by at most
    (4/3)(r - 1) FLOOR_RTOL^(3/2)."""
    return math.exp((r - 1.0) * (math.log1p(-t) - math.log(t)) + (2.0 * t - 1.0) / (2.0 * sigma2))


def kernel_step(sigma2: float, x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit increment u of one kernel transition from the state x in R^r;
    the next state is x + u.

    A state with a nan or inf entry has a nan or inf norm, which only the
    slide branch can see; it raises ValueError there.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimMismatchError(f"state has shape {x.shape}, expected a vector")
    r = x.shape[0]
    _check_variance(r, sigma2)
    t = _norm(x)
    if t == 0.0:
        return slice_sample(x, 1.0, gen)
    if t < 0.5 or (t < 1.0 and gen.random() < min(_reflection_weight(r, sigma2, t), 1.0)):
        return x / -t
    if not math.isfinite(t):
        raise ValueError(f"state has non-finite norm {t}")
    return slice_sample(x, t, gen)


def _check_batch(sigma2: float, xs: np.ndarray) -> np.ndarray:
    """xs as a float N x r batch of states, and sigma2 checked for its r."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimMismatchError(f"batch has shape {xs.shape}, expected (N, r)")
    _check_variance(xs.shape[1], sigma2)
    return xs


def kernel_step_batch(sigma2: float, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit increments (rows) of one kernel step from each state (row) of xs.

    Distributionally identical to mapping kernel_step over the rows, but
    vectorized; used by the large stationarity experiments. The rare rows
    (at the origin, or whose slide draw is parallel to x) go through the
    scalar slice code. A row whose norm is not finite raises ValueError.
    """
    xs = _check_batch(sigma2, xs)
    n, r = xs.shape
    t = np.linalg.norm(xs, axis=1)
    if not np.isfinite(t).all():
        raise ValueError("batch has a row with a non-finite norm")

    # reflection weight per row: 1 below radius 1/2, 0 at or above 1
    mid = (t >= 0.5) & (t < 1.0)
    p = np.zeros(n)
    p[t < 0.5] = 1.0
    tm = t[mid]
    pm = np.exp((r - 1.0) * (np.log1p(-tm) - np.log(tm)) + (2.0 * tm - 1.0) / (2.0 * sigma2))
    p[mid] = np.minimum(pm, 1.0)

    coin = gen.random(n)
    gauss = gen.standard_normal(xs.shape)
    us = np.empty_like(xs)

    origin = t == 0.0
    reflect = (coin < p) & ~origin
    slide = ~reflect & ~origin

    for i in np.flatnonzero(origin):
        us[i] = slice_sample(xs[i], 1.0, gen)

    us[reflect] = xs[reflect] / -t[reflect][:, None]

    tv = t[slide]
    lam = -1.0 / (2.0 * tv)
    x_hat = xs[slide] / tv[:, None]
    g = gauss[slide]
    w = g - np.sum(g * x_hat, axis=1, keepdims=True) * x_hat
    nw = np.linalg.norm(w, axis=1)
    for i in np.flatnonzero(nw <= 1e-12):
        w[i] = _orthogonal_unit(x_hat[i], gen)
        nw[i] = 1.0
    w /= nw[:, None]
    us[slide] = lam[:, None] * x_hat + np.sqrt(1.0 - lam * lam)[:, None] * w

    return us


def advance_chain_batch(
    sigma2: float, x0s: np.ndarray, steps: int, gen: np.random.Generator
) -> np.ndarray:
    """Run N independent chains (the rows of x0s) for the given number of
    steps; returns the final states only."""
    xs = _check_batch(sigma2, x0s).copy()
    for _ in range(steps):
        xs += kernel_step_batch(sigma2, xs, gen)
    return xs
