"""Unit-increment Markov kernel on R^r with a prescribed Gaussian
stationary law, and the sphere-slice sampler it is built from.

Every transition moves by exactly a unit vector, and every sampler here
returns that unit increment u: the next state is x + u. Writing t = ||x||,
the next point keeps either the current radius (a uniform point of the
slice at radius t) or reflects to radius 1-t (the step -x/t when x is
nonzero). The reflection weight chi(1-t)/chi(t) is a probability exactly
when the variance parameter is at least sigma_star(r)^2.

Each transition takes the variance sigma2 and reads the dimension r from
its state, and each checks sigma2 and the state's norm once, on entry,
before it draws anything. kernel_step and kernel_step_batch are one rule,
written once (_norm, _reflection_weight, _slide), on two draw schedules:
kernel_step draws only what its branch needs (the reflection coin for
1/2 <= t < 1, r normals on a slide), and kernel_step_batch draws N
uniforms, then N x r normals. On the same coin and normals they return
the same step. Only a slide whose normals are parallel to x (probability
zero) draws more.
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
    """Signed component along x/||x|| of the unit step reaching radius s,
    ((s - t)(s + t) - 1) / (2t) for t = ||x||, halved first so that no
    finite radius overflows."""
    return ((s - norm_x) * (0.5 * s + 0.5 * norm_x) - 0.5) / norm_x


# The state norm ||x||, called with the state's entries as arguments.
# math.hypot scales internally, so no square overflows or underflows for
# any finite state.
_norm = math.hypot


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


def _dots(a: np.ndarray, b: np.ndarray):
    """a @ b for vectors (half a stacked matmul's cost, on the walk's path);
    for N x r arrays, the row dots as an N x 1 column, each with the bits
    of a[i] @ b[i]."""
    return a @ b if a.ndim == 1 else np.matmul(a[:, None, :], b[:, :, None])[:, 0]


def _slide(x_hat: np.ndarray, lam, g: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit step lam x_hat + sqrt(1 - lam^2) w / ||w||, w the normals g's part
    orthogonal to x_hat (unit, or zero with lam = 0 at the origin), for one
    state (vectors, a float lam) or N (N x r rows, an N x 1 column lam). A
    state whose w is too short to normalize takes fresh normals from gen,
    up to MAX_REDRAWS times."""
    for _ in range(MAX_REDRAWS):
        w = g - _dots(g, x_hat) * x_hat
        nw = np.sqrt(_dots(w, w))
        ok = nw > 1e-12
        if ok is np.True_ or ok.all():  # one state's ok is np.True_: no array reduction
            return lam * x_hat + np.sqrt(1.0 - lam * lam) * (w / nw)
        short = np.broadcast_to(~ok, g.shape)
        g = g.copy()
        np.place(g, short, gen.standard_normal(np.count_nonzero(short)))
    raise InfeasibleSliceError("could not draw a direction orthogonal to x")


def slice_sample(x: np.ndarray, s: float, gen: np.random.Generator) -> np.ndarray:
    """Uniform unit step u with ||x + u|| = s: once the slice is known to
    be feasible, the slide of r fresh normals g, at a single-point slice
    too. For x = 0 the step is g/||g||, uniform on the unit sphere."""
    x = np.asarray(x, dtype=float)
    s = float(s)
    t = _norm(*x.tolist())
    if not _feasible(t, s):
        raise InfeasibleSliceError(f"no unit step from ||x||={t:.6g} reaches radius {s}")
    g = gen.standard_normal(x.shape[0])
    lam, x_hat = (min(1.0, max(-1.0, _axis_offset(t, s))), x / t) if t else (0.0, x)
    return _slide(x_hat, lam, g, gen)


def _reflection_weight(r: int, sigma2: float, t, xp):
    """Mixture weight chi(1-t)/chi(t) for t in [1/2, 1), unclamped: at a
    variance _check_variance admits, it exceeds 1 by at most
    (4/3)(r - 1) FLOOR_RTOL^(3/2). xp is math for a float, np for an array."""
    return xp.exp((r - 1.0) * (xp.log1p(-t) - xp.log(t)) + (2.0 * t - 1.0) / (2.0 * sigma2))


def kernel_step(sigma2: float, x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit increment u of one kernel transition from the state x in R^r;
    the next state is x + u. A state with a nan or inf entry raises
    ValueError before any draw, and a slide from the origin reaches
    radius 1.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimMismatchError(f"state has shape {x.shape}, expected a vector")
    r = x.shape[0]
    _check_variance(r, sigma2)
    t = _norm(*x.tolist())
    if not math.isfinite(t):
        raise ValueError(f"state has non-finite norm {t}")
    if 0.0 < t < 0.5 or (0.5 <= t < 1.0 and gen.random() < _reflection_weight(r, sigma2, t, math)):
        return x / -t
    return slice_sample(x, t or 1.0, gen)


def _check_batch(sigma2: float, xs: np.ndarray) -> np.ndarray:
    """xs as a float N x r batch of states, and sigma2 checked for its r."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2:
        raise DimMismatchError(f"batch has shape {xs.shape}, expected (N, r)")
    _check_variance(xs.shape[1], sigma2)
    return xs


def kernel_step_batch(sigma2: float, xs: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit increments (rows) of one kernel step from each state (row) of
    xs, each row distributed as kernel_step from it. Row i takes the i-th
    of N uniforms and the i-th row of N x r normals, and given the coin and
    normals kernel_step would draw, it returns kernel_step's step. A row
    whose norm is not finite raises ValueError.
    """
    xs = _check_batch(sigma2, xs)
    r = xs.shape[1]
    t = np.fromiter(map(_norm, *xs.T.tolist()), float, xs.shape[0])
    if not np.isfinite(t).all():
        raise ValueError("batch has a row with a non-finite norm")
    coin = gen.random(xs.shape[0])
    gauss = gen.standard_normal(xs.shape)

    reflect = (t > 0.0) & (t < 0.5)
    mid = (t >= 0.5) & (t < 1.0)
    reflect[mid] = coin[mid] < _reflection_weight(r, sigma2, t[mid], np)
    slide = ~reflect

    us = np.empty_like(xs)
    us[reflect] = xs[reflect] / -t[reflect][:, None]
    tv = t[slide][:, None]
    live = tv > 0.0
    lam = np.divide(-0.5, tv, out=np.zeros_like(tv), where=live)
    x_hat = np.divide(xs[slide], tv, out=np.zeros((tv.size, r)), where=live)
    us[slide] = _slide(x_hat, lam, gauss[slide], gen)
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
