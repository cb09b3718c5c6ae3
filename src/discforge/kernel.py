"""Unit-increment Markov kernel on R^r with a prescribed Gaussian
stationary law, and the sphere-slice sampler it is built from.

Every transition moves by exactly a unit vector, and every sampler here
returns that unit increment u: the next state is x + u. Writing t = ||x||,
the next point keeps either the current radius (a uniform point of the
slice at radius t) or reflects to radius 1-t (the step -x/t when x is
nonzero). The reflection weight chi(1-t)/chi(t) is a probability exactly
when the variance parameter is at least sigma_star(r)^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chilaw import sigma_star
from .errors import BadVarianceError, DimMismatchError, InfeasibleSliceError

__all__ = [
    "KernelParams",
    "slice_feasible",
    "slice_sample",
    "kernel_step",
    "run_chain",
    "kernel_step_batch",
    "advance_chain_batch",
]

# Additive slack for the feasibility interval and the mixture-weight clamp.
FEAS_ATOL = 1e-12
CLAMP_TOL = 1e-9
# Retries when a Gaussian draw lands (numerically) parallel to the axis.
MAX_REDRAWS = 100


@dataclass(frozen=True)
class KernelParams:
    """Dimension r >= 2 and variance sigma2 >= sigma_star(r)^2."""

    r: int
    sigma2: float

    def __post_init__(self) -> None:
        floor = sigma_star(self.r) ** 2  # raises RankTooSmallError for r < 2
        if self.sigma2 < floor - 1e-12:
            raise BadVarianceError(
                f"sigma2={self.sigma2} below the admissible floor {floor} for r={self.r}"
            )


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


def slice_feasible(x: np.ndarray, s: float) -> bool:
    """Whether some y has ||y - x|| = 1 and ||y|| = s."""
    return _feasible(_norm(np.asarray(x, dtype=float)), float(s))


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


def _reflection_weight(params: KernelParams, t: float) -> float:
    """Mixture weight chi(1-t)/chi(t) for t in [1/2, 1), clamped to [0, 1]."""
    p = math.exp(
        (params.r - 1.0) * (math.log1p(-t) - math.log(t))
        + (2.0 * t - 1.0) / (2.0 * params.sigma2)
    )
    if p > 1.0 + CLAMP_TOL:
        raise BadVarianceError(
            f"reflection weight {p:.6g} exceeds 1 at radius {t:.6g}; variance too small"
        )
    return min(p, 1.0)


def kernel_step(params: KernelParams, x: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Unit increment u of one kernel transition; the next state is x + u."""
    x = np.asarray(x, dtype=float)
    if x.shape != (params.r,):
        raise DimMismatchError(f"state has shape {x.shape}, expected ({params.r},)")
    t = _norm(x)
    if t == 0.0:
        return slice_sample(x, 1.0, gen)
    if t < 0.5 or (t < 1.0 and gen.random() < _reflection_weight(params, t)):
        return x / -t
    return slice_sample(x, t, gen)


def run_chain(
    params: KernelParams, x0: np.ndarray, steps: int, gen: np.random.Generator
) -> np.ndarray:
    """Trajectory of steps+1 points starting at x0; rows are states."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (params.r,):
        raise DimMismatchError(f"x0 has shape {x0.shape}, expected ({params.r},)")
    traj = np.empty((steps + 1, params.r))
    traj[0] = x0
    for k in range(steps):
        traj[k + 1] = traj[k] + kernel_step(params, traj[k], gen)
    return traj


def kernel_step_batch(
    params: KernelParams, xs: np.ndarray, gen: np.random.Generator
) -> np.ndarray:
    """Unit increments (rows) of one kernel step from each state (row) of xs.

    Distributionally identical to mapping kernel_step over the rows, but
    vectorized; used by the large stationarity experiments. The rare rows
    (at the origin, or whose slide draw is parallel to x) go through the
    scalar slice code.
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != params.r:
        raise DimMismatchError(f"batch has shape {xs.shape}, expected (N, {params.r})")
    n = xs.shape[0]
    t = np.linalg.norm(xs, axis=1)

    # reflection weight per row: 1 below radius 1/2, 0 at or above 1
    mid = (t >= 0.5) & (t < 1.0)
    p = np.zeros(n)
    p[t < 0.5] = 1.0
    tm = t[mid]
    pm = np.exp(
        (params.r - 1.0) * (np.log1p(-tm) - np.log(tm))
        + (2.0 * tm - 1.0) / (2.0 * params.sigma2)
    )
    if float(pm.max(initial=0.0)) > 1.0 + CLAMP_TOL:
        raise BadVarianceError("reflection weight exceeds 1; variance too small")
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
    params: KernelParams, x0s: np.ndarray, steps: int, gen: np.random.Generator
) -> np.ndarray:
    """Run N independent chains for the given number of steps; returns the
    final states only."""
    xs = np.asarray(x0s, dtype=float).copy()
    for _ in range(steps):
        xs += kernel_step_batch(params, xs, gen)
    return xs
